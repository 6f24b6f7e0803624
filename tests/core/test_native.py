"""Compiled kernel tier: selection, fallback, and bit-parity pinning.

The native tier must be invisible except for speed: every suite here
pins the C kernels field-identical — distance, method, witness, probes,
path — against the numpy tier across kernels, dtype widths, mmap modes
and dynamic repair, and checks the selection surface (``kernels=``
argument, ``REPRO_KERNELS``, graceful degradation without a compiled
artifact).
"""

import ctypes
import os
import warnings

import numpy as np
import pytest

from repro.core import _native
from repro.core.config import OracleConfig
from repro.core.engine import FlatQueryEngine, ShardQueryEngine
from repro.core.flat import FlatIndex, flatten_index, widen_store
from repro.core.index import VicinityIndex
from repro.core.oracle import METHODS, VicinityOracle
from repro.core.parallel import shard_assignment
from repro.exceptions import KernelError
from repro.io.oracle_store import load_flat_index, save_index
from repro.service.batch import BatchExecutor
from repro.service.wire import RequestFrame

from tests.conftest import random_connected_graph

HAVE_NATIVE = _native.load_library() is not None
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled kernel extension not built"
)


def _pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(count)]


def _batch_pairs(flat, count, seed):
    """Random pairs plus the batch lanes' edge cases: duplicate and
    mirrored pairs, ``s == t``, and landmark endpoints on either side."""
    pairs = _pairs(flat.n, count, seed)
    extra = pairs[:8] + [(t, s) for s, t in pairs[:8]]
    extra += [(0, 0), (flat.n - 1, flat.n - 1)]
    s0, t0 = pairs[0]
    for lm in flat.landmark_ids[:4].tolist():
        extra += [(lm, t0), (s0, lm), (lm, lm), (t0, lm), (lm, s0)]
    return pairs + extra


def fields(result):
    return (
        result.source, result.target, result.distance,
        result.method, result.witness, result.probes, result.path,
    )


def assert_results_identical(got, want, context=None):
    for a, b in zip(got, want):
        assert fields(a) == fields(b), context


def assert_walker_matches_reference(native_eng, numpy_eng, pairs):
    """The C walker's paths, called directly on the native columns,
    against the numpy tier's ``_path_of`` row by row; returns the set of
    method codes the rows covered."""
    walk = native_eng._native_paths
    assert walk is not None
    arr = np.asarray(pairs, dtype=np.int64)
    answers = native_eng.query_columns(pairs)
    method = np.asarray(answers.method, dtype=np.uint8)
    witness = np.asarray(answers.witness, dtype=np.int64)
    walked = walk(arr, method, witness)
    assert walked is not None
    offsets, nodes = walked
    assert offsets[0] == 0 and offsets[-1] == nodes.size
    no_path = (METHODS.index("miss"), METHODS.index("disconnected"))
    for i, (s, t) in enumerate(pairs):
        code, w = int(method[i]), int(witness[i])
        got = nodes[offsets[i]:offsets[i + 1]].tolist()
        if code in no_path:
            assert got == [], (s, t)
        else:
            assert got == numpy_eng._path_of(s, t, code, w), (s, t, code)
    return set(method.tolist())


@pytest.fixture(
    scope="module", params=[False, True], ids=["unweighted", "weighted"]
)
def built(request):
    graph = random_connected_graph(220, 640, seed=33, weighted=request.param)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
    )
    return oracle.index


class TestWireConstants:
    def test_method_names_match_oracle(self):
        assert _native._METHOD_NAMES == METHODS

    def test_kernel_codes_match_engine_kernels(self):
        assert set(_native.KERNEL_CODES) == {
            "boundary-source", "boundary-target", "boundary-smaller",
            "full-source", "full-smaller",
        }
        assert sorted(_native.KERNEL_CODES.values()) == list(range(5))


class TestTierSelection:
    def test_resolve_tier_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "native")
        assert _native.resolve_tier("numpy") == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert _native.resolve_tier("native") == "native"

    def test_resolve_tier_env_fills_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert _native.resolve_tier(None) == "auto"
        assert _native.resolve_tier("auto") == "auto"
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert _native.resolve_tier(None) == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        assert _native.resolve_tier(None) == "auto"

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(KernelError, match="kernels="):
            _native.resolve_tier("fortran")
        monkeypatch.setenv("REPRO_KERNELS", "cython")
        with pytest.raises(KernelError, match="REPRO_KERNELS"):
            _native.resolve_tier(None)

    def test_set_kernels_numpy_always_works(self, built):
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels("numpy") == "numpy"
        assert flat.kernels == "numpy"
        assert flat._native is None

    @needs_native
    def test_auto_picks_native_when_available(self, built, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels(None) == "native"
        assert flat._native is not None

    @needs_native
    def test_env_numpy_disables_native(self, built, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels(None) == "numpy"
        assert flat._native is None


class TestLoaderDegradation:
    """Selection behaviour when the compiled artifact is absent/corrupt.

    Each test redirects ``library_path`` and resets the loader cache,
    restoring both afterwards so the rest of the session keeps whatever
    artifact actually exists.
    """

    @pytest.fixture(autouse=True)
    def _restore_loader(self):
        # Neutralise any forced tier (CI runs the suite under both
        # REPRO_KERNELS values): these tests exercise *auto* selection.
        # Handled by hand, not monkeypatch — this fixture's teardown
        # must run *after* the tests' own monkeypatches have restored
        # ``library_path``, and a fixture-requested monkeypatch would
        # unwind last.
        saved = os.environ.pop("REPRO_KERNELS", None)
        yield
        if saved is not None:
            os.environ["REPRO_KERNELS"] = saved
        _native._reset_loader_state()
        _native.load_library()

    def test_absent_artifact_silently_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        _native._reset_loader_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert _native.load_library() is None
        assert "not built" in _native.load_error()

    def test_absent_artifact_forced_native_raises(
        self, built, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        _native._reset_loader_state()
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None  # force re-resolution
        with pytest.raises(KernelError, match="native kernels requested"):
            flat.set_kernels("native")
        # numpy stays served
        assert flat.set_kernels("numpy") == "numpy"

    def test_corrupt_artifact_warns_once_and_falls_back(
        self, built, monkeypatch, tmp_path
    ):
        bad = tmp_path / "_kernels.so"
        bad.write_bytes(b"this is not a shared object")
        monkeypatch.setattr(_native, "library_path", lambda: bad)
        _native._reset_loader_state()
        with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
            assert _native.load_library() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second load: cached, no warning
            assert _native.load_library() is None
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None
        assert flat.set_kernels(None) == "numpy"  # auto degrades cleanly

    def test_env_native_without_artifact_raises(
        self, built, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        monkeypatch.setenv("REPRO_KERNELS", "native")
        _native._reset_loader_state()
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None
        with pytest.raises(KernelError, match="native kernels requested"):
            flat.set_kernels(None)


@needs_native
class TestLayoutGating:
    def test_hand_built_unsupported_dtype_degrades(self, built, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)  # exercise auto
        store = dict(flatten_index(built))
        flat = FlatIndex.from_store_arrays(
            widen_store(store), n=built.n, weighted=built.graph.is_weighted
        )
        # int64 ids are the legacy layout — still supported natively.
        assert _native.view_mismatch(flat) is None
        flat.arrays["vic_nodes"] = flat.arrays["vic_nodes"].astype(np.int32)
        fresh = FlatIndex(
            flat.arrays,
            n=built.n,
            weighted=built.graph.is_weighted,
            store_paths=True,
        )
        assert "dtype" in _native.view_mismatch(fresh)
        assert fresh.set_kernels(None) == "numpy"
        with pytest.raises(KernelError, match="unavailable"):
            fresh.set_kernels("native")

    def test_unwalkable_predecessors_walk_in_python(self, built):
        flat = FlatIndex.from_index(built)
        arrays = dict(flat.arrays)
        arrays["vic_preds"] = arrays["vic_preds"].astype(np.int16)
        odd = FlatIndex(
            arrays, n=built.n, weighted=built.graph.is_weighted,
            store_paths=True,
        )
        assert _native.view_mismatch(odd) is None
        assert "dtype" in _native.walk_mismatch(odd)
        native_eng = FlatQueryEngine(odd, kernels="native")
        assert native_eng._native_columns is not None
        assert native_eng._native_paths is None
        pairs = _batch_pairs(flat, 200, seed=13)
        want = FlatQueryEngine(flat, kernels="numpy").query_batch(
            pairs, with_path=True
        )
        assert_results_identical(
            native_eng.query_batch(pairs, with_path=True), want
        )
        assert_results_identical(
            [native_eng.query(s, t, with_path=True) for s, t in pairs], want
        )


@needs_native
class TestScalarParity:
    @pytest.mark.parametrize(
        "kernel",
        ["boundary-source", "boundary-target", "boundary-smaller",
         "full-source", "full-smaller"],
    )
    def test_resolve_matches_numpy_tier(self, built, kernel):
        numpy_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="numpy"
        )
        native_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="native"
        )
        assert native_eng._native_resolve is not None
        for s, t in _pairs(built.n, 600, seed=9):
            got = native_eng.resolve(s, t, False)
            want = numpy_eng.resolve(s, t, False)
            assert fields(got) == fields(want), (kernel, s, t)

    def test_with_path_walks_natively_and_matches(self, built):
        numpy_eng = FlatQueryEngine.from_index(built, kernels="numpy")
        native_eng = FlatQueryEngine.from_index(built, kernels="native")
        assert native_eng._native_paths is not None
        for s, t in _pairs(built.n, 200, seed=10):
            got = native_eng.resolve(s, t, True)
            want = numpy_eng.resolve(s, t, True)
            assert fields(got) == fields(want), (s, t)

    @pytest.mark.parametrize("with_path", [False, True], ids=["plain", "path"])
    @pytest.mark.parametrize(
        "kernel",
        ["boundary-source", "boundary-target", "boundary-smaller",
         "full-source", "full-smaller"],
    )
    def test_batch_matches_numpy_tier(self, built, kernel, with_path):
        pairs = _batch_pairs(FlatIndex.from_index(built), 500, seed=12)
        numpy_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="numpy"
        )
        want = numpy_eng.query_batch(pairs, with_path=with_path)
        native_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="native"
        )
        assert native_eng._native_columns is not None
        assert native_eng._native_paths is not None
        got = native_eng.query_batch(pairs, with_path=with_path)
        assert len(got) == len(want) == len(pairs)
        assert_results_identical(got, want, kernel)
        # The column bundles' object edge against the per-pair object
        # lane, directly and through the executor's dedup and mirrors.
        scalar = {pair: numpy_eng.resolve(*pair, with_path) for pair in pairs}
        columns = native_eng.query_columns(pairs, with_path=with_path)
        assert_results_identical(
            columns.results(), [scalar[pair] for pair in pairs], kernel
        )
        mirrored = [
            scalar[(s, t)] if s <= t else numpy_eng.resolve(t, s, with_path).mirrored()
            for s, t in pairs
        ]
        for backend in (native_eng, numpy_eng):
            answers = BatchExecutor(backend).answer(pairs, with_path=with_path)
            assert len(answers) == len(pairs)
            assert_results_identical(answers.results(), mirrored, kernel)


@needs_native
class TestPathWalkerParity:
    """The C path walker against the numpy tier's ``_path_of``."""

    #: identical, landmark-source/target, t-in-s, s-in-t, intersection
    WALKED = {METHODS.index(name) for name in METHODS[:6]}

    def test_every_method_code_undirected(self, built):
        flat = FlatIndex.from_index(built)
        native_eng = FlatQueryEngine.from_index(built, kernels="native")
        numpy_eng = FlatQueryEngine.from_index(built, kernels="numpy")
        assert native_eng.out is native_eng.inn
        codes = assert_walker_matches_reference(
            native_eng, numpy_eng, _batch_pairs(flat, 500, seed=14)
        )
        assert self.WALKED <= codes

    def test_every_method_code_directed(self):
        from repro.core.directed import DirectedVicinityOracle
        from repro.graph.builder import digraph_from_arrays

        rng = np.random.default_rng(61)
        graph = digraph_from_arrays(
            rng.integers(0, 260, 1600), rng.integers(0, 260, 1600), n=260
        )
        engine = DirectedVicinityOracle.build(graph, alpha=4.0, seed=3).engine
        assert engine.out is not engine.inn
        native_eng = FlatQueryEngine(
            engine.out, engine.inn, kernel=engine.kernel, kernels="native"
        )
        pairs = _pairs(graph.n, 600, seed=15)
        s0, t0 = pairs[0]
        for lm in engine.out.landmark_ids[:4].tolist():
            pairs += [(lm, t0), (s0, lm), (lm, lm)]
        # The native engine is bound before this one flips the shared
        # sides to the numpy tier.
        numpy_eng = FlatQueryEngine(
            engine.out, engine.inn, kernel=engine.kernel, kernels="numpy"
        )
        want = [fields(r) for r in numpy_eng.query_batch(pairs, with_path=True)]
        codes = assert_walker_matches_reference(native_eng, numpy_eng, pairs)
        assert self.WALKED <= codes
        got = [fields(r) for r in native_eng.query_batch(pairs, with_path=True)]
        assert got == want
        for s, t in pairs[:150]:
            assert fields(native_eng.resolve(s, t, True)) == fields(
                numpy_eng.resolve(s, t, True)
            ), (s, t)

    @pytest.mark.parametrize("replicate", [False, True], ids=["remote", "replicated"])
    @pytest.mark.parametrize("tier", ["native", "numpy"])
    def test_shard_path_frames_match_the_per_pair_loop(self, built, tier, replicate):
        """``with_path`` frames from the column lane are byte-identical
        — path columns and §5 trips included — to frames encoded from
        the per-pair ``_answer_loop`` the cache lane still runs."""
        from repro.service.wire import ResponseFrame

        flat = TestFusedBatchLane._tiered(FlatIndex.from_index(built), tier)
        pairs = np.asarray(_batch_pairs(flat, 300, seed=45), dtype=np.int64)
        for shards in (2, 3):
            engine = ShardQueryEngine(
                flat, shard_assignment(built.n, shards, "hash"), replicate,
                reuse_scratch=True,
            )
            for chunk in (pairs[:1], pairs[:37], pairs, pairs[5:9]):
                got = engine.run_frame(RequestFrame(7, chunk, True))
                results, local, remote, trips = engine._answer_loop(
                    chunk.tolist(), True, None
                )
                want = ResponseFrame.from_results(
                    7, results, local, remote, trips,
                    exec_ns=got.exec_ns,
                )
                assert got.ok, got.error
                assert got.to_bytes() == want.to_bytes()
            full = engine.run_frame(RequestFrame(8, pairs, True))
            assert full.trips.size and full.path_nodes.size


@needs_native
class TestDtypeGridParity:
    """Every compact distance/id width through the same C entry points."""

    def _check(self, index):
        kernel = index.config.kernel
        flat = FlatIndex.from_index(index)
        pairs = _batch_pairs(flat, 400, seed=21)
        for with_path in (False, True):
            want = FlatQueryEngine(
                flat, kernel=kernel, kernels="numpy"
            ).query_batch(pairs, with_path=with_path)
            got = FlatQueryEngine(
                flat, kernel=kernel, kernels="native"
            ).query_batch(pairs, with_path=with_path)
            assert_results_identical(got, want, with_path)
        assert_walker_matches_reference(
            FlatQueryEngine(flat, kernel=kernel, kernels="native"),
            FlatQueryEngine(flat, kernel=kernel, kernels="numpy"),
            pairs,
        )
        for s, t in pairs[:100]:
            a = FlatQueryEngine(flat, kernel=kernel, kernels="native").resolve(
                s, t, False
            )
            b = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").resolve(
                s, t, False
            )
            assert fields(a) == fields(b), (s, t)

    def test_uint16_int32(self, built):
        self._check(built)

    def test_uint32_ids(self):
        from repro.core.landmarks import landmark_set_from_ids
        from repro.graph.builder import graph_from_arrays

        n = 70000
        src = np.arange(n, dtype=np.int64)
        graph = graph_from_arrays(src, (src + 1) % n, n=n)
        config = OracleConfig(
            alpha=4.0, seed=5, fallback="none", landmark_tables="none"
        )
        landmarks = landmark_set_from_ids(graph, list(range(0, n, 8)), config.alpha)
        index = VicinityIndex.from_landmarks(
            graph, config, landmarks, representation="flat"
        )
        assert index._flat_index.id_dtype == np.uint32
        self._check(index)

    def test_float32_dists(self):
        index = self._weighted_index(
            lambda rng, m: rng.integers(1, 16, size=m).astype(np.float64) / 4.0
        )
        assert FlatIndex.from_index(index).vic_dists.dtype == np.float32
        self._check(index)

    def test_float64_dists(self):
        index = self._weighted_index(lambda rng, m: rng.uniform(0.5, 4.0, size=m))
        assert FlatIndex.from_index(index).vic_dists.dtype == np.float64
        self._check(index)

    def test_int64_legacy_ids(self, built):
        # The wide layout as is (from_store_arrays would compact it):
        # int64 ids, offsets and predecessors, int32 table parents.
        flat = FlatIndex(
            widen_store(FlatIndex.from_index(built).arrays),
            n=built.n,
            weighted=built.graph.is_weighted,
            store_paths=True,
        )
        assert flat.vic_nodes.dtype == flat.vic_preds.dtype == np.int64
        assert flat.table_parent.dtype == np.int32
        pairs = _batch_pairs(flat, 400, seed=22)
        kernel = built.config.kernel
        for with_path in (False, True):
            want = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").query_batch(
                pairs, with_path=with_path
            )
            got = FlatQueryEngine(flat, kernel=kernel, kernels="native").query_batch(
                pairs, with_path=with_path
            )
            assert_results_identical(got, want, with_path)
        assert_walker_matches_reference(
            FlatQueryEngine(flat, kernel=kernel, kernels="native"),
            FlatQueryEngine(flat, kernel=kernel, kernels="numpy"),
            pairs,
        )

    @staticmethod
    def _weighted_index(weights_of):
        from repro.graph.builder import graph_from_arrays
        from repro.graph.components import largest_component

        rng = np.random.default_rng(23)
        n, m = 160, 460
        graph = graph_from_arrays(
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            n=n,
            weights=weights_of(rng, m),
        )
        graph, _ = largest_component(graph)
        return VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=3, fallback="none")
        )


@needs_native
class TestSavedStoreParity:
    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_round_trip_serves_identically_under_both_tiers(
        self, built, tmp_path, mmap
    ):
        path = tmp_path / "store.bin"
        save_index(built, path)
        pairs = _pairs(built.n, 400, seed=31)
        kernel = built.config.kernel
        want = FlatQueryEngine(
            load_flat_index(path, mmap=mmap), kernel=kernel, kernels="numpy"
        ).query_batch(pairs, with_path=True)
        native_eng = FlatQueryEngine(
            load_flat_index(path, mmap=mmap), kernel=kernel, kernels="native"
        )
        got = native_eng.query_batch(pairs, with_path=True)
        assert_results_identical(got, want)
        assert_walker_matches_reference(
            native_eng,
            FlatQueryEngine(
                load_flat_index(path, mmap=mmap), kernel=kernel, kernels="numpy"
            ),
            _batch_pairs(native_eng.out, 300, seed=32),
        )


@needs_native
class TestDynamicRepairParity:
    def test_refreshed_index_keeps_the_tier_and_parity(self):
        from repro.core.dynamic import DynamicVicinityOracle

        graph = random_connected_graph(150, 400, seed=23)
        dynamic = DynamicVicinityOracle(
            VicinityOracle.build(
                graph, config=OracleConfig(alpha=4.0, seed=7, fallback="none")
            ).index
        )
        dynamic.query(0, 1)
        FlatIndex.from_index(dynamic.index).set_kernels("native")
        pairs = _pairs(graph.n, 150, seed=24)
        rng = np.random.default_rng(25)
        inserted = 0
        while inserted < 3:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v or not dynamic.add_edge(u, v):
                continue
            inserted += 1
            flat = dynamic.index._flat_index
            assert flat.kernels == "native"  # choice survives the splice
            engine = dynamic._oracle.engine
            assert engine._native_resolve is not None
            reference = FlatQueryEngine(flat, kernels="numpy")
            # the explicit numpy engine above flips the shared index's
            # tier; flip it back so the dynamic engine stays native
            flat.set_kernels("native")
            for s, t in pairs:
                got = engine.resolve(s, t, False)
                want = reference.resolve(s, t, False)
                assert fields(got) == fields(want), (u, v, s, t)


@needs_native
class TestShardEngineScratch:
    @staticmethod
    def _payload(resp, pairs, integral=True):
        # everything but the wall-clock exec_ns stamp
        return (
            resp.ok,
            resp.local,
            resp.remote,
            resp.trips.tolist(),
            [
                (r.distance, r.method, r.witness, r.probes, r.path)
                for r in resp.to_results(pairs.tolist(), integral=integral)
            ],
        )

    def test_scratch_reuse_is_byte_identical(self, built):
        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 3, "hash")
        plain = ShardQueryEngine(flat, assign, False)
        reusing = ShardQueryEngine(flat, assign, False, reuse_scratch=True)
        pairs = np.asarray(_pairs(built.n, 300, seed=41), dtype=np.int64)
        for chunk in np.array_split(pairs, 5):
            a = plain.run_frame(RequestFrame(1, chunk, False))
            b = reusing.run_frame(RequestFrame(1, chunk, False))
            assert self._payload(a, chunk, flat.integral) == self._payload(b, chunk, flat.integral)

    def test_scratch_grows_to_fit(self, built):
        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 2, "hash")
        engine = ShardQueryEngine(flat, assign, False, reuse_scratch=True)
        small = np.asarray(_pairs(built.n, 8, seed=42), dtype=np.int64)
        large = np.asarray(_pairs(built.n, 600, seed=43), dtype=np.int64)
        baseline = ShardQueryEngine(flat, assign, False)
        for chunk in (small, large, small):
            got = engine.run_frame(RequestFrame(1, chunk, False))
            want = baseline.run_frame(RequestFrame(1, chunk, False))
            assert self._payload(got, chunk, flat.integral) == self._payload(want, chunk, flat.integral)


@needs_native
class TestScratchThreadSafety:
    def test_callpack_is_per_thread(self, built):
        flat = FlatIndex.from_index(built)
        flat.set_kernels("native")
        nk = flat._native
        import threading

        packs = {}

        def grab(key):
            packs[key] = nk.callpack()

        threads = [
            threading.Thread(target=grab, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grab("main")
        addresses = {pack[3] for pack in packs.values()}
        assert len(addresses) == len(packs)  # distinct result buffers

    def test_concurrent_resolves_match_serial(self, built):
        import threading

        engine = FlatQueryEngine.from_index(built, kernels="native")
        reference = FlatQueryEngine.from_index(built, kernels="numpy")
        pairs = _pairs(built.n, 400, seed=51)
        want = [fields(reference.resolve(s, t, False)) for s, t in pairs]
        errors = []

        def worker():
            for (s, t), expect in zip(pairs, want):
                got = fields(engine.resolve(s, t, False))
                if got != expect:
                    errors.append((s, t, got, expect))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:3]


@needs_native
class TestFusedBatchLane:
    """The one-call batch lane and the per-pair scan it leaves behind."""

    @staticmethod
    def _tiered(flat, tier):
        # An independent index over the same arrays: the kernel tier is
        # per index, and the shard engine reads it at call time.
        twin = FlatIndex(
            dict(flat.arrays), n=flat.n, weighted=flat.weighted,
            store_paths=flat.store_paths,
        )
        twin.set_kernels(tier)
        return twin

    def test_shard_columns_match_numpy_tier_byte_for_byte(self, built):
        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 3, "hash")
        native = ShardQueryEngine(
            self._tiered(flat, "native"), assign, False, reuse_scratch=True
        )
        numpy_eng = ShardQueryEngine(
            self._tiered(flat, "numpy"), assign, False, reuse_scratch=True
        )
        pairs = np.asarray(_batch_pairs(flat, 300, seed=44), dtype=np.int64)
        for chunk in (pairs[:1], pairs[:37], pairs, pairs[5:9]):
            got = native.answer_columns(chunk)
            want = numpy_eng.answer_columns(chunk)
            for a, b in zip(got[:4], want[:4]):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert got[4:6] == want[4:6]
            assert got[6].tobytes() == want[6].tobytes()

    @pytest.mark.parametrize("tier", ["native", "numpy"])
    def test_corrupted_store_raises_query_error(self, tier):
        from repro.exceptions import QueryError

        graph = random_connected_graph(120, 320, seed=71, weighted=True)
        flat = FlatIndex.from_index(VicinityOracle.build(
            graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
        ).index)
        assert not flat.integral  # membership and distances are split
        arrays = {name: arr.copy() for name, arr in flat.arrays.items()}
        vic_offsets, vic_nodes = arrays["vic_offsets"], arrays["vic_nodes"]
        no_table = flat.landmark_row < 0
        pair = None
        for u in np.flatnonzero(no_table).tolist():
            lo, hi = int(vic_offsets[u]), int(vic_offsets[u + 1])
            members = flat.member_nodes[
                flat.member_offsets[u]:flat.member_offsets[u + 1]
            ]
            for pos in range(lo + 1, hi):
                v = int(vic_nodes[pos])
                if v != u and no_table[v] and v in members:
                    # v stays a member of Gamma(u) but loses its stored
                    # distance; the slice stays sorted.
                    vic_nodes[pos] = vic_nodes[pos - 1]
                    pair = (u, v)
                    break
            if pair is not None:
                break
        assert pair is not None
        broken = FlatIndex(
            arrays, n=flat.n, weighted=flat.weighted, store_paths=True
        )
        engine = FlatQueryEngine(broken, kernels=tier)
        clean = (pair[1], pair[1])
        with pytest.raises(QueryError, match="not in the stored table"):
            engine.query_batch([clean, pair, clean])
        with pytest.raises(QueryError, match="not in the stored table"):
            engine.query(*pair)
        shard = ShardQueryEngine(
            broken, shard_assignment(flat.n, 2, "hash"), False
        )
        with pytest.raises(QueryError, match="not in the stored table"):
            shard.answer_columns(np.asarray([pair], dtype=np.int64))

        # Broken path chains: distances still answer, every pathed entry
        # point raises the numpy tier's QueryError.
        for corrupt in (
            self._pred_out_of_range, self._pred_cycle, self._parent_broken,
        ):
            arrays = {name: arr.copy() for name, arr in flat.arrays.items()}
            pair = corrupt(flat, arrays)
            self._assert_broken_chain_raises(flat, arrays, pair, tier)

    @staticmethod
    def _chain_pair(flat):
        """``(u, v, pos_v, pos_p)``: ``v`` answers ``(u, v)`` through
        condition (3) and its predecessor ``p`` in Gamma(u) is not ``u``
        (positions index ``vic_nodes``)."""
        no_table = flat.landmark_row < 0
        for u in np.flatnonzero(no_table).tolist():
            lo, hi = int(flat.vic_offsets[u]), int(flat.vic_offsets[u + 1])
            nodes = flat.vic_nodes[lo:hi].tolist()
            members = set(flat.member_nodes[
                flat.member_offsets[u]:flat.member_offsets[u + 1]
            ].tolist())
            for k, v in enumerate(nodes):
                p = int(flat.vic_preds[lo + k])
                if v != u and no_table[v] and v in members and p != u:
                    return u, v, lo + k, lo + nodes.index(p)
        raise AssertionError("no two-hop chain in any vicinity")

    def _pred_out_of_range(self, flat, arrays):
        u, v, pos_v, _ = self._chain_pair(flat)
        arrays["vic_preds"][pos_v] = flat.n
        return u, v

    def _pred_cycle(self, flat, arrays):
        u, v, pos_v, pos_p = self._chain_pair(flat)
        arrays["vic_preds"][pos_p] = v  # v -> p -> v -> ...
        return u, v

    @staticmethod
    def _parent_broken(flat, arrays):
        lm = int(flat.landmark_ids[flat.landmark_row[flat.landmark_ids] >= 0][0])
        row = arrays["table_parent"][int(flat.landmark_row[lm])]
        far = next(
            x for x in range(flat.n)
            if x != lm and row[x] < flat.n and row[x] != lm
        )
        row[far] = flat.n
        return lm, far

    @staticmethod
    def _assert_broken_chain_raises(flat, arrays, pair, tier):
        from repro.exceptions import QueryError

        def broken(tier_name):
            index = FlatIndex(
                arrays, n=flat.n, weighted=flat.weighted, store_paths=True
            )
            index.set_kernels(tier_name)
            return index

        with pytest.raises(QueryError) as want:
            FlatQueryEngine(broken("numpy")).query_batch([pair], with_path=True)
        message = str(want.value)
        assert "chain" in message, message
        engine = FlatQueryEngine(broken(tier))
        clean = (pair[1], pair[1])
        assert engine.query_batch([clean, pair])[1].distance is not None
        with pytest.raises(QueryError) as got:
            engine.query_batch([clean, pair, clean], with_path=True)
        assert str(got.value) == message
        with pytest.raises(QueryError) as got:
            engine.query(*pair, with_path=True)
        assert str(got.value) == message
        shard = ShardQueryEngine(
            broken(tier), shard_assignment(flat.n, 2, "hash"), False
        )
        resp = shard.run_frame(
            RequestFrame(1, np.asarray([clean, pair, clean]), True)
        )
        assert not resp.ok
        assert resp.error == f"QueryError: {message}"

    def test_intersect_payload(self, built):
        flat = FlatIndex.from_index(built)
        rng = np.random.default_rng(63)
        for _ in range(200):
            owner = int(rng.integers(0, built.n))
            target = int(rng.integers(0, built.n))
            nodes, dists = flat.boundary_payload(owner)
            flat.set_kernels("native")
            got = flat.intersect_payload(nodes, dists, target)
            flat.set_kernels("numpy")
            want = flat.intersect_payload(nodes, dists, target)
            assert got == want, (owner, target)
