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

    def test_with_path_uses_numpy_and_matches(self, built):
        numpy_eng = FlatQueryEngine.from_index(built, kernels="numpy")
        native_eng = FlatQueryEngine.from_index(built, kernels="native")
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
        want = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="numpy"
        ).query_batch(pairs, with_path=with_path)
        native_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="native"
        )
        assert native_eng._native_columns is not None
        got = native_eng.query_batch(pairs, with_path=with_path)
        assert len(got) == len(want) == len(pairs)
        assert_results_identical(got, want, kernel)


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
        flat = FlatIndex.from_store_arrays(
            widen_store(flatten_index(built)),
            n=built.n,
            weighted=built.graph.is_weighted,
        )
        pairs = _batch_pairs(flat, 400, seed=22)
        kernel = built.config.kernel
        want = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").query_batch(pairs)
        got = FlatQueryEngine(flat, kernel=kernel, kernels="native").query_batch(pairs)
        assert_results_identical(got, want)

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
        got = FlatQueryEngine(
            load_flat_index(path, mmap=mmap), kernel=kernel, kernels="native"
        ).query_batch(pairs, with_path=True)
        assert_results_identical(got, want)


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
