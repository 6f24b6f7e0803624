"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.datasets.social import generate
from repro.graph.builder import (
    complete_graph,
    cycle_graph,
    graph_from_arrays,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.components import largest_component


def random_graph(n: int, m: int, seed: int = 0, *, weighted: bool = False):
    """A reproducible random multigraph input canonicalised to CSR."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.uniform(0.5, 4.0, size=m) if weighted else None
    return graph_from_arrays(src, dst, n=n, weights=weights)


def random_connected_graph(n: int, m: int, seed: int = 0, *, weighted: bool = False):
    """Largest component of :func:`random_graph` (paper's setting)."""
    graph, _ = largest_component(random_graph(n, m, seed, weighted=weighted))
    return graph


def finish_within(service, call, timeout: float = 60.0):
    """Run ``call()`` and then ``service.close()``, or fail on a hang.

    Both run in a thread joined with ``timeout``, so a procpool that
    hangs fails the test instead of the suite.  Returns what ``call``
    returned, or the exception it raised.
    """
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except Exception as exc:
            outcome["value"] = exc
        service.close()
        outcome["closed"] = True

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    if caller.is_alive():
        # Killing the workers breaks any blocked pipe wait, so the
        # thread ends and the hang is reported.
        for proc in service._procs:
            proc.kill()
        caller.join(timeout=10)
    assert "closed" in outcome, f"the service hung past {timeout:g}s"
    return outcome["value"]


@pytest.fixture(scope="session")
def social_graph():
    """A small LiveJournal stand-in shared by the heavier tests."""
    return generate("livejournal", scale=0.0004, seed=42)


@pytest.fixture(scope="session")
def social_oracle(social_graph):
    """A built oracle (paper-exact profile) on the social graph."""
    config = OracleConfig(alpha=4.0, seed=7, fallback="bidirectional")
    return VicinityOracle.build(social_graph, config=config)


@pytest.fixture(
    params=["path", "cycle", "star", "grid", "complete"], scope="module"
)
def toy_graph(request):
    """A parametrised family of deterministic toy graphs."""
    return {
        "path": path_graph(12),
        "cycle": cycle_graph(9),
        "star": star_graph(10),
        "grid": grid_graph(4, 5),
        "complete": complete_graph(7),
    }[request.param]
