"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """A prepared benchmark (store, ground truth) with a short window."""
    from perfbench.run import Bench, parse_args

    args = parse_args(["--workload", "lone", "--seed", "3", "--seconds", "1.5"])
    prepared = Bench(args, tmp_path_factory.mktemp("perfbench"))
    prepared.prepare()
    return prepared
