"""Run ``repro.cli serve`` in this process, optionally traced.

    python3 perfbench/launcher.py [--trace SPANS.json] serve <store> ...

The traced and untraced servers both start here, so the two runs differ
only by the wrappers :func:`perfbench.tracer.install` adds.  With
``--trace`` the spans are written to ``SPANS.json`` after the server has
drained (on SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import cli

    if trace_out is None:
        return cli.main(argv)
    from perfbench.tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
