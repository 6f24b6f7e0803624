"""Socket-level serving benchmark for the ``repro`` shortest-path service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds a store, serves it through ``repro.cli serve
--transport tcp --mmap`` in a child process, drives it from one asyncio
client, checks every answer against BFS ground truth and prints the
metrics listed in :mod:`perfbench.metrics`.
"""
