"""The repo's layered benchmark: six workloads, calibrated host time,
exact simulated statistics and a per-layer budget.

``PYTHONPATH=src python -m benchmarks.layers`` runs everything and prints
every metric by name; ``python3 benchmarks/layers/run.py --workload W
--seed N --seconds T --trace 0|1`` is the one-workload form the root
``BENCHMARK.json`` names.  See ``README.md`` in this directory.

Nothing here is imported by ``repro``; the benchmark reaches the
simulator only through the public functions listed in the README.
"""
