"""The repository benchmark: seeded serving traffic against `DistanceServer`.

One command (``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``) builds an index from the dataset
registry, drives :class:`repro.serve.DistanceServer` through its public
API with a closed-loop single client, checks served answers against
Dijkstra and prints every metric by name with its unit.  ``--trace 1``
installs timing shims around the layers the server calls (see
:mod:`perfbench.shims`) and prints the per-layer table instead.

:mod:`perfbench.spec` is the single source of the workload and metric
definitions; ``BENCHMARK.json`` at the repository root is generated from
it (``python3 perfbench/run.py --write-manifest``).
"""
