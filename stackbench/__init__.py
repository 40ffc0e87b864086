"""stackbench: one seeded harness over every layer of the repro stack.

``python3 -m stackbench --workload W --seed S --seconds T --trace 0|1`` is
the contract the repo's ``BENCHMARK.json`` names; ``python3 -m stackbench
--seed S`` runs all seven workloads, and ``python3 -m stackbench compare
A.json B.json`` judges two summaries. See ``stackbench/README.md``.
"""
