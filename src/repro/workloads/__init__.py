"""Workload generators for the experiments.

Seeded, deterministic generators for the access patterns the
benchmarks sweep: file-size distributions, sequential/random read-write
mixes, transactional account transfers, deadlock-prone lock orders,
and hot/cold locality.
"""
