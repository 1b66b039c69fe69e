"""Systematic crash-point exploration with recovery-invariant checking.

The subsystem that turns the paper's reliability claims into an
exhaustive, deterministic test: every physical write a workload
performs is a numbered crash point (:mod:`repro.chaos.trace`), a
scheduler crashes a fresh system at each one, runs recovery, and
checks the invariants (:mod:`repro.chaos.invariants`) plus the
workload's own content promises (:mod:`repro.chaos.workloads`).

Entry points: ``python -m repro.chaos.sweep --workload append-overwrite``
(crash-point sweep) and ``python -m repro.chaos.availability`` (the
crash/restart availability campaign: mixed workload over a replicated
cluster while volumes fail and recover, SLO invariants asserted).
"""
