"""Operator tooling for the RHODOS file facility.

* :mod:`repro.verify.fsck` — an offline volume checker that rediscovers
  every file index table by scanning the disk, then cross-checks the
  block maps against the allocation bitmap (orphaned space, lost
  blocks, cross-linked files, stale contiguity counts).
* :mod:`repro.tools.backup` — whole-volume dump/restore, the answer to
  the catastrophes section 6.6's recovery explicitly excludes.
* :mod:`repro.tools.bench` — the one runner of the benchmark suite;
  writes the bench record (``python -m repro.tools.bench``).
* :mod:`repro.tools.report` — renders EXPERIMENTS.md's tables from that
  record (``python -m repro.tools.report``); it runs nothing.
"""
