"""Offline integrity verification for RHODOS volumes.

Home of :mod:`repro.verify.fsck`, the read-only volume checker.  The
implementation lives *below* the operator-tooling and chaos layers on
purpose: both ``repro.tools`` (the ``fsck`` CLI surface) and
``repro.chaos`` (post-crash admissibility invariants) consume it, and
the layer DAG forbids ``chaos`` → ``tools``.
"""
