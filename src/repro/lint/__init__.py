"""Static analysis for the reproduction's machine-checked invariants.

``python -m repro.lint [--json] [paths…]`` walks ``src/``
and ``tests/`` and enforces the invariants the paper's reliability
argument (and the PR-1 chaos sweep) silently depend on:

========================  ====================================================
rule id                   invariant
========================  ====================================================
``layering``              imports follow the declared five-layer DAG (Fig. 1)
``no-wall-clock``         all time flows through ``SimClock``
``no-ambient-randomness`` every RNG is seeded and threaded explicitly
``error-taxonomy``        raises construct ``RhodosError`` subclasses
``crash-point-discipline``physical writes route through the crash-point hook
``metrics-naming``        counter names follow the ``layer.noun_verb`` grammar
========================  ====================================================

Suppress one finding with ``# repro-lint: allow[rule-id] <reason>``;
every other finding fails the run.  See DESIGN.md §7 for the rule
catalogue and policy.
"""
