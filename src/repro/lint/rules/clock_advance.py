"""Rule ``clock-advance-discipline``: only timeline code moves the clock.

The concurrent request pipeline (PR 5) rests on one invariant: a
component models a delay by *charging* it — to its disk's timeline or
to the active service frame — never by advancing the shared
:class:`~repro.common.clock.SimClock` inline.  One stray
``clock.advance_us(...)`` in a service path silently re-serializes the
world: the delay is imposed on every concurrent operation instead of
the one that incurred it, and overlap quietly evaporates while every
test stays green.

This rule bans calls to ``advance_us``/``advance_to`` everywhere in
``repro.*`` except :data:`ALLOWED_MODULES` — the reviewed set of
modules whose *job* is moving global time (the frame/timeline
substrate, the event loop, and the top-level workload drivers that own
the clock between operations).  Adding a module to the allowlist is
the act of reviewing it.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.framework import Finding, ParsedModule, Rule, register

#: The clock-mutation methods under discipline.
ADVANCE_CALLS: FrozenSet[str] = frozenset({"advance_us", "advance_to"})

#: Modules reviewed as legitimate movers of global simulated time.
#: DESIGN.md §10 documents the discipline.
ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {
        # the deferral substrate: charges (plain, or against a
        # server's busy-until Timeline) fall back to inline
        # advancement only in blocking mode
        "repro.common.frames",
        # the event loop advances to each next scheduled event
        "repro.simkernel.loop",
        # interleaved lock-wait stepper: charges think time between steps
        "repro.simkernel.runner",
        # scripted failure schedules advance to their next event
        "repro.recovery.schedule",
        # retransmission timer: the caller blocks for the retry interval
        "repro.rpc.endpoint",
        # availability campaign driver: owns the clock between client ops
        "repro.chaos.availability",
    }
)


@register
class ClockAdvanceRule(Rule):
    """Inline clock advancement outside the timeline substrate."""

    rule_id = "clock-advance-discipline"
    hint = (
        "model the delay by charging it (Timeline.charge or "
        "repro.common.frames.charge_elapsed) so concurrent operations "
        "overlap; only reviewed timeline/driver modules — see "
        "repro.lint.rules.clock_advance.ALLOWED_MODULES — may move the "
        "global clock"
    )

    def applies(self, module: ParsedModule) -> bool:
        return super().applies(module) and module.module not in ALLOWED_MODULES

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ADVANCE_CALLS
            ):
                yield module.finding(
                    node, self.rule_id,
                    f"inline clock advancement via {node.func.attr}() "
                    "outside the timeline substrate",
                    self.hint,
                )
