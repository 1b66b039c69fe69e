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

Assigning the clock's field ``_now_us`` moves time without either
call, so it is banned too, everywhere but :data:`NOW_WRITERS`: the
clock itself and the timeline's blocking charge.
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

#: Modules reviewed as writers of the clock's ``_now_us`` field.
NOW_WRITERS: FrozenSet[str] = frozenset(
    {
        # the clock's own constructor and advance methods
        "repro.common.clock",
        # Timeline.charge_ceiled's blocking branch, the per-reference
        # hot path (DESIGN.md §13)
        "repro.common.frames",
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
        "repro.lint.rules.clock_advance.ALLOWED_MODULES and NOW_WRITERS "
        "— may move the global clock"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        may_advance = module.module in ALLOWED_MODULES
        may_write_now = module.module in NOW_WRITERS
        for node in ast.walk(module.tree):
            if (
                not may_advance
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ADVANCE_CALLS
            ):
                yield module.finding(
                    node, self.rule_id,
                    f"inline clock advancement via {node.func.attr}() "
                    "outside the timeline substrate",
                    self.hint,
                )
            elif (
                not may_write_now
                and isinstance(node, ast.Attribute)
                and node.attr == "_now_us"
                and isinstance(node.ctx, ast.Store)
            ):
                yield module.finding(
                    node, self.rule_id,
                    "assigns the clock's _now_us outside the clock and "
                    "the timeline substrate",
                    self.hint,
                )
