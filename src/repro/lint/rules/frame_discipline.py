"""Rule ``frame-discipline``: branches scope, charges review.

Deferred-time service frames (DESIGN.md §10) are the substrate the
overlap numbers stand on; two mechanical mistakes corrupt their
accounting silently — every test stays green, the latency tables just
stop meaning anything:

1. **an unscoped branch** — ``fork.branch()`` called outside a ``with``
   statement never replays the cursor nor records the branch end (and
   never closes its happens-before task);
2. **a cursor poke** — assigning ``frame.cursor_us`` directly teleports
   a frame's clock without the max/replay bookkeeping ``charge_elapsed``
   and ``fan_out`` maintain, leaking time across frame boundaries.
   Service code *charges*; only :data:`ALLOWED_CURSOR_MODULES` — the
   frame substrate, busy-until timeline included — may move a cursor
   by hand.

A fork cannot go unjoined: :func:`~repro.common.frames.fan_out` is a
context manager whose exit is the join.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List

from repro.lint.framework import (
    Finding,
    ParsedModule,
    Rule,
    functions,
    own_nodes,
    register,
)

#: Modules reviewed as legitimate direct movers of a frame cursor.
ALLOWED_CURSOR_MODULES: FrozenSet[str] = frozenset(
    {
        # the frame substrate itself (charge_elapsed, fan_out replay,
        # and the busy-until Timeline whose reservations advance the
        # frame they serve)
        "repro.common.frames",
    }
)

#: Frame-cursor attributes no one else may assign.
CURSOR_ATTRS: FrozenSet[str] = frozenset({"cursor_us"})


@register
class FrameDisciplineRule(Rule):
    """Branch/charge misuse in deferred-time service code."""

    rule_id = "frame-discipline"
    hint = (
        "enter branch() with a with-statement, and move frame time by "
        "charging (charge_elapsed / Timeline.charge) — only the "
        "substrate modules in repro.lint.rules.frame_discipline."
        "ALLOWED_CURSOR_MODULES assign cursor_us directly"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        cursor_allowed = module.module in ALLOWED_CURSOR_MODULES
        for qualname, func in functions(module.tree):
            own = list(own_nodes(func))
            scoped = _with_scoped_calls(own)
            for node in own:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "branch"
                    and node not in scoped
                ):
                    yield module.finding(
                        node, self.rule_id,
                        f"{qualname} calls branch() outside a with statement",
                        self.hint,
                    )
                if not cursor_allowed and _pokes_cursor(node):
                    yield module.finding(
                        node, self.rule_id,
                        f"{qualname} assigns a frame cursor directly "
                        "instead of charging",
                        self.hint,
                    )


def _pokes_cursor(node: ast.AST) -> bool:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    return any(
        isinstance(target, ast.Attribute) and target.attr in CURSOR_ATTRS
        for target in targets
    )


def _with_scoped_calls(nodes: List[ast.AST]) -> set:
    """Calls appearing as a with-statement's context expression."""
    scoped = set()
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    scoped.add(item.context_expr)
    return scoped
