"""Rule ``shared-state-discipline``: shared structures mutate via their owner.

The race detector (DESIGN.md §12) can only vouch for interference
freedom on the paths it can see — and its happens-before edges follow
the *ownership* story: the disk server is one serial actor, the stable
store's directory changes through ``put``/``delete``/``recover``, the
track cache through its read/write/invalidate API.  Code that reaches
*through* another object and mutates one of these structures directly
(``server._checksums[f] = crc`` from a scrubber, a workload poking
``volume.stable._directory``) bypasses both the serialization chain
and the monitor's write recording: the mutation is invisible to the
detector and unordered by design.

This rule bans mutations of :data:`OWNED_ATTRS` — the reviewed list of
shared mutable structures behind the concurrent pipeline — whenever
the attribute is reached through anything other than ``self``.  Reads
are free; mutation is the owner's job, exposed as an entry point the
happens-before instrumentation covers.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.framework import Finding, ParsedModule, Rule, register

#: Packages forming the concurrent data plane the detector audits.
SCOPE: FrozenSet[str] = frozenset(
    {"simdisk", "disk_service", "file_service", "cluster", "chaos", "replication"}
)

#: Shared mutable structures the happens-before monitor instruments,
#: by attribute name.  DESIGN.md §12 documents each owner.
OWNED_ATTRS: FrozenSet[str] = frozenset(
    {
        # DiskServer's protection record, deferred stable writes,
        # outstanding scratch extents and unsettled free-space changes
        "_checksums",
        "_mirrored",
        "_mirrored_fragments",
        "_unreconciled",
        "_pending_stable",
        "_scratch",
        "_space_delta",
        # StableStore's key directory
        "_directory",
        # TrackCache's track -> sectors map
        "_tracks",
        # RequestQueue's pending list
        "_pending",
        # FragmentBitmap / FreeExtentTable internals
        "_bits",
        "_rows",
        "_row_of",
    }
)

#: Method calls that mutate a container in place.
MUTATORS: FrozenSet[str] = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert",
        "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
    }
)


@register
class SharedStateRule(Rule):
    """Mutation of another object's shared structure."""

    rule_id = "shared-state-discipline"
    hint = (
        "mutate shared structures through the owning object's entry "
        "points (they carry the happens-before instrumentation and the "
        "serialization chain); direct reach-through writes are invisible "
        "to the race detector"
    )

    def applies(self, module: ParsedModule) -> bool:
        return super().applies(module) and module.package in SCOPE

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            owned = _foreign_mutation(node)
            if owned is not None:
                yield module.finding(
                    node, self.rule_id,
                    f"mutates {owned} through a non-self reference",
                    self.hint,
                )


def _foreign_mutation(node: ast.AST) -> str | None:
    """The owned attribute this node mutates through a foreign base."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        for target in node.targets:
            owned = _foreign_store(target)
            if owned is not None:
                return owned
    elif isinstance(node, ast.AugAssign):
        return _foreign_store(node.target)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATORS:
            owned = _foreign_owned(node.func.value)
            if owned is not None:
                return owned
    return None


def _foreign_store(target: ast.expr) -> str | None:
    """Owned attr behind a subscript/attribute store with a foreign base."""
    if isinstance(target, ast.Subscript):
        return _foreign_owned(target.value)
    if isinstance(target, ast.Attribute):
        # rebinding the structure itself (``server._checksums = {}``)
        if target.attr in OWNED_ATTRS and not _is_self(target.value):
            return target.attr
    return None


def _foreign_owned(expr: ast.expr) -> str | None:
    """``expr`` as an owned attribute reached through a non-self base."""
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr in OWNED_ATTRS
        and not _is_self(expr.value)
    ):
        return expr.attr
    return None


def _is_self(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"
