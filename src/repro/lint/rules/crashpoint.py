"""Rule ``crash-point-discipline``: every physical write is a crash point.

The chaos sweep's claim — "we crashed the machine during *every*
physical write and recovery always restored an admissible state" — is
only as strong as the guarantee that every physical write is numbered
by the :class:`~repro.chaos.trace.CrashPointMonitor`.  Two ways a write
can escape the numbering:

1. a function mutates a disk's raw sector store (``self._sectors[...]``)
   without first consulting the fault injector's ``note_write`` hook —
   the monitor never sees the write at all;
2. a new code path calls the write primitives (``write_sectors`` /
   ``write_through``) from a site the sweep's coverage accounting does
   not know about.

This rule polices both inside ``repro.simdisk`` and
``repro.disk_service``.  Case 2 is checked against
:data:`REGISTERED_WRITE_SITES` — the reviewed list of functions allowed
to issue physical writes.  Adding a write site is fine; adding it to
the list (or suppressing with a reason) is the act of reviewing it.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple

from repro.lint.framework import (
    Finding,
    ParsedModule,
    Rule,
    functions,
    own_nodes,
    register,
)

#: Packages whose write paths the sweep depends on.
SCOPE: FrozenSet[str] = frozenset({"simdisk", "disk_service"})

#: Attribute whose mutation is a raw physical write.
RAW_STORE_ATTR = "_sectors"

#: Call attributes that are physical write primitives.
#: ``repair_from_stable`` counts: a scrub repair rewrites the platter
#: through the put machinery, so every caller is issuing crash points
#: and must be reviewed like any other writer.
WRITE_PRIMITIVES: FrozenSet[str] = frozenset(
    {"write_sectors", "write_through", "repair_from_stable"}
)

#: The hook every raw mutation must be guarded by.
HOOK_ATTR = "note_write"

#: Method calls on the raw store that mutate platter state.  Covers the
#: legacy per-sector dict surface (pop/update/...) and the chunked
#: :class:`~repro.simdisk.store.SectorStore` mutators, so swapping the
#: store implementation cannot silently drop the discipline.
STORE_MUTATORS: FrozenSet[str] = frozenset(
    {
        "pop", "update", "clear", "setdefault", "popitem", "__setitem__",
        "write_range", "xor_byte",
    }
)

#: (module, qualified function) pairs reviewed as legitimate issuers of
#: physical writes.  DESIGN.md §7 documents each.
REGISTERED_WRITE_SITES: FrozenSet[Tuple[str, str]] = frozenset(
    {
        # careful replicated writes: both mirrors, ordered
        ("repro.simdisk.stable", "StableStore.put"),
        # tombstones both mirrors before reusing a slot
        ("repro.simdisk.stable", "StableStore.delete"),
        # recovery rewrites the stale mirror from the survivor
        ("repro.simdisk.stable", "StableStore._repair_slot"),
        # the track cache's write-through path
        ("repro.disk_service.cache", "TrackCache.write_through"),
        # put-block's direct path when the cache is disabled (the body
        # behind both the blocking wrapper and the queued pipeline, so
        # crash points keep firing at queue-drain time)
        ("repro.disk_service.server", "DiskServer._do_put"),
        # the scrubber's repair write: mirrored extent rewritten from
        # its stable copy (DESIGN.md §11; the scrub-repair sweep
        # workload crashes inside it)
        ("repro.disk_service.scrub", "Scrubber._repair_mirrored"),
        # mid-read rollback of a torn mirrored extent to stable
        ("repro.disk_service.server", "DiskServer._read_repair"),
        # RAID tier (DESIGN.md §14): the array's data-path fan-out,
        # its parity updates, and its membership superblock rounds —
        # every physical write the array issues funnels through these
        ("repro.simdisk.raid", "StripedVolume._member_write"),
        ("repro.simdisk.raid", "StripedVolume._parity_write"),
        ("repro.simdisk.raid", "StripedVolume._superblock_write"),
        # write-intent journal closing the degraded write hole
        ("repro.simdisk.raid", "StripedVolume._journal_write"),
        # background rebuild reconstructing a replaced member
        ("repro.simdisk.raid", "RaidRebuilder._write_target"),
    }
)


@register
class CrashPointRule(Rule):
    """Physical writes must route through the crash-point hook."""

    rule_id = "crash-point-discipline"
    hint = (
        "call self.faults.note_write(...) before mutating the sector store, "
        "or register the function in repro.lint.rules.crashpoint."
        "REGISTERED_WRITE_SITES after review"
    )

    def applies(self, module: ParsedModule) -> bool:
        return super().applies(module) and module.package in SCOPE

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for qualname, node in functions(module.tree):
            body_nodes = list(own_nodes(node))
            calls_hook = any(
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == HOOK_ATTR
                for child in body_nodes
            )
            for child in body_nodes:
                mutation = _raw_mutation(child)
                if mutation is not None and not calls_hook:
                    yield module.finding(
                        mutation, self.rule_id,
                        f"{qualname} mutates {RAW_STORE_ATTR} without "
                        f"calling the {HOOK_ATTR} crash-point hook",
                        self.hint,
                    )
                primitive = _write_primitive_call(child)
                if primitive is not None and (
                    (module.module, qualname) not in REGISTERED_WRITE_SITES
                ):
                    yield module.finding(
                        child, self.rule_id,
                        f"{qualname} calls {primitive}() but is not a "
                        "registered write site",
                        self.hint,
                    )


def _raw_mutation(node: ast.AST) -> ast.AST | None:
    """The node mutating ``_sectors``, if this is one."""
    targets: List[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [
            node.target
        ]
    for target in targets:
        if isinstance(target, ast.Subscript) and _is_raw_store(target.value):
            return node
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in STORE_MUTATORS and _is_raw_store(node.func.value):
            return node
    return None


def _is_raw_store(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Attribute) and expr.attr == RAW_STORE_ATTR


def _write_primitive_call(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in WRITE_PRIMITIVES
    ):
        return node.func.attr
    return None
