"""Rule ``no-wall-clock``: simulated components never read host time.

Every run of the facility must be bit-for-bit deterministic — the PR-1
chaos sweep replays a workload and asserts its write trace matches the
counting run, which one ``time.time()`` in a code path silently breaks.
All time therefore flows through :class:`repro.common.clock.SimClock`;
importing :mod:`time` or :mod:`datetime` inside ``repro.*`` is a
finding.  Nothing is exempt: the benchmarks that measure the host live
outside ``src/`` (``benchmarks/``, ``perf/``), where the rule does not
reach.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.framework import Finding, ParsedModule, Rule, register

#: Modules whose import means wall-clock access.
BANNED_MODULES: Set[str] = {"time", "datetime"}

#: Call attributes flagged even if the import itself was suppressed,
#: so the misuse site is named precisely.
BANNED_CALLS: Set[str] = {
    "time", "monotonic", "perf_counter", "process_time", "sleep",
    "time_ns", "monotonic_ns", "perf_counter_ns", "now", "today", "utcnow",
}


@register
class WallClockRule(Rule):
    """Wall-clock time is banned in simulated code; use SimClock."""

    rule_id = "no-wall-clock"
    hint = (
        "thread the shared SimClock (repro.common.clock) into this code; "
        "host time breaks replay determinism"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        clock_aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        clock_aliases.add(alias.asname or root)
                        yield module.finding(
                            node, self.rule_id,
                            f"import of wall-clock module {alias.name!r}",
                            self.hint,
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in BANNED_MODULES:
                    names = ", ".join(a.name for a in node.names)
                    yield module.finding(
                        node, self.rule_id,
                        f"import of {names} from wall-clock module {root!r}",
                        self.hint,
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in BANNED_CALLS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in (BANNED_MODULES | clock_aliases)
                ):
                    yield module.finding(
                        node, self.rule_id,
                        f"wall-clock call {func.value.id}.{func.attr}()",
                        self.hint,
                    )
