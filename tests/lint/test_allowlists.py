"""Lint amnesties cannot go stale (tier-1 gate).

An allowlist entry is a reviewed exemption: "this module may do what
the rule forbids everywhere else".  When a refactor moves the exempted
construct away the entry silently becomes a blank cheque for whatever
is written there next.  So every module named in an allowlist must
exist and, linted *without* its amnesty, must still trip the rule at
least once; an entry that no longer does is deleted.
"""

from __future__ import annotations

import pytest

from repro.lint.framework import REGISTRY, all_rules, lint_source, repo_root
from repro.lint.rules.clock_advance import ALLOWED_MODULES, NOW_WRITERS
from repro.lint.rules.frame_discipline import ALLOWED_CURSOR_MODULES

#: amnesty -> (rule id, allowlist, message fragment of the finding it exempts)
AMNESTIES = {
    "clock-advance-discipline": (
        "clock-advance-discipline", ALLOWED_MODULES, "inline clock advancement"
    ),
    "clock-now-writers": (
        "clock-advance-discipline", NOW_WRITERS, "assigns the clock's _now_us"
    ),
    "frame-discipline": (
        "frame-discipline", ALLOWED_CURSOR_MODULES,
        "assigns a frame cursor directly",
    ),
}


@pytest.mark.parametrize(
    "amnesty, module",
    [
        (amnesty, module)
        for amnesty, (_, allowlist, _) in AMNESTIES.items()
        for module in sorted(allowlist)
    ],
)
def test_allowlisted_module_still_needs_its_amnesty(amnesty, module):
    all_rules()  # populate the registry
    rule_id, _, flagged = AMNESTIES[amnesty]
    path = repo_root() / "src" / (module.replace(".", "/") + ".py")
    assert path.is_file(), f"{rule_id} allowlists {module}, which does not exist"
    # Lint the module's source under a name no allowlist knows.
    findings = lint_source(
        path.read_text(encoding="utf-8"),
        module="repro.not_allowlisted",
        rules=[REGISTRY[rule_id]],
    )
    assert any(flagged in finding.message for finding in findings), (
        f"{module} no longer does what {rule_id} exempts it for: "
        "delete the stale allowlist entry"
    )
