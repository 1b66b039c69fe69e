"""Lint amnesties cannot go stale (tier-1 gate).

An allowlist entry is a reviewed exemption: "this module may do what
the rule forbids everywhere else".  When a refactor moves the exempted
construct away the entry silently becomes a blank cheque for whatever
is written there next.  So every module named in an allowlist must
exist and, linted *without* its amnesty, must still trip the rule at
least once; an entry that no longer does is deleted.  The same holds
for crash-point's registered write sites (each function exists and,
unregistered, is flagged) and for any module prefix the wall-clock ban
exempts (it names a module or package under ``src/``).
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.framework import (
    REGISTRY,
    all_rules,
    functions,
    lint_source,
    repo_root,
)
from repro.lint.rules import crashpoint, wallclock
from repro.lint.rules.clock_advance import ALLOWED_MODULES, NOW_WRITERS
from repro.lint.rules.frame_discipline import ALLOWED_CURSOR_MODULES

def source_path(module):
    """Where module ``module`` lives under ``src/``."""
    return repo_root() / "src" / (module.replace(".", "/") + ".py")


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
    path = source_path(module)
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


def test_wall_clock_exemptions_name_modules_under_src():
    # The ban exempts no prefix today; one added later must name real
    # code, not a package that never existed.
    for prefix in getattr(wallclock, "EXEMPT_PREFIXES", ()):
        package = source_path(prefix + ".__init__")
        assert source_path(prefix).is_file() or package.is_file(), (
            f"no-wall-clock exempts {prefix!r}, which names no module under "
            "src/: delete the stale prefix"
        )


@pytest.mark.parametrize(
    "module, qualname", sorted(crashpoint.REGISTERED_WRITE_SITES)
)
def test_registered_write_site_still_needs_its_registration(
    monkeypatch, module, qualname
):
    all_rules()  # populate the registry
    path = source_path(module)
    assert path.is_file(), f"write site {module} does not exist"
    text = path.read_text(encoding="utf-8")
    defined = {name for name, _ in functions(ast.parse(text))}
    assert qualname in defined, f"{module} defines no {qualname}"
    # Lint the module with every registration but this one.
    monkeypatch.setattr(
        crashpoint,
        "REGISTERED_WRITE_SITES",
        crashpoint.REGISTERED_WRITE_SITES - {(module, qualname)},
    )
    findings = lint_source(
        text, module=module, rules=[REGISTRY["crash-point-discipline"]]
    )
    assert any(
        finding.message.startswith(f"{qualname} calls ")
        and "not a registered write site" in finding.message
        for finding in findings
    ), (
        f"{module}.{qualname} no longer issues a physical write: "
        "delete the stale registration"
    )
