"""The docs cannot drift from the tree (tier-1 gate).

README.md, DESIGN.md and EXPERIMENTS.md name tests, files, modules and
committed records.  A rename, a deletion or a retired record silently
turns such a name into a claim nobody checks, so every one of them must
resolve:

* ``tests/…py::Name…`` to a file that defines the named class or
  function (and each further name inside it);
* a ``src/``, ``benchmarks/``, ``examples/`` or ``perf/`` path, and a
  ``pkg/module.py`` path under one of ``src/repro``'s packages, to a
  file or directory that exists (a ``*`` must match something);
* a dotted ``repro.…`` name to an importable module and its attributes;
* a ``BENCH_pr*.json``, ``AVAILABILITY_pr*.json`` or
  ``RESULTS_pr*.json`` to a record in the repository.

Inside the code, every ``repro.…`` target of a ``:class:``, ``:func:``,
``:meth:``, ``:mod:``, ``:data:``, ``:attr:`` or ``:exc:`` role in ``src/``
(docstrings and ``#:`` comments) must resolve the same way; a package
``__init__.py`` re-exports nothing, so a target spelled through one fails.

DESIGN.md states contracts, so each section of ``PINNED_SECTIONS`` carries
a ``Pinned by:`` paragraph naming at least one test by ``path::Name``.
EXPERIMENTS.md keeps no hand-written tables: its only fenced blocks are
the command block at the top and the generated ones between
``<!-- table … -->`` markers, and each M section (a measurement whose
figures live in CHANGES.md) stays a short verdict.
"""

from __future__ import annotations

import ast
import importlib
import re
from functools import lru_cache

import pytest

from repro.lint.framework import repo_root

ROOT = repo_root()
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PINNED_SECTIONS = (
    "3", "5", "6", "6b", "7", "8", "9", "10", "11", "12", "13", "14", "15",
)
M_SECTION_MAX_LINES = 12

PACKAGES = sorted(
    p.name for p in (ROOT / "src" / "repro").iterdir()
    if (p / "__init__.py").is_file()
)
_NOT_AFTER = r"(?<![\w./-])"
TEST_REF = re.compile(_NOT_AFTER + r"tests/[\w/]+\.py(?:::\w+)*")
PATH_REF = re.compile(
    _NOT_AFTER + r"(?:src|benchmarks|examples|perf)/[\w./*-]*"
)
MODULE_PATH_REF = re.compile(
    _NOT_AFTER + r"(?:repro/)?(?:" + "|".join(PACKAGES) + r")/[\w/]+\.py(?:::\w+)*"
)
DOTTED_REF = re.compile(_NOT_AFTER + r"repro(?:\.[A-Za-z_]\w*)+")
ROLE_REF = re.compile(
    r":(?:class|func|meth|mod|data|attr|exc):`~?(repro(?:\.\w+)+)`"
)
RECORD_REF = re.compile(r"\b(?:BENCH|AVAILABILITY|RESULTS)_pr\d+\.json\b")
SECTION = re.compile(r"^## (\S+?)\.? ", re.MULTILINE)
PINNED_BY = re.compile(r"^Pinned by:(.*?)(?:\n[ \t]*\n|\Z)", re.MULTILINE | re.DOTALL)


@lru_cache(maxsize=None)
def _defined(path: str) -> frozenset:
    """Every ``Outer`` and ``Outer::inner`` chain of defs in ``path``."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    chains = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                chain = prefix + (node.name,)
                chains.add("::".join(chain))
                visit(node.body, chain)

    visit(tree.body, ())
    return frozenset(chains)


def _resolve_file_ref(ref: str, base: str = "") -> str | None:
    """Why ``path[::Name…]`` (relative to ``base``) does not resolve, or None."""
    path, _, names = ref.partition("::")
    if not (ROOT / base / path).is_file():
        return f"{ref}: no such file"
    if names and names not in _defined(base + path):
        return f"{ref}: {path} defines no {names}"
    return None


def _resolve_path(ref: str) -> str | None:
    ref = ref.rstrip(".")
    if "*" in ref:
        return None if any(ROOT.glob(ref)) else f"{ref}: matches nothing"
    return None if (ROOT / ref).exists() else f"{ref}: no such path"


def _resolve_dotted(ref: str) -> str | None:
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return f"{ref}: {'.'.join(parts[:cut])} has no {attribute}"
            target = getattr(target, attribute)
        return None
    return f"{ref}: no such module"


def _committed(record: str) -> bool:
    return any((directory / record).is_file() for directory in (ROOT, ROOT / "perf"))


def check_references(text: str) -> list:
    """One finding per name in ``text`` that does not resolve."""
    findings = []
    for match in TEST_REF.finditer(text):
        findings.append(_resolve_file_ref(match[0]))
    for match in PATH_REF.finditer(text):
        findings.append(_resolve_path(match[0]))
    for match in MODULE_PATH_REF.finditer(text):
        ref = match[0].removeprefix("repro/")
        findings.append(_resolve_file_ref(ref, base="src/repro/"))
    for match in DOTTED_REF.finditer(text):
        findings.append(_resolve_dotted(match[0]))
    for match in RECORD_REF.finditer(text):
        if not _committed(match[0]):
            findings.append(f"{match[0]}: not a committed record")
    return [finding for finding in findings if finding]


def check_role_targets(text: str) -> list:
    """One finding per ``repro.…`` role target in ``text`` that does not resolve."""
    findings = (_resolve_dotted(match[1]) for match in ROLE_REF.finditer(text))
    return [finding for finding in findings if finding]


def sections(text: str) -> dict:
    """Section id (``3``, ``6b``, ``M4``…) -> its text, heading included."""
    starts = list(SECTION.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return {match[1]: text[match.start():end] for match, end in zip(starts, ends)}


def check_pins(text: str, required=PINNED_SECTIONS) -> list:
    """One finding per required section with no non-empty ``Pinned by:``."""
    findings = []
    by_id = sections(text)
    for section_id in required:
        body = by_id.get(section_id)
        if body is None:
            findings.append(f"§{section_id}: no such section")
            continue
        pins = PINNED_BY.findall(body)
        if not pins:
            findings.append(f"§{section_id}: no 'Pinned by:' line")
        for pin in pins:
            if not any("::" in ref for ref in TEST_REF.findall(pin)):
                findings.append(f"§{section_id}: a 'Pinned by:' names no tests/…py::Name")
    return findings


def check_fences(text: str) -> list:
    """One finding per fenced block outside a generated table block,
    except the first one when it opens before any ``## `` section (the
    command block at the top)."""
    findings, in_table, in_fence, opened = [], False, False, 0
    heading_seen = False
    for number, line in enumerate(text.splitlines(), 1):
        heading_seen = heading_seen or line.startswith("## ")
        if line.startswith("<!-- table "):
            in_table = True
        elif line == "<!-- /table -->":
            in_table = False
        elif line.startswith("```"):
            in_fence = not in_fence
            if in_fence and not in_table:
                opened += 1
                if heading_seen or opened > 1:
                    findings.append(
                        f"line {number}: a fenced block outside <!-- table --> markers"
                    )
    return findings


def check_m_sections(text: str) -> list:
    """One finding per M section longer than ``M_SECTION_MAX_LINES``."""
    findings = []
    for section_id, body in sections(text).items():
        lines = body.rstrip().removesuffix("---").rstrip().splitlines()
        if section_id.startswith("M") and len(lines) > M_SECTION_MAX_LINES:
            findings.append(
                f"{section_id}: {len(lines)} lines (at most {M_SECTION_MAX_LINES}; "
                "the measurement belongs in CHANGES.md)"
            )
    return findings


@pytest.mark.parametrize("name", DOCS)
def test_every_reference_in_the_doc_resolves(name):
    text = (ROOT / name).read_text(encoding="utf-8")
    assert check_references(text) == []


def test_every_role_target_in_src_resolves():
    findings, targets = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        targets += len(ROLE_REF.findall(text))
        rel = path.relative_to(ROOT).as_posix()
        findings += [f"{rel}: {finding}" for finding in check_role_targets(text)]
    assert findings == []
    assert targets > 100  # sanity: the pattern still matches the tree's roles


def test_every_design_contract_section_is_pinned():
    assert check_pins((ROOT / "DESIGN.md").read_text(encoding="utf-8")) == []


def test_experiments_md_has_no_hand_tables():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert check_fences(text) == []


def test_experiments_m_sections_stay_verdicts():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert check_m_sections(text) == []


# A clean miniature of the three docs; each fault below breaks it once.
CLEAN = """# Doc

```
python -m repro.tools.bench --only ID --verbose
```

## 3. A contract

`repro.tools.report` renders from `BENCH_pr39.json` (`src/repro/tools/`),
as `tests/tools/test_report.py::TestRender` checks.

Pinned by: `tests/tools/test_report.py::TestRender::test_a_second_run_is_a_no_op`.

## E1 — a claim

<!-- table e1: E1 -->
```
generated
```
<!-- /table -->
"""

FAULTS = {
    "missing test name": ("::TestRender` checks", "::TestGone` checks"),
    "retired record": ("`BENCH_pr39.json`", "`BENCH_pr10.json`"),
    "empty Pinned by": (
        "Pinned by: `tests/tools/test_report.py::TestRender::test_a_second_run_is_a_no_op`.",
        "Pinned by: nothing yet.",
    ),
    "hand table": ("## E1 — a claim\n", "## E1 — a claim\n\n```\nhand  1\n```\n"),
}


def _check_all(text):
    return check_references(text) + check_pins(text, ("3",)) + check_fences(text)


def test_the_clean_miniature_has_no_finding():
    assert _check_all(CLEAN) == []


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_planted_fault_gives_exactly_one_finding(fault):
    old, new = FAULTS[fault]
    assert CLEAN.count(old) == 1
    assert len(_check_all(CLEAN.replace(old, new))) == 1


def test_all_four_faults_together_give_four_findings():
    text = CLEAN
    for old, new in FAULTS.values():
        text = text.replace(old, new)
    assert len(_check_all(text)) == 4


def test_one_unresolvable_role_target_gives_exactly_one_finding():
    docstring = (
        "Times run on :class:`~repro.common.clock.SimClock`; see "
        ":mod:`repro.tools.report` and :func:`repro.common.clock.NoSuchName`."
    )
    assert check_role_targets(docstring) == [
        "repro.common.clock.NoSuchName: repro.common.clock has no NoSuchName"
    ]
