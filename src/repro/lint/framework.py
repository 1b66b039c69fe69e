"""Core of the invariant linter: findings, rules, suppressions.

The reproduction's reliability argument rests on invariants the test
suite cannot see — layer boundaries, simulation determinism, crash-point
discipline — so this framework machine-checks them from the AST.  It is
deliberately stdlib-only (:mod:`ast`, :mod:`tokenize`, :mod:`re`): the
linter must run in any environment the facility itself runs in.

Vocabulary:

* A **rule** inspects one :class:`ParsedModule` at a time and yields
  :class:`Finding` objects.  Rules register themselves in
  :data:`REGISTRY` via :func:`register`.
* A **suppression** is an inline comment
  ``# repro-lint: allow[rule-id] <reason>`` that silences one rule on
  its own line (or, for a standalone comment, on the next line).  The
  reason is mandatory: an unexplained suppression is itself a finding.

Every finding that is not suppressed fails the run: the tree is held
to zero.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Rule id used for problems the framework itself reports (malformed
#: suppressions, syntax errors) — not suppressible by design.
FRAMEWORK_RULE = "lint.framework"

#: Directories never walked (fixture snippets are deliberate violations).
EXCLUDED_PATH_PARTS: Tuple[str, ...] = ("tests/lint/fixtures",)
EXCLUDED_DIR_NAMES: Set[str] = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Header comment a fixture uses to impersonate a repro module, e.g.
#: ``# lint-fixture-module: repro.simdisk.fake``.  Scanned in the first
#: few lines only.
_FIXTURE_MODULE_RE = re.compile(r"#\s*lint-fixture-module:\s*([A-Za-z_][\w.]*)")

_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*allow\[([\w.-]+)\]\s*(.*)$")


def repo_root() -> Path:
    """The repository root, located from this file (src/repro/lint/…)."""
    return Path(__file__).resolve().parents[3]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # repo-relative posix path
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: Path
    rel: str
    module: Optional[str]  # dotted name for repro modules, else None
    text: str
    tree: ast.Module
    lines: List[str]
    #: line number -> rule ids allowed on that line
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: framework findings produced while parsing (bad suppressions)
    problems: List[Finding] = field(default_factory=list)

    @property
    def package(self) -> Optional[str]:
        """Top-level repro package (``repro.simdisk.disk`` → ``simdisk``)."""
        if self.module is None:
            return None
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]

    def finding(
        self, node: ast.AST, rule: str, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` and :attr:`hint`, and implement
    :meth:`check`.  :meth:`applies` gates a rule to the module scopes it
    governs; the default is every ``repro.*`` module.
    """

    rule_id: str = ""
    hint: str = ""

    def applies(self, module: ParsedModule) -> bool:
        return module.module is not None and module.module.split(".")[0] == "repro"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rule {self.rule_id}>"


REGISTRY: Dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator adding a rule instance to :data:`REGISTRY`."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    REGISTRY[rule.rule_id] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Every registered rule, importing the rule modules on first use."""
    # Imported lazily so the framework has no import-time dependency on
    # the rules (rules import the framework).
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


# -------------------------------------------------- function walking


def functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualname, def-node)`` for every function, nested included."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, minus nested function/class bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


# ------------------------------------------------------------- parsing


def module_name_for(path: Path, root: Optional[Path] = None) -> Optional[str]:
    """Dotted module name for files under ``<root>/src``, else None."""
    root = root or repo_root()
    try:
        rel = path.resolve().relative_to(root.resolve() / "src")
    except ValueError:
        return None
    parts = list(rel.parts)
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return None
    return ".".join(parts)


def _parse_suppressions(
    rel: str, text: str, known_rules: Set[str]
) -> Tuple[Dict[int, Set[str]], List[Finding]]:
    allowed: Dict[int, Set[str]] = {}
    problems: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The ast parse reports the syntax error with a better message.
        return allowed, problems
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue  # the directive is only honoured in real comments
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        line, col = token.start
        rule_id, reason = match.group(1), match.group(2).strip()
        if rule_id not in known_rules:
            problems.append(
                Finding(
                    rel, line, col + 1, FRAMEWORK_RULE,
                    f"suppression names unknown rule {rule_id!r}",
                    "valid ids: " + ", ".join(sorted(known_rules)),
                )
            )
            continue
        if not reason:
            problems.append(
                Finding(
                    rel, line, col + 1, FRAMEWORK_RULE,
                    f"suppression of {rule_id!r} has no reason",
                    "write `# repro-lint: allow[rule-id] <why this is safe>`",
                )
            )
            continue
        # A standalone comment covers the next line; an inline trailer
        # covers its own.
        standalone = token.line[: col].strip() == ""
        target = line + 1 if standalone else line
        allowed.setdefault(target, set()).add(rule_id)
    return allowed, problems


def parse_module(
    path: Path,
    *,
    root: Optional[Path] = None,
    known_rules: Optional[Set[str]] = None,
) -> ParsedModule:
    """Parse one file into the shape every rule consumes.

    A syntax error produces a module with an empty tree and a framework
    finding, so one broken file cannot abort the whole run.
    """
    root = root or repo_root()
    text = path.read_text(encoding="utf-8")
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    lines = text.splitlines()
    module = module_name_for(path, root)
    for line in lines[:5]:
        override = _FIXTURE_MODULE_RE.search(line)
        if override:
            module = override.group(1)
            break
    if known_rules is None:
        known_rules = set(rule.rule_id for rule in all_rules())
    suppressions, problems = _parse_suppressions(rel, text, known_rules)
    try:
        tree = ast.parse(text)
    except SyntaxError as error:
        tree = ast.Module(body=[], type_ignores=[])
        problems.append(
            Finding(
                rel, error.lineno or 1, (error.offset or 0) + 1, FRAMEWORK_RULE,
                f"syntax error: {error.msg}",
            )
        )
    return ParsedModule(
        path=path, rel=rel, module=module, text=text, tree=tree,
        lines=lines, suppressions=suppressions, problems=problems,
    )


def lint_source(
    text: str,
    *,
    module: Optional[str] = None,
    rel: str = "<string>",
    rules: Optional[Iterable[Rule]] = None,
) -> List[Finding]:
    """Lint a source string directly — the unit-test entry point."""
    chosen = list(rules) if rules is not None else all_rules()
    known = set(rule.rule_id for rule in all_rules())
    lines = text.splitlines()
    suppressions, problems = _parse_suppressions(rel, text, known)
    parsed = ParsedModule(
        path=Path(rel), rel=rel, module=module, text=text,
        tree=ast.parse(text), lines=lines, suppressions=suppressions,
        problems=problems,
    )
    return _check_module(parsed, chosen)


# ------------------------------------------------------------- walking


def iter_python_files(paths: Iterable[Path], root: Path) -> Iterator[Path]:
    """Expand files/directories into the python files to lint.

    Excluded subtrees (lint fixtures, caches) are skipped during
    directory walks, but a file named explicitly is always yielded — the
    CLI must be able to demonstrate findings on a fixture.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if _excluded(candidate, root):
                continue
            yield candidate


def _excluded(path: Path, root: Path) -> bool:
    if EXCLUDED_DIR_NAMES.intersection(path.parts):
        return True
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return any(part in rel for part in EXCLUDED_PATH_PARTS)


# ------------------------------------------------------------- running


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]  # not suppressed
    files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def _check_module(module: ParsedModule, rules: Iterable[Rule]) -> List[Finding]:
    findings = list(module.problems)
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            if finding.rule in module.suppressions.get(finding.line, ()):
                continue
            findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Iterable[Path],
    *,
    root: Optional[Path] = None,
    rules: Optional[Iterable[Rule]] = None,
    on_file: Optional[Callable[[Path], None]] = None,
) -> LintResult:
    """Lint every python file under ``paths``; the programmatic entry point."""
    root = root or repo_root()
    chosen = list(rules) if rules is not None else all_rules()
    known = set(rule.rule_id for rule in all_rules())
    findings: List[Finding] = []
    files = 0
    for path in iter_python_files([Path(p) for p in paths], root):
        if on_file is not None:
            on_file(path)
        files += 1
        module = parse_module(path, root=root, known_rules=known)
        findings.extend(_check_module(module, chosen))
    return LintResult(findings=findings, files=files)
