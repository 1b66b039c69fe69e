"""The benchmark's span wrappers still find every method they name.

``perf/spans.py::SpanRecorder`` wraps the request path from outside the
program, looking each method up as ``cls.__dict__[name]``.  A refactor
that folds, renames or moves one of them into a base class breaks the
benchmark's traced pass, so this tier-1 test reads ``ENTRY_POINTS``
from that file (parsed, never imported or edited) and resolves every
entry the same way.
"""

from __future__ import annotations

import ast
import importlib

import pytest

from repro.lint.framework import repo_root


def entry_points():
    tree = ast.parse((repo_root() / "perf" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(
            node.target, "id", None
        ) == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perf/spans.py defines no ENTRY_POINTS")


PINS = [
    (module, cls, method)
    for targets in entry_points().values()
    for module, cls, methods in targets
    for method in methods
]


def test_the_meter_wraps_many_methods():
    assert len(PINS) > 50


@pytest.mark.parametrize("module,cls,method", PINS)
def test_each_wrapped_method_is_defined_on_its_own_class(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__.get(method)), f"{cls}.{method}"
