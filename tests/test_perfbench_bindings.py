"""perfbench's traced run binds layer entry points by name; they must exist.

``perfbench/traced.py`` wraps each entry point in its
``FUNCTION_TARGETS`` and ``METHOD_TARGETS`` tables after importing the
package.  A renamed or deleted target would only surface as a crash
inside a traced benchmark run, so the tables are read here with
:mod:`ast` (the script itself imports its sibling ``spans`` module and is
not importable from the test tree) and every target is resolved.
"""

import ast
import importlib
import pathlib

import pytest

TRACED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACED}")


FUNCTION_TARGETS = _table("FUNCTION_TARGETS")
METHOD_TARGETS = _table("METHOD_TARGETS")


def test_tables_are_not_empty():
    assert FUNCTION_TARGETS and METHOD_TARGETS


@pytest.mark.parametrize(
    "module, attr, span", FUNCTION_TARGETS, ids=str
)
def test_function_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, cls, attr, span", METHOD_TARGETS, ids=str
)
def test_method_target_is_defined_on_its_class(module, cls, attr, span):
    # The traced run replaces ``cls.__dict__[attr]``: an inherited
    # method would not do.
    assert callable(vars(getattr(importlib.import_module(module), cls))[attr])
