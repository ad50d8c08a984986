"""The dampol functions the benchmark reads by name must exist.

`perfbench/run.py` reads per-function spans by qualified name
(`SPAN_EXTRAS`) and `perfbench/worker.py` observes return values by name
(`tracer.observe`).  A renamed function would make its metric read 0
without any error, so each name is resolved here.  The benchmark files are
only parsed, never imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def span_extra_names() -> list:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_EXTRAS" for t in node.targets):
            return [func for func, _field, _unit in ast.literal_eval(node.value).values()]
    raise AssertionError("perfbench/run.py defines no SPAN_EXTRAS")


def observed_names() -> list:
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "observe" and isinstance(node.args[0], ast.Constant)]


def test_names_found():
    assert len(span_extra_names()) >= 7
    assert set(observed_names()) >= {"oracle.assemble_hamiltonian",
                                     "diagonalize.mode_coefficients"}


@pytest.mark.parametrize("qualname", sorted(set(span_extra_names() + observed_names())))
def test_name_resolves_to_a_function(qualname):
    layer, *attrs = qualname.split(".")
    obj = importlib.import_module(f"dampol.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert inspect.isfunction(obj)
