"""Every function in `src/dampol` has a caller in `src/`, or is documented.

A function or method (dunders excluded) passes when its name is read as a
`Name` or `Attribute` somewhere in `src/dampol` outside its own body, is
exported in `dampol.__all__`, or appears backticked in README.md, where the
paragraph "Reference code kept for the tests" names each function that is
kept only as a reference for the tests.
"""

import ast
import re
from pathlib import Path

import dampol

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dampol").glob("*.py"))


def readme_names() -> set:
    """Each component of every dotted name written in backticks in README.md."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {part for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*(\(\))?", span)
            for part in span.removesuffix("()").split(".")}


def uncalled_functions() -> list:
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    reads = []   # (name, node id) of every Name and Attribute read in src/
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, id(node)))
    documented = set(dampol.__all__) | readme_names()
    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__") or fn.name in documented:
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(name == fn.name and node not in own for name, node in reads):
                found.append(f"{module}:{fn.lineno} {fn.name}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


def test_every_function_has_a_caller_or_is_documented():
    assert uncalled_functions() == []
