"""Every function in `src/dampol` runs in a shipped command or is listed in README,
the package rotates nothing to sites, only `oracle.py` reads the
canonical-basis layout, and only `lattice.py` builds or indexes the
momentum-sector partition.

The shipped commands (`SHIPPED`) run in-process under `sys.setprofile`:
`verify-all` on every verify config, lorentz with `dump_hamiltonian = true`,
and `refine --levels 3` on both refine configs.  Every function defined in
`src/dampol`, lambdas and comprehensions aside, must run in them, but those
listed in backticks in the README section "Reference code kept for the
tests", which names each function kept only for the benchmark or for the
tests; every name that section lists must be defined in `src/dampol`.  A
function that only a never-run function calls never runs either, so a
chain of them is reported whole.

The package holds every kernel as blocks: `SectorLayout` defines no site
rotation (`sites`, `blocks`, `basis`) and `Lattice` no `split`; the dense
site route is `tests/reference.py`.

The slot order of `QuadraticHamiltonian` (its members `_slots`, the a, p, x
and y slots of a group, and `_frame`, each group's block size, transverse
coordinates and row offset) is the canonical-basis layout; every other
module places a medium operator through `QuadraticHamiltonian.ladder_rows`
instead.

The sector partition is the sector labels of `Lattice` and the block
indexing of `SectorLayout`, each member of it defined in `lattice.py`;
every other module multiplies and re-lays kernel stacks through the
layout's methods (`SectorLayout.matmul`, `SectorLayout.relay`, ...), gets a
layout from `Lattice.layout`, and groups its slots through
`SectorLayout.slot_groups`.

`oracle.py` forms every canonical row stack per slot group, in its form's
layout: it calls no `tensordot`, so no row is contracted over a site
index.
"""

import ast
import importlib.util
import inspect
import os
import re
import sys
import types
from pathlib import Path

import pytest

from dampol.cli import EXIT_NUMERICAL, EXIT_PASS, main
from dampol.lattice import Lattice, SectorLayout

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dampol").glob("*.py"))
CONFIG_DIR = ROOT / "configs"

#: the README section that lists the functions kept although no shipped command runs them
REFERENCE_SECTION = "## Reference code kept for the tests"

#: the shipped commands, each as (output name, config, command and flags, exit code);
#: "dump" is lorentz.ini with `dump_hamiltonian = true`
SHIPPED = (
    *((name, f"{name}.ini", ["verify-all"], code) for name, code in (
        ("lorentz", EXIT_PASS), ("gaussian", EXIT_PASS), ("uniaxial", EXIT_PASS),
        ("violator_chi", EXIT_NUMERICAL), ("violator_bath", EXIT_NUMERICAL),
        ("degenerate", EXIT_NUMERICAL))),
    ("dump", "dump.ini", ["verify-all"], EXIT_PASS),
    ("refine", "refine.ini", ["refine", "--levels", "3"], EXIT_PASS),
    ("refine_kernels", "refine_kernels.ini", ["refine", "--levels", "3"], EXIT_PASS),
)


def readme_spans(readme: Path) -> set:
    """Every dotted name written in backticks in README's `REFERENCE_SECTION`, without a trailing ``()``."""
    text = readme.read_text()
    start = text.find(REFERENCE_SECTION + "\n")
    if start < 0:
        return set()
    section = re.split(r"^## ", text[start + len(REFERENCE_SECTION):], maxsplit=1, flags=re.M)[0]
    spans = re.findall(r"`([^`\n]+)`", section)
    return {span.removesuffix("()") for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*(\(\))?", span)}


def readme_names(readme: Path) -> set:
    """Each component of every dotted name written in backticks in README's `REFERENCE_SECTION`."""
    return {part for span in readme_spans(readme) for part in span.split(".")}


def defined_names(sources=SOURCES) -> set:
    """Every function, class and assigned name (fields and `self` attributes included) defined in the sources."""
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for elt in t.elts if isinstance(t, ast.Tuple) else [t]:
                        if isinstance(elt, ast.Name):
                            names.add(elt.id)
                        elif isinstance(elt, ast.Attribute) and getattr(elt.value, "id", None) == "self":
                            names.add(elt.attr)
    return names


def defined_functions(sources=SOURCES) -> dict:
    """The qualified name of every function defined in the sources, lambdas and comprehensions aside,
    keyed by its code's (real path, first line, name); a class body is no function."""
    found = {}

    def walk(code, path):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found[(path, const.co_firstlineno, const.co_name)] = const.co_qualname
                walk(const, path)
    for source in sources:
        path = os.path.realpath(source)
        walk(compile(Path(source).read_text(), path, "exec"), path)
    return found


def never_run(run, sources=SOURCES) -> list:
    """The qualified names of the functions in `sources` that `run()` does not call, sorted.

    `run` runs under a `sys.setprofile` hook that records the code of every
    Python call; the hook that was set before is restored after it.
    """
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes.values()}
    return sorted(name for key, name in defined_functions(sources).items() if key not in ran)


def run_shipped(out: Path) -> list:
    """Run every `SHIPPED` command in-process with its outputs under `out`; their exit codes."""
    dump = out / "dump.ini"
    dump.write_text((CONFIG_DIR / "lorentz.ini").read_text().replace("[run]\n", "[run]\ndump_hamiltonian = true\n"))
    return [main([*command, "--config", str(dump if config == "dump.ini" else CONFIG_DIR / config),
                  "--out", str(out / name)])
            for name, config, command, _ in SHIPPED]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The exit codes of the `SHIPPED` commands, the functions they never run, and their output directory."""
    out, codes = tmp_path_factory.mktemp("shipped"), []
    unrun = never_run(lambda: codes.extend(run_shipped(out)))
    return codes, unrun, out


def test_shipped_commands_exit_as_documented(shipped):
    codes, _, out = shipped
    assert codes == [code for *_, code in SHIPPED]
    assert (out / "dump" / "hamiltonian.dak").exists()


def test_shipped_commands_run_every_function_but_the_reference_list(shipped):
    _, unrun, _ = shipped
    assert unrun == sorted(readme_spans(ROOT / "README.md"))


def test_never_run_reports_a_chain_and_restores_the_hook(tmp_path):
    # `helper` has a caller, but only `dead` calls it and `dead` never runs;
    # the method `norm` is reported by its qualified name
    source = tmp_path / "chain_mod.py"
    source.write_text(
        "class Kernel:\n"
        "    def norm(self): return 0\n"
        "def helper(): return [x for x in (1, 2)]\n"
        "def dead(): return helper()\n"
        "def used(): return (lambda: 1)()\n"
        "def entry(): return used()\n")
    spec = importlib.util.spec_from_file_location("chain_mod", source)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def outer(frame, event, arg):
        pass
    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        unrun = never_run(mod.entry, [source])
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(before)
    assert unrun == ["Kernel.norm", "dead", "helper"]


def test_package_has_no_site_rotation():
    assert [name for owner, names in ((SectorLayout, ("sites", "blocks", "basis")), (Lattice, ("split",)))
            for name in names if hasattr(owner, name)] == []


def test_readme_lists_only_names_defined_in_src():
    listed = readme_names(ROOT / "README.md")
    assert listed and sorted(listed - defined_names()) == []


def test_only_the_reference_section_exempts(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def kept(): pass\ndef named_elsewhere(): pass\ndef exported(): pass\n"
                      "__all__ = ['exported']\n")
    readme = tmp_path / "README.md"
    readme.write_text(f"# mod\n\n`named_elsewhere`\n\n{REFERENCE_SECTION}\n\n* `kept`: a reference.\n\n"
                      "## Usage\n\n`named_elsewhere()` again\n")
    assert readme_names(readme) == {"kept"}
    assert defined_names([source]) == {"kept", "named_elsewhere", "exported", "__all__"}


def test_defined_names_count_self_attributes(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("class Layout:\n    def __init__(self, a):\n        self.sizes, self.columns = a, a\n"
                      "        self.size = 0\n        other.parts = a\n")
    assert defined_names([source]) == {"Layout", "__init__", "sizes", "columns", "size"}


#: the `QuadraticHamiltonian` members that hold the canonical slot order
SLOT_ORDER = ("_slots", "_frame")


def layout_reads(sources=SOURCES, owner="oracle.py") -> list:
    """Reads of a `SLOT_ORDER` member in any module but `owner`."""
    return [f"{path.name}:{node.lineno} {node.attr}"
            for path in sources if path.name != owner
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in SLOT_ORDER]


def test_only_the_oracle_reads_the_basis_layout():
    assert layout_reads() == []


def test_slot_order_names_defined_in_the_oracle():
    assert sorted(set(SLOT_ORDER) - defined_names([ROOT / "src" / "dampol" / "oracle.py"])) == []


def test_layout_reads_found_outside_the_owner(tmp_path):
    owner = tmp_path / "oracle.py"
    owner.write_text(
        "class QuadraticHamiltonian:\n"
        "    def _frame(self): pass\n"
        "    def ladder_rows(self): pass\n"
        "def g(ham):\n    return ham._slots(1, 3)\n")
    other = tmp_path / "bath.py"
    other.write_text("def f(ham):\n    ham.ladder_rows()\n    return ham._frame, ham._slots(1, 3)\n")
    assert layout_reads([owner, other]) == ["bath.py:3 _frame", "bath.py:3 _slots"]


#: the members that hold or index the sector partition
PARTITION = ("momentum_sector", "sizes", "part_sizes", "_entries", "parts", "columns")


def test_partition_names_defined_in_the_lattice():
    assert sorted(set(PARTITION) - defined_names([ROOT / "src" / "dampol" / "lattice.py"])) == []


def partition_reads(sources=SOURCES, owner="lattice.py") -> list:
    """Reads of a partition member, or calls building a `SectorLayout`, in any module but `owner`."""
    found = []
    for path in sources:
        if path.name == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in PARTITION:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SectorLayout":
                found.append(f"{path.name}:{node.lineno} SectorLayout()")
    return sorted(found)


def test_only_the_lattice_builds_or_indexes_the_partition():
    assert partition_reads() == []


def test_partition_reads_found_outside_the_owner(tmp_path):
    owner = tmp_path / "lattice.py"
    owner.write_text("class SectorLayout:\n    part_sizes = ()\n"
                     "def f(lat):\n    return SectorLayout(lat.momentum_sector)\n")
    other = tmp_path / "green.py"
    other.write_text("def g(lat, layout, x):\n    layout.matmul(x, x)\n"
                     "    return lat.momentum_sector, layout.parts(x), SectorLayout(lat)\n")
    assert partition_reads([owner, other]) == [
        "green.py:3 SectorLayout()", "green.py:3 momentum_sector", "green.py:3 parts"]


def oracle_site_work(sources=SOURCES, module="oracle.py") -> list:
    """Calls of `tensordot` in the oracle."""
    return sorted(f"{path.name}:{node.lineno} {name}()"
                  for path in sources if path.name == module
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
                  if name == "tensordot")


def test_oracle_forms_its_rows_in_blocks():
    assert oracle_site_work() == []


def test_oracle_site_work_found(tmp_path):
    oracle = tmp_path / "oracle.py"
    oracle.write_text("import numpy as np\nfrom numpy import tensordot\n"
                      "def f(layout, x, f3):\n    y = layout.matmul(x, x)\n"
                      "    return np.tensordot(y, f3, 1), tensordot(y, f3, 1)\n")
    other = tmp_path / "fields.py"
    other.write_text("import numpy as np\ndef g(layout, x):\n    return np.tensordot(x, x, 1)\n")
    assert oracle_site_work([oracle, other]) == ["oracle.py:5 tensordot()", "oracle.py:5 tensordot()"]
