"""Every function in `src/dampol` has a caller in `src/`, or is listed in README,
only `oracle.py` reads the canonical-basis layout, and only `lattice.py`
builds or indexes the momentum-sector partition.

A function (dunders excluded) passes when its name is read somewhere in
`src/dampol` outside its own body, or appears backticked in the README
section "Reference code kept for the tests", which names each function kept
only for the benchmark or for the tests; being exported in `dampol.__all__`
exempts nothing, and a backticked name elsewhere in README neither.  Every
name that section lists must be defined in `src/dampol`.  A module-level
function counts as read through a `Name` or an `Attribute`, a method only
through an `Attribute`; an attribute of `np` never counts, so `np.allclose`
is no call of a method `allclose`.

The slot order of `QuadraticHamiltonian` (its members `_slots`, the a, p, x
and y slots of a group, and `_frame`, each group's block size, transverse
coordinates and row offset) is the canonical-basis layout; every other
module places a medium operator through `QuadraticHamiltonian.ladder_rows`
instead.

The sector partition is the sector labels of `Lattice` and the block
indexing of `SectorLayout`, each member of it defined in `lattice.py`;
every other module converts and multiplies
kernel stacks through the layout's methods (`SectorLayout.blocks`,
`SectorLayout.matmul`, ...), gets a layout from `Lattice.layout`, and groups
its slots through `SectorLayout.slot_groups`.

`coupling.py`, `susceptibility.py` and `green.py` derive, evaluate, solve
and check every kernel as blocks: none calls `SectorLayout.sites`, and the
propagator's condition number comes from `SectorLayout.svdvals`, at the
nodes its Frobenius bound (`lattice.frobenius_cond`) does not clear and
when `NodePropagator.cond` is read.  `oracle.py` forms every
canonical row stack per slot group, in its form's layout: it calls no
`sites` method and no `tensordot`, so no row is rotated through sites.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dampol").glob("*.py"))

#: the README section that lists the functions kept without a caller in `src/`
REFERENCE_SECTION = "## Reference code kept for the tests"


def readme_names(readme: Path) -> set:
    """Each component of every dotted name written in backticks in README's `REFERENCE_SECTION`."""
    text = readme.read_text()
    start = text.find(REFERENCE_SECTION + "\n")
    if start < 0:
        return set()
    section = re.split(r"^## ", text[start + len(REFERENCE_SECTION):], maxsplit=1, flags=re.M)[0]
    spans = re.findall(r"`([^`\n]+)`", section)
    return {part for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*(\(\))?", span)
            for part in span.removesuffix("()").split(".")}


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


def uncalled_functions(sources=SOURCES, readme=ROOT / "README.md") -> list:
    trees = {path.name: ast.parse(path.read_text()) for path in sources}
    reads = []   # (name, node id, through an attribute) of every read in src/ but np.*
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((node.id, id(node), False))
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "np"):
                reads.append((node.attr, id(node), True))
    methods = {id(fn) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body}
    documented = readme_names(readme)
    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__") or fn.name in documented:
                continue
            own = {id(node) for node in ast.walk(fn)}
            method = id(fn) in methods
            if not any(name == fn.name and node not in own and (attr or not method)
                       for name, node, attr in reads):
                found.append(f"{module}:{fn.lineno} {fn.name}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


def test_every_function_has_a_caller_or_is_documented():
    assert uncalled_functions() == []


def test_np_attributes_and_bare_names_call_no_method(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import numpy as np\n"
        "class Kernel:\n"
        "    def allclose(self): pass\n"
        "    def zero(self): pass\n"
        "    def norm(self): pass\n"
        "def scale(a):\n"
        "    zero = 0\n"
        "    return np.allclose(a.norm(), zero)\n")
    readme = tmp_path / "README.md"
    readme.write_text(f"{REFERENCE_SECTION}\n\n`scale`\n")
    assert uncalled_functions([source], readme) == ["mod.py:3 allclose", "mod.py:4 zero"]


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
    assert uncalled_functions([source], readme) == ["mod.py:2 named_elsewhere", "mod.py:3 exported"]
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


#: the modules that hold every kernel as blocks and rotate none back to sites
BLOCK_ONLY = ("coupling.py", "susceptibility.py", "green.py")


def site_rotations(sources=SOURCES, modules=BLOCK_ONLY) -> list:
    """Calls of a `sites` method in the block-only modules."""
    return sorted(f"{path.name}:{node.lineno} sites()"
                  for path in sources if path.name in modules
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sites")


def test_chi_and_green_rotate_nothing_back_to_sites():
    assert site_rotations() == []


def test_site_rotations_found_in_the_block_only_modules(tmp_path):
    green = tmp_path / "green.py"
    green.write_text("def f(lat, layout, x):\n    cond = layout.svdvals(x)\n"
                     "    return lat.sites, layout.sites(x)\n")
    other = tmp_path / "fields.py"
    other.write_text("def g(layout, x):\n    return layout.sites(x)\n")
    assert site_rotations([green, other]) == ["green.py:3 sites()"]


def oracle_site_work(sources=SOURCES, module="oracle.py") -> list:
    """Calls of a `sites` method or of `tensordot` in the oracle."""
    return sorted(f"{path.name}:{node.lineno} {name}()"
                  for path in sources if path.name == module
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
                  if name in ("sites", "tensordot"))


def test_oracle_forms_its_rows_in_blocks():
    assert oracle_site_work() == []


def test_oracle_site_work_found(tmp_path):
    oracle = tmp_path / "oracle.py"
    oracle.write_text("import numpy as np\nfrom numpy import tensordot\n"
                      "def f(layout, x, f3):\n    y = layout.sites(x)\n"
                      "    return np.tensordot(y, f3, 1), tensordot(y, f3, 1), layout.blocks(y)\n")
    other = tmp_path / "fields.py"
    other.write_text("import numpy as np\ndef g(layout, x):\n    return np.tensordot(layout.sites(x), x, 1)\n")
    assert oracle_site_work([oracle, other]) == [
        "oracle.py:4 sites()", "oracle.py:5 tensordot()", "oracle.py:5 tensordot()"]
