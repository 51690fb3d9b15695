"""No module of the package uses another module's `_`-prefixed names, and every
public name it defines is used by the system, not only by tests.

A leading underscore marks a name as its module's own; a sibling that needs it
should get it from a public name, or the code belongs in the module that owns
it.  A public function, class or method that nothing in `src/`, `perfbench/` or
`scripts/` names is test-only code, which belongs in `tests/`.  Both checks
parse the sources.
"""

import ast
from pathlib import Path

import pytest

from fibercpd.solvers import SCHEDULES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibercpd"
# the system: the package without its re-export list, and the tools that drive it
SYSTEM = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + [
    p for d in ("perfbench", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]


def private_uses(source: str) -> list[str]:
    """`_`-prefixed names `source` imports from, or reads off, a sibling module."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "fibercpd"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"from {'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
                elif node.module in (None, "fibercpd"):   # `from . import tensor`
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_a_siblings_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_private_imports_and_attributes():
    source = ("from .tensor import _mttkrp, metric\n"
              "from . import solvers\n"
              "x = solvers._cap_bounds\n"
              "y = solvers.eigen_extremes\n")
    assert private_uses(source) == ["from .tensor import _mttkrp", "solvers._cap_bounds"]


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes of `source`, and public methods of
    its classes (as `Class.method`)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def referenced_names(source: str) -> set[str]:
    """Every name `source` reads: an ast.Name, an attribute, or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def unreferenced(definitions: dict[str, str], sources: list[str]) -> list[str]:
    """`module.name` of each public definition (module -> source) that no source
    references by name."""
    used = set().union(*map(referenced_names, sources))
    return [f"{module}.{name}" for module, source in definitions.items()
            for name in public_definitions(source) if name.split(".")[-1] not in used]


def test_src_holds_only_what_the_system_runs():
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    sources = [p.read_text(encoding="utf-8") for p in SYSTEM]
    # `run` looks each stochastic step up by name: f"{cfg.solver}_iteration"
    sources.append("\n".join(f"{solver}_iteration" for solver in SCHEDULES))
    assert unreferenced(definitions, sources) == []


def test_the_check_sees_unreferenced_functions_and_methods():
    definitions = {"m": ("def used(): pass\n"
                         "def unused(): pass\n"
                         "def _private(): pass\n"
                         "class Kind:\n"
                         "    def called(self): pass\n"
                         "    def never(self): pass\n"
                         "    def __repr__(self): pass\n")}
    sources = ["from m import used as alias\n", "Kind().called()\n"]
    assert unreferenced(definitions, sources) == ["m.unused", "m.Kind.never"]
