"""No module of the package uses another module's `_`-prefixed names.

A leading underscore marks a name as its module's own; a sibling that needs it
should get it from a public name, or the code belongs in the module that owns
it.  The check parses the sources, so it needs no import of the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fibercpd"


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
