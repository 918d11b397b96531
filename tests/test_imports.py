"""Every module of the package uses each name it imports.

A name imported and never read is left behind when the code that used it
goes; the package's `__init__.py` is exempt, since its imports are the
public API.  Only the standard library's `ast` is needed.
"""

import ast
import os

import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qshape")


def unused_imports(source):
    """The names a module's import statements bind and no other node reads,
    in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


MODULES = sorted(name for name in os.listdir(PKG)
                 if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    with open(os.path.join(PKG, name)) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_imports_finds_a_dead_name():
    source = ("import os\n"
              "from .linalg import Echelon, apply_row as ap, sparse_kernel\n"
              "def f(x):\n"
              "    return Echelon(os.sep).reduce(ap(x))\n")
    assert unused_imports(source) == ["sparse_kernel"]
