"""Each module of tmcf uses only the public names of the others: no
`from .x import _name` and no `x._name` for another tmcf module x.  A
helper two modules need is public in the one that owns it."""
import ast
import pathlib

import pytest

import tmcf

SOURCES = sorted(pathlib.Path(tmcf.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__"}


def private_uses(path):
    """(line, text) of each private name of another tmcf module that the file imports or reads."""
    own = path.stem
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "tmcf"):
            source = (node.module or "").rpartition(".")[2]  # "" for `from . import x`
            for alias in node.names:
                if alias.name.startswith("_") and source != own:
                    yield node.lineno, f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
              and node.value.id != own and node.attr.startswith("_") and not node.attr.startswith("__")):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_the_package_has_its_modules():
    assert {"words", "tm", "analysis", "cf", "verify", "cli"} <= MODULES


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_reads_another_modules_private_names(path):
    assert list(private_uses(path)) == []
