import ast
from pathlib import Path

import pytest

import ordercalc

MODULES = sorted(Path(ordercalc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    # A module's _-prefixed names are its own; another module that needs
    # one should get a public name instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
