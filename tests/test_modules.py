import ast
import importlib
from pathlib import Path

import pytest

import ordercalc
from ordercalc import canon, terms

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


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


NODE_CLASSES = [*_subclasses(terms.OrderTerm), *_subclasses(canon.ScatAtom),
                canon.Scat, canon.Shuf, canon.CanonicalForm]


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_classes_are_slotted_and_use_the_stored_hash(cls):
    # Without __slots__ along the whole class chain every instance grows a
    # __dict__; a class that is not a node falls back to the dataclass
    # hash, which recomputes the hash of the whole tree on every call.
    assert all("__slots__" in vars(k) for k in cls.__mro__[:-1])
    assert cls.__hash__ is terms._stored_hash


def test_the_module_level_caches_are_the_four_known_ones():
    # A one-shot query clears these four caches to start cold; a fifth
    # cache would carry answers from one query into the next unseen.
    from ordercalc import oracle, profiles

    modules = [importlib.import_module(f"ordercalc.{p.stem}") for p in MODULES
               if p.stem != "__init__"] + [ordercalc]
    found = {id(obj): obj for m in modules for obj in vars(m).values()
             if hasattr(obj, "cache_info")}
    expected = [terms.desugar, profiles._profile, canon._canon, oracle._codes_of_weight]
    assert sorted(found) == sorted(map(id, expected))
