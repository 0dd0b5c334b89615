import ast
import importlib
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import ordercalc
from conftest import T, child_env
from ordercalc import canon, classify, profiles, terms, textio

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
                canon.Scat, canon.Shuf, canon.CanonicalForm,
                textio.SourceSpan, profiles.StructProfile, classify.Decomposition,
                classify.NotSelfSimilar, classify.SelfSimilarNotAbsorbing,
                classify.AbsorptionCase, classify.SelfSimilarity]


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_classes_are_slotted_and_use_the_stored_hash(cls):
    # Without __slots__ along the whole class chain every instance grows a
    # __dict__; a class that is not a node falls back to the dataclass
    # hash, which recomputes the hash of the whole tree on every call.
    assert all("__slots__" in vars(k) for k in cls.__mro__[:-1])
    assert cls.__hash__ is terms._stored_hash


_Q_Z = ("Decomposition(left=CanonicalForm(components=()), blocks=(CanonicalForm(components="
        "(Scat(atoms=(Zat(),)),)),), right=CanonicalForm(components=()))")


def test_records_are_frozen_nodes_with_the_dataclass_repr():
    # The records are nodes too: the repr a frozen dataclass printed, no
    # field may be deleted, and a pickle comes back equal with its hash.
    with pytest.raises(ordercalc.ParseError) as error:
        ordercalc.parse("N + ")
    records = [
        (error.value.span, "SourceSpan(start=4, end=4)"),
        (ordercalc.profile(T("Q + 1")),
         "StructProfile(is_empty=False, size=None, has_left_endpoint=False, "
         "has_right_endpoint=True, succ_pair_free=True, succ_complete=False, "
         "pred_complete=False, dense_class=<DenseClass.Q_ONE: 'QOne'>)"),
        (ordercalc.decompose(T("Q[Z]")), _Q_Z),
        (ordercalc.classify_absorption(T("N")),
         "NotSelfSimilar(reason='canonical form is not scattered + shuffle + scattered')"),
        (ordercalc.classify_absorption(T("N + Q[Z]")),
         "SelfSimilarNotAbsorbing(reason='left part is not a block', decomposition="
         "Decomposition(left=CanonicalForm(components=(Scat(atoms=(W(),)),)), blocks="
         "(CanonicalForm(components=(Scat(atoms=(Zat(),)),)),), right=CanonicalForm(components=())))"),
        (ordercalc.classify_absorption(T("Q[Z]")), f"AbsorptionCase(case=1, decomposition={_Q_Z})"),
        (ordercalc.is_self_similar(T("N")),
         "SelfSimilarity(holds=False, decomposition=None, "
         "reason='canonical form is not scattered + shuffle + scattered')"),
    ]
    assert [type(r) for r, _ in records] == NODE_CLASSES[-7:]  # one of each record class
    for record, text in records:
        assert repr(record) == text
        with pytest.raises(FrozenInstanceError):
            delattr(record, record.__match_args__[0])
    for record, _ in records[1], records[5]:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)


def test_the_module_level_caches_are_the_three_known_ones():
    # A one-shot query clears these three caches to start cold; a fourth
    # cache would carry answers from one query into the next unseen.
    from ordercalc import profiles

    modules = [importlib.import_module(f"ordercalc.{p.stem}") for p in MODULES
               if p.stem != "__init__"] + [ordercalc]
    found = {id(obj): obj for m in modules for obj in vars(m).values()
             if hasattr(obj, "cache_info")}
    expected = [terms.desugar, profiles._profile, canon._canon]
    assert sorted(found) == sorted(map(id, expected))


# --- the package surface ---------------------------------------------------------

PUBLIC = """
    AbsorptionCase CanonicalForm CheckReport Decomposition DenseClass Empty Equality Fin
    Finite InternalInvariantError InvalidCodeError MatchFailure NotSelfSimilar Omega
    OmegaStar OrderTerm ParseError PartialIso PointFacts Pow Product Reverse Scat
    SelfSimilarNotAbsorbing Shuf Shuffle Single SourceSpan Spectrum StructProfile StuckError
    Sum UnsupportedError ValidationError W Wstar Zat Zeta absorbs ast_repr back_and_forth
    between canon canonicalize cf_equal cf_to_term classify classify_absorption compare
    cross_check decompose desugar enumerate_points is_final_segment is_initial_segment
    is_self_similar is_square oracle parse point_profile print_term profile profiles
    reverse_form spectrum_description square_two_endpoints terms textio
    to_dot validate
""".split()
SUBMODULES = ["canon", "classify", "oracle", "profiles", "terms", "textio"]


def test_the_public_names_are_kept():
    assert ordercalc.__all__ == sorted(PUBLIC) and len(PUBLIC) == 70
    assert set(SUBMODULES) <= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_modules_own_object(name):
    value = getattr(ordercalc, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"ordercalc.{name}")
    else:
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(ordercalc)[name] is value  # resolved once, then a plain global


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from ordercalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(ordercalc))


def test_the_errors_live_in_terms_and_canon_re_exports_them():
    for name in ("StuckError", "UnsupportedError", "InternalInvariantError"):
        assert getattr(canon, name) is getattr(terms, name) is getattr(ordercalc, name)


def test_nodes_and_forms_pickle_through_the_package():
    t = ordercalc.parse("N + Q[Z, 1 + N~] + 3*N")
    for obj in (t, ordercalc.canonicalize(t), ordercalc.desugar(ordercalc.parse("(N + Q)~"))):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ordercalc.no_such_name
    with pytest.raises(ImportError):
        exec("from ordercalc import no_such_name", {})


# --- what a fresh process imports -------------------------------------------------

# Run in a child: the CLI as `python -m ordercalc.cli` runs it, then the
# ordercalc submodules, json, dataclasses and inspect, if the run imported
# them, one per line.
_CHILD = """
import runpy, sys
before = set(sys.modules)
if sys.argv[1:]:
    try:
        runpy.run_module("ordercalc.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
else:
    import ordercalc
new = set(sys.modules) - before
print("#", *sorted(m for m in new
                  if m.startswith("ordercalc.") or m in ("json", "dataclasses", "inspect")))
"""


def _imported(*argv: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "#"
    return {m.removeprefix("ordercalc.") for m in last[1:]}


BASE = {"terms", "textio"}
# No module imports dataclasses or inspect when it loads.
ORACLE = BASE | {"oracle", "profiles"}


@pytest.mark.parametrize("argv, modules", [
    ((), set()),
    (("parse", "N"), BASE),
    (("norm", "N + 1"), BASE | {"canon"}),
    (("dot", "Q[Z]"), BASE | {"canon"}),
    *(((cmd, "Q[Z]"), ORACLE) for cmd in ("enum", "check")),
    (("bnf", "Q", "Q"), ORACLE),
    *(((cmd, "N + Q[Z]"), BASE | {"canon", "classify", "profiles"})
      for cmd in ("classify", "spectrum", "square", "square2", "selfsim")),
    (("absorbs", "2", "Q[Z]"), BASE | {"canon", "classify", "profiles"}),
    (("norm", "(1 + Q", "--json"), BASE | {"canon", "json"}),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_a_fresh_process_imports_only_what_its_command_runs(argv, modules):
    # `import ordercalc` loads no submodule; a subcommand loads the module
    # its command-table row names, and what that module imports; json
    # only under --json; dataclasses and inspect never.
    assert _imported(*argv) == modules
