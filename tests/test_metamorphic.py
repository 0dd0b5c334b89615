"""Metamorphic gate: verdicts that the algebra of products ties together.

``A*X`` is "A copies of X", so (A*X)~ = A~*X~, and 1*X, X*1, (X~)~ and
0 + X + 0 are X.  For each of the 200 terms X of the verdict corpus and
the first 200 terms of ``shaped_terms(1, ...)``, of the paper's shape
L + Q[blocks] + R (fixed prefixes of seeded streams, not chosen by
outcome), and each left factor A of ``LEFT``, wherever both sides give a
verdict within the call budget:

- mirror: ``absorbs(A, X) == absorbs(A~, X~)``;
- invariance: the four terms equal to X get X's class and spectrum;
- necessary: ``absorbs(A, X)`` implies ``profile(A*X) == profile(X)``;
- forms: where ``cf_equal(canon(A*X), canon(X))`` decides, it is Equal
  exactly when ``absorbs(A, X)``;
- product: (A*B)*X = A*(B*X), so if A and B absorb into X, so does A*B;
- sum: (A+B)*X = A*X + B*X, so when 2, A and B absorb into X, so does
  A+B.

A side without a verdict (``Stuck``, ``Unsupported``, over budget, or
forms that are only ``StructuralOnly``) leaves its identity unchecked
for that term.  A violation fails the test.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest

from conftest import A_TERMS, OverBudget, T, shaped_terms, with_budget
from ordercalc import (
    AbsorptionCase,
    Empty,
    Equality,
    Product,
    Reverse,
    Shuffle,
    Single,
    StuckError,
    Sum,
    UnsupportedError,
    absorbs,
    canonicalize,
    cf_equal,
    cf_to_term,
    classify_absorption,
    decompose,
    profile,
    spectrum_description,
)

CORPUS = Path(__file__).with_name("verdict_corpus.jsonl")
SHAPES = shaped_terms(1, 200)
BUDGET_CALLS = 200_000  # per query, as for the verdict corpus
# The ten A_TERMS, and two with both endpoints and exactly one of
# successor- and predecessor-completeness, which tell rows 5, 6 and 7 of
# classify._CASES apart.
LEFT = A_TERMS + ["N+1", "1+N~"]
A = [T(a) for a in LEFT]
_NONE = object()  # no verdict


def _verdict(fn, *args):
    try:
        return with_budget(BUDGET_CALLS, fn, *args)
    except (OverBudget, StuckError, UnsupportedError):
        return _NONE


def _class(x):
    c = classify_absorption(x)
    return type(c).__name__, getattr(c, "case", None), spectrum_description(x)


def _agree(a, b) -> bool:
    return a is _NONE or b is _NONE or a == b


@pytest.mark.parametrize("text", [pytest.param(json.loads(line)["term"], id=f"line{i + 1}")
                                  for i, line in enumerate(CORPUS.read_text().splitlines())]
                         + [pytest.param(x, id=f"shape{i + 1}") for i, x in enumerate(SHAPES)])
def test_identities_of_products_hold(text):
    x = T(text)
    cx = _verdict(canonicalize, x)
    violations = []
    absorbed = []
    for a, a_text in zip(A, LEFT):
        v = _verdict(absorbs, a, x)
        mirrored = _verdict(absorbs, Reverse(a), Reverse(x))
        if not _agree(v, mirrored):
            violations.append(f"absorbs({a_text}, X) = {v} but absorbs({a_text}~, X~) = {mirrored}")
        if v is True:
            absorbed.append((a, a_text))
            p, q = _verdict(profile, Product(a, x)), _verdict(profile, x)
            if not _agree(p, q):
                violations.append(f"absorbs({a_text}, X) but profile({a_text}*X) = {p}, not {q}")
        cax, equal = _verdict(canonicalize, Product(a, x)), _NONE
        if cx is not _NONE and cax is not _NONE:
            eq = cf_equal(cax, cx)
            equal = _NONE if eq is Equality.STRUCTURAL_ONLY else eq is Equality.EQUAL
        if not _agree(v, equal):
            violations.append(f"absorbs({a_text}, X) = {v} but the forms of ({a_text})*X and X "
                              f"are {eq.value}")
    two = any(a_text == "2" for _, a_text in absorbed)
    for (a, a_text), (b, b_text) in product(absorbed, repeat=2):
        if _verdict(absorbs, Product(a, b), x) is False:
            violations.append(f"{a_text} and {b_text} absorb into X, but ({a_text})*({b_text}) does not")
        if two and _verdict(absorbs, Sum(a, b), x) is False:
            violations.append(f"2, {a_text} and {b_text} absorb into X, but {a_text} + {b_text} does not")
    c = _verdict(_class, x)
    for name, same in [("1*X", Product(Single(), x)), ("X*1", Product(x, Single())),
                       ("(X~)~", Reverse(Reverse(x))), ("0 + X + 0", Sum(Empty(), x, Empty()))]:
        d = _verdict(_class, same)
        if not _agree(c, d):
            violations.append(f"{name} gets class and spectrum {d}, X gets {c}")
    assert not violations, violations


def test_the_shaped_prefix_reaches_every_absorption_case():
    verdicts = [classify_absorption(T(x)) for x in SHAPES]
    cases = {c.case for c in verdicts if isinstance(c, AbsorptionCase)}
    assert cases == set(range(1, 9))


@pytest.mark.parametrize("kappa", ["N", "N~", "Z"])
def test_kappa_products_collapse_exactly_when_consecutive_copies_merge(kappa):
    # Copies of L + Q[blocks] + R meet at R + L; they merge into the dense
    # mixture exactly when R + L is empty or a block.  Then N copies are
    # L + Q[blocks], N~ copies Q[blocks] + R and Z copies Q[blocks].
    violations = []
    for text in SHAPES:
        x = T(text)
        d = decompose(x)
        try:
            got = canonicalize(Product(T(kappa), x))
        except StuckError:
            got = None
        want = None
        if d is not None:
            left, right = cf_to_term(d.left), cf_to_term(d.right)
            junction = canonicalize(Sum(right, left))
            if not junction.components or junction in d.blocks:
                dense = Shuffle(tuple(map(cf_to_term, d.blocks)))
                want = canonicalize({"N": Sum(left, dense), "N~": Sum(dense, right), "Z": dense}[kappa])
        if got != want:
            violations.append(f"{kappa}*({text}) gives {got}, not {want}")
    assert not violations, violations
