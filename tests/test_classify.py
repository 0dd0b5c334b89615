import copy
import pickle
from dataclasses import FrozenInstanceError
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import A_TERMS, CLASSIFIED, GOLDEN, T, term_strategy
from ordercalc import (
    AbsorptionCase,
    CanonicalForm,
    NotSelfSimilar,
    SelfSimilarNotAbsorbing,
    Single,
    Spectrum,
    StuckError,
    Sum,
    UnsupportedError,
    absorbs,
    canonicalize,
    cf_to_term,
    classify_absorption,
    decompose,
    is_self_similar,
    is_square,
    parse,
    print_term,
    profile,
    spectrum_description,
    square_two_endpoints,
)
from ordercalc import classify


def absorption_case_predicates(t):
    """The eight case conditions, each evaluated on its own, so that the
    tests can check that exactly one of them holds."""
    d = classify.decompose(t)
    if d is None:
        return [False] * 8
    bits = classify._case_bits(d)
    return [row.bits == bits for row in classify._CASES.values()]


def _blocks(d):
    return sorted(print_term(cf_to_term(b)) for b in d.blocks)


def test_decompose_two_sided():
    d = decompose(T("N + Q[Z] + N~"))
    assert print_term(cf_to_term(d.left)) == "N"
    assert _blocks(d) == ["Z"]
    assert print_term(cf_to_term(d.right)) == "N~"


def test_decompose_wrong_shape():
    # Two distinct shuffle components survive: the junction Z is not a
    # block of the right-hand shuffle, so no merge applies.
    from ordercalc import Shuf, canonicalize

    cf = canonicalize(T("Q[Z] + Z + Q[N]"))
    assert len(cf.components) == 3
    assert sum(isinstance(c, Shuf) for c in cf.components) == 2
    assert decompose(T("Q[Z] + Z + Q[N]")) is None


def test_decompose_trivial_shuffle():
    d = decompose(T("Q"))
    assert not d.left.components and not d.right.components
    assert _blocks(d) == ["1"]


def test_decompose_unsupported_outside_tame_fragment():
    with pytest.raises(UnsupportedError):
        decompose(T("N*N + Q[Z]"))


@pytest.mark.parametrize(
    "src, expected",
    [
        ("N + Q[Z]", True),
        ("Q[N,Z]", True),
        ("1 + Q[Z]", False),
        ("Z", False),
        ("Q[Z] + Z + Q[N]", False),
    ],
)
def test_is_self_similar(src, expected):
    assert bool(is_self_similar(T(src))) is expected


def test_self_similar_reason_names_failing_side():
    verdict = is_self_similar(T("1 + Q[Z]"))
    assert not verdict
    assert "final segment" in verdict.reason
    verdict = is_self_similar(T("Q[Z] + 1"))
    assert "initial segment" in verdict.reason


CASES = {
    "Q[Z]": 1,
    "Z + Q[Z]": 2,
    "N + Q[Z,N]": 2,
    "Q[Z] + Z": 3,
    "Z + Q[Z] + Z": 4,
    "N + Q[Z] + N~": 5,
}


@pytest.mark.parametrize("src, case", CASES.items())
def test_classification_cases(src, case):
    verdict = classify_absorption(T(src))
    assert isinstance(verdict, AbsorptionCase)
    assert verdict.case == case


def test_self_similar_but_not_absorbing():
    verdict = classify_absorption(T("N + Q[Z]"))
    assert isinstance(verdict, SelfSimilarNotAbsorbing)
    assert bool(is_self_similar(T("N + Q[Z]")))


def test_not_self_similar_class():
    assert isinstance(classify_absorption(T("Z")), NotSelfSimilar)


def test_mixed_junction_case_six():
    verdict = classify_absorption(T("N + Q[Z,N] + N~"))
    assert isinstance(verdict, AbsorptionCase)
    assert verdict.case == 6


ABSORB_TRUE = [
    ("1+Q", "Z + Q[Z]"),
    ("Q", "Q[Z]"),
    ("2", "N + Q[Z] + N~"),
    ("1+Q+1", "Z + Q[Z] + Z"),
    ("N+N~", "N + Q[Z] + N~"),
    ("1", "N + Q[Z]"),
    # Cases 5-8 told apart: N+1 is absorbed by cases 6 and 8 only, 1+N~
    # by cases 7 and 8 only, 1+Q+1 by case 8 only.
    ("N+1", "N + Q[Z,N] + N~"),
    ("N+1", "N + Q[N,N~,Z] + N~"),
    ("1+N~", "N + Q[N~,Z] + N~"),
    ("1+N~", "N + Q[N,N~,Z] + N~"),
    ("1+Q+1", "N + Q[N,N~,Z] + N~"),
]

ABSORB_FALSE = [
    ("Q", "Z + Q[Z]"),
    ("2", "N + Q[Z]"),
    ("2", "Z + Q[Z] + Z"),
    ("1+Q+1", "N + Q[Z] + N~"),
    ("N+1", "N + Q[Z] + N~"),
    ("N+1", "N + Q[N~,Z] + N~"),
    ("1+N~", "N + Q[Z] + N~"),
    ("1+N~", "N + Q[Z,N] + N~"),
    ("1+Q+1", "N + Q[Z,N] + N~"),
    ("1+Q+1", "N + Q[N~,Z] + N~"),
]


@pytest.mark.parametrize("a, x", ABSORB_TRUE)
def test_absorbs_true(a, x):
    assert absorbs(T(a), T(x)) is True


@pytest.mark.parametrize("a, x", ABSORB_FALSE)
def test_absorbs_false(a, x):
    assert absorbs(T(a), T(x)) is False


def test_absorbs_empty_edge_cases():
    assert absorbs(T("0"), T("0")) is True
    assert absorbs(T("0"), T("Q")) is False
    assert absorbs(T("Q"), T("0")) is True
    assert absorbs(T("1"), T("Z")) is True


@pytest.mark.parametrize(
    "src, spectrum",
    [
        ("Q[Z]", Spectrum.ALL),
        ("Q[Z] + Z", Spectrum.HAS_RIGHT),
        ("Z + Q[Z]", Spectrum.HAS_LEFT),
        ("N + Q[Z]", Spectrum.TRIVIAL_ONLY),
        ("Z + Q[Z] + Z", Spectrum.EXACTLY_ONE_Q_ONE_OR_1),
        ("N + Q[Z] + N~", Spectrum.BOTH_ENDS_SUCC_PRED_COMPLETE),
        ("N + Q[Z,N] + N~", Spectrum.BOTH_ENDS_SUCC_COMPLETE),
        ("N + Q[N~,Z] + N~", Spectrum.BOTH_ENDS_PRED_COMPLETE),
        ("N + Q[N,N~,Z] + N~", Spectrum.BOTH_ENDS),
        ("Z", Spectrum.TRIVIAL_ONLY),
    ],
)
def test_spectrum(src, spectrum):
    assert spectrum_description(T(src)) is spectrum


@pytest.mark.parametrize(
    "src, expected",
    [
        ("Q", True),
        ("Q[Z]", True),
        ("1 + Q + 1", True),
        ("N + Q[Z] + N~", True),
        ("N + Q[Z]", False),
        ("Z", False),
        ("0", True),
        ("1", True),
    ],
)
def test_is_square(src, expected):
    assert is_square(T(src)) is expected


@pytest.mark.parametrize(
    "src, expected",
    [
        ("1 + Q + 1", True),
        ("N + Q[Z] + N~", True),
        ("1 + Q[Z] + 1", False),
        ("3", False),
        ("1", True),
        ("N + Q[Z,N] + N~", True),
        ("N + Q[N] + 1", True),
        ("1 + Q[N~] + N~", True),
        ("1 + Q[1,2] + 1", True),
        ("1 + Q[1, 2, Z] + 1", True),
        ("N + Q[N, Z+1] + 1", False),
        ("1 + Q[N~, 1+Z] + N~", False),
        ("N + Q[Z, 1+Z] + N~", False),
        ("Z", None),
        ("Q", None),
    ],
)
def test_square_two_endpoints(src, expected):
    assert square_two_endpoints(T(src)) is expected


BOTH_ENDPOINT_TERMS = [
    "1",
    "2",
    "3",
    "1 + Q + 1",
    "N + Q[Z] + N~",
    "1 + Q[Z] + 1",
    "N + Q[Z,N] + N~",
    "N + N~",
    "1 + Q[Z] + Z",
    "Z + Q[Z] + Z + 1",
]


def test_square_checkers_agree():
    for s in BOTH_ENDPOINT_TERMS + [t for t in GOLDEN]:
        t = T(s)
        p = profile(t)
        if not (p.has_left_endpoint and p.has_right_endpoint):
            continue
        try:
            assert square_two_endpoints(t) is is_square(t), s
        except UnsupportedError:
            pass


def test_case_predicates_mutually_exclusive():
    for s in GOLDEN + BOTH_ENDPOINT_TERMS:
        try:
            predicates = absorption_case_predicates(T(s))
        except UnsupportedError:
            continue
        assert sum(predicates) <= 1, s
        verdict = classify_absorption(T(s))
        if isinstance(verdict, AbsorptionCase):
            assert predicates[verdict.case - 1], s
            assert sum(predicates) == 1, s


def test_absorbing_implies_self_similar():
    for s in GOLDEN:
        if isinstance(classify_absorption(T(s)), AbsorptionCase):
            assert bool(is_self_similar(T(s))), s


def test_closed_interval_closure():
    # If X absorbs A then X absorbs every closed interval of A.
    cases = [
        # (absorbed term, a closed interval of it, the absorbing X)
        ("N+N~", "5", "N + Q[Z] + N~"),
        ("N+N~", "N+N~", "N + Q[Z] + N~"),
        ("1+Q", "1+Q+1", "Z + Q[Z]"),
        ("1+Q+1", "1+Q+1", "Z + Q[Z] + Z"),
        ("Z", "7", "Q[Z]"),
    ]
    for a, interval, x in cases:
        assert absorbs(T(a), T(x)) is True, (a, x)
        assert absorbs(T(interval), T(x)) is True, (interval, x)


def test_absorption_laws_smoke():
    xs = [T(s) for s in CLASSIFIED]
    asmall = [T(s) for s in A_TERMS[:5]]
    for x in xs:
        assert absorbs(T("1"), x)
        for a in asmall:
            for b in asmall:
                if absorbs(a, x) and absorbs(b, x):
                    from ordercalc import Product

                    assert absorbs(Product(a, b), x)
                lhs = absorbs(Sum(Sum(a, Single()), b), x)
                rhs = absorbs(Sum(a, Single()), x) and absorbs(Sum(Single(), b), x)
                assert lhs == rhs


# --- verdicts kept on the canonical form ---

ENTRY_POINTS = [decompose, is_self_similar, classify_absorption, spectrum_description,
                is_square, square_two_endpoints, absorption_case_predicates,
                *(partial(absorbs, T(a)) for a in A_TERMS)]


def _answers(t, entry_points=ENTRY_POINTS):
    """Each entry point's answer on t, or the type of what it raises."""
    out = []
    for f in entry_points:
        try:
            out.append(f(t))
        except (UnsupportedError, StuckError) as e:
            out.append(type(e))
    return out


def _answers_through(form, t, entry_points=ENTRY_POINTS):
    """The answers on t when its canonical form is the object `form`."""
    with mock.patch.object(classify, "canonicalize", lambda _: form):
        return _answers(t, entry_points)


def _check_filled_slot_against_fresh_forms(t):
    try:
        cf = canonicalize(t)
    except StuckError:
        return
    filled = _answers(t)
    assert (cf.classification is not None) is cf.tame
    assert _answers(t) == filled
    # Each entry point asked first, on a form of its own whose slot is
    # empty, computes its answer instead of reading one.
    fresh = [_answers_through(CanonicalForm(cf.components), t, [f])[0] for f in ENTRY_POINTS]
    assert filled == fresh


@pytest.mark.parametrize("src", GOLDEN + BOTH_ENDPOINT_TERMS + [*CASES, "N*N + Q[Z]"])
def test_a_filled_slot_answers_like_a_fresh_form(src):
    _check_filled_slot_against_fresh_forms(T(src))


@given(term_strategy())
@settings(max_examples=80, deadline=None)
def test_a_filled_slot_answers_like_a_fresh_form_on_generated_terms(t):
    _check_filled_slot_against_fresh_forms(t)


@pytest.mark.parametrize("src", GOLDEN)
def test_a_second_call_returns_the_kept_object(src):
    t = T(src)
    for f in (decompose, is_self_similar, classify_absorption):
        assert f(t) is f(t)
    cf = canonicalize(t)
    assert cf.classification == (is_self_similar(t), classify_absorption(t))


@pytest.mark.parametrize("src", GOLDEN)
def test_copies_of_a_form_start_with_an_empty_slot(src):
    t = T(src)
    cf = canonicalize(t)
    answers = _answers(t)
    assert cf.classification is not None
    for u in (copy.copy(cf), copy.deepcopy(cf), pickle.loads(pickle.dumps(cf))):
        assert u.classification is None
        assert _answers_through(u, t) == answers
        assert u.classification == cf.classification


@pytest.mark.parametrize("src", GOLDEN)
def test_filling_the_slot_leaves_equality_hash_and_repr(src):
    t = T(src)
    cf = canonicalize(t)
    fresh = CanonicalForm(cf.components)
    before = (hash(fresh), repr(fresh))
    _answers_through(fresh, t)
    assert fresh.classification is not None
    assert fresh == cf == CanonicalForm(cf.components)
    assert (hash(fresh), repr(fresh)) == before
    assert "classification" not in repr(fresh)
    with pytest.raises(FrozenInstanceError):
        fresh.classification = None


def test_absorbs_of_a_long_sum_twice_in_one_process():
    # The second sum, parsed apart, meets the first in the desugar cache;
    # a sum is one node, so == compares its parts without recursing once
    # per summand.
    text = " + ".join(["1"] * 3000)
    assert absorbs(parse("2"), parse(text)) is False
    assert absorbs(parse("2"), parse(text)) is False
