import hashlib
import random

import pytest
from hypothesis import given

from conftest import GOLDEN, T, term_strategy
from ordercalc import (
    Empty,
    Finite,
    Omega,
    OmegaStar,
    ParseError,
    Product,
    Reverse,
    Shuffle,
    Single,
    SourceSpan,
    Sum,
    ValidationError,
    Zeta,
    ast_repr,
    canonicalize,
    desugar,
    parse,
    print_term,
    to_dot,
)
from ordercalc.textio import MAX_DEPTH


def test_parse_sum_of_shuffle():
    assert parse("Z + Q[Z]") == Sum(Zeta(), Shuffle((Zeta(),)))


def test_parse_nested_shuffle():
    expected = Shuffle((Omega(), Sum(Zeta(), Shuffle((Omega(), Zeta())))))
    assert parse("Q[N, Z + Q[N, Z]]") == expected


def test_parse_error_span():
    with pytest.raises(ParseError) as exc:
        parse("2 + + 3")
    assert exc.value.span.start == 4
    assert exc.value.span.end <= 7


@pytest.mark.parametrize(
    "text", ["", "Q[", "Q[]", "(N", "N )", "2 +", "* Z", "N~*", "Q[Z,]", "x", "N Z"]
)
def test_parse_error_spans_lie_within_input(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    span = exc.value.span
    assert 0 <= span.start <= span.end <= len(text)


def test_parse_precedence_and_reversal():
    assert parse("N~") == Reverse(Omega())
    assert parse("2*Z + 1") == Sum(Product(Finite(2), Zeta()), Single())
    assert parse("2*(Z + 1)") == Product(Finite(2), Sum(Zeta(), Single()))
    assert parse("N~~") == Reverse(Reverse(Omega()))
    assert parse("Q") == Shuffle((Single(),))
    assert parse("0") == Empty()
    assert parse("1") == Single()


def test_parse_rejects_huge_literal():
    with pytest.raises(ParseError):
        parse(str(2**31))
    assert parse(str(2**31 - 1)) == Finite(2**31 - 1)


BRACKETS = {"parentheses": ("(", ")"), "shuffles": ("Q[", "]")}


def _nested(levels, brackets):
    opening, closing = BRACKETS[brackets]
    return opening * levels + "1" + closing * levels


@pytest.mark.parametrize("brackets", BRACKETS)
def test_parse_accepts_nesting_up_to_the_limit(brackets):
    t = parse(_nested(MAX_DEPTH, brackets))
    depth = 0
    while isinstance(t, Shuffle):
        t, depth = t.blocks[0], depth + 1
    assert t == Single()
    assert depth == (MAX_DEPTH if brackets == "shuffles" else 0)


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 2000])
@pytest.mark.parametrize("brackets", BRACKETS)
def test_parse_rejects_nesting_past_the_limit(brackets, levels):
    with pytest.raises(ParseError) as exc:
        parse(_nested(levels, brackets))
    assert exc.value.message == f"nesting deeper than {MAX_DEPTH} levels"
    # The span is the bracket that opens level MAX_DEPTH + 1.
    width = len(BRACKETS[brackets][0])
    assert exc.value.span == SourceSpan(MAX_DEPTH * width, MAX_DEPTH * width + 1)


def test_parse_forwards_validation():
    with pytest.raises(ValidationError):
        parse("Q[0]")


@pytest.mark.parametrize(
    "term, text",
    [
        (Sum(Omega(), Shuffle((Zeta(),))), "N + Q[Z]"),
        (Reverse(Omega()), "N~"),
        (Product(Finite(2), Zeta()), "2*Z"),
        (OmegaStar(), "N~"),
        (Sum(Zeta(), Sum(Omega(), Zeta())), "Z + (N + Z)"),
        (Sum(Sum(Zeta(), Omega()), Zeta()), "Z + N + Z"),
        (Product(Sum(Single(), Shuffle((Single(),))), Zeta()), "(1 + Q)*Z"),
        (Reverse(Sum(Omega(), Zeta())), "(N + Z)~"),
        (Shuffle((Single(),)), "Q"),
        (Shuffle((Omega(), Zeta())), "Q[N,Z]"),
    ],
)
def test_print(term, text):
    assert print_term(term) == text


def _has_omega_star(t):
    match t:
        case OmegaStar():
            return True
        case Sum(parts) | Product(parts):
            return any(map(_has_omega_star, parts))
        case Shuffle(blocks):
            return any(_has_omega_star(b) for b in blocks)
        case Reverse(body):
            return _has_omega_star(body)
        case _:
            return False


@given(term_strategy())
def test_round_trip(t):
    # "N~" is the only spelling of both the N* atom and Reverse(N), so
    # the round trip is exact unless the raw N* atom occurs; either way
    # both sides desugar identically.
    back = parse(print_term(t))
    if not _has_omega_star(t):
        assert back == t
    assert desugar(back) == desugar(t)


def test_print_stability_on_corpus():
    for s in GOLDEN:
        once = print_term(parse(s))
        assert print_term(parse(once)) == once


def test_dot_single_shuffle():
    dot = to_dot(canonicalize(T("Q[Z]")))
    assert dot.startswith("digraph")
    assert dot.count("label=") == 2
    assert dot.count("->") == 1
    assert "style=dashed" in dot
    assert '"Z"' in dot


def test_dot_chain_with_fan_out():
    dot = to_dot(canonicalize(T("N + Q[Z]")))
    assert dot.count("label=") == 3
    assert dot.count("->") == 2
    assert '"N"' in dot and '"Z"' in dot


def test_dot_trivial_shuffle():
    dot = to_dot(canonicalize(T("Q")))
    assert dot.count("label=") == 2
    assert '"1"' in dot
    assert "Q[1]" in dot


def _random_text(rng, depth):
    # A well-formed expression with random spacing, 0 and leading zeros.
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(["0", "1", "2", "7", "007", "2147483647", "N", "Z", "Q"])
    sub = lambda: _random_text(rng, depth - 1)  # noqa: E731
    sp = rng.choice(["", " ", "  "])
    if r < 0.45:
        return f"{sub()}{sp}+{sp}{sub()}"
    if r < 0.6:
        return f"{sub()}{sp}*{sp}{sub()}"
    if r < 0.7:
        return f"({sub()}){'~' * rng.randint(1, 3)}"
    if r < 0.8:
        return f"({sub()})"
    return "Q[" + f",{sp}".join(sub() for _ in range(rng.randint(1, 3))) + "]"


_GRAMMAR = "+*~()[],0123456789NZQ "
_FOREIGN = ["٣", "²", "①", " ", " ", "　", "\t", "\n", "\x1c", "x", "q", "é"]


def _mutated(rng, text):
    # One to three edits: a grammar character, a foreign digit or space,
    # a 5000-digit literal, or nesting to exactly 50 or 51 levels.
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        r = rng.random()
        if r < 0.3:
            text = text[:i] + rng.choice(_GRAMMAR) + text[i:]
        elif r < 0.45 and text:
            text = text[:i] + text[i + 1:]
        elif r < 0.6 and text:
            text = text[:i] + rng.choice(_GRAMMAR) + text[i + 1:]
        elif r < 0.75:
            text = text[:i] + rng.choice(_FOREIGN) + text[i:]
        elif r < 0.8:
            text = text[:i] + rng.choice(["1" * 5000, "0" * 4995 + "12345"]) + text[i:]
        elif r < 0.9:
            k = rng.choice([MAX_DEPTH, MAX_DEPTH + 1])
            opener, closer = rng.choice([("(", ")"), ("Q[", "]")])
            text = opener * k + text + closer * k
        else:
            text = text[:i] + rng.choice(["0", "Q[0]", ", 0", "Q[1, 0]"]) + text[i:]
    return text


def _parse_outcome(text):
    try:
        return ast_repr(parse(text))
    except ParseError as e:
        return ("ParseError", e.message, e.span.start, e.span.end, str(e))
    except ValidationError as e:
        return ("ValidationError", e.kind, str(e), ast_repr(e.subterm))


def test_parse_outcomes_on_mutated_texts_are_pinned():
    # 5,200 seeded texts, each a generated expression with one to three
    # edits: the tree parsed, or the error's class, message, span and
    # offending subterm, in one digest.
    rng = random.Random(24)
    h = hashlib.sha256()
    for _ in range(5200):
        text = _random_text(rng, rng.randint(0, 4))
        if rng.random() < 0.9:
            text = _mutated(rng, text)
        h.update(repr(_parse_outcome(text)).encode() + b"\n")
    assert h.hexdigest() == "130fcd1f96625d2d9944401fc73f7ce0d61265502b0f05efe0cd8f79988d1635"


@pytest.mark.parametrize("text, offender", [
    ("Q[0, Q[0]]", "Q[0,Q[0]]"), ("Q[Q[0], 0]", "Q[0]"), ("Q[1, 0] + Q[0]", "Q[1,0]"),
])
def test_validation_reports_the_first_shuffle_in_pre_order(text, offender):
    # The outer shuffle when its empty block comes before the inner one.
    with pytest.raises(ValidationError) as exc:
        parse(text)
    assert exc.value.kind == "EmptyShuffleBlock"
    assert print_term(exc.value.subterm) == offender
