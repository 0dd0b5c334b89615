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
