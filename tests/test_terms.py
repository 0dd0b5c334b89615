import copy
import pickle
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import GOLDEN, T, term_strategy
from ordercalc import (
    Empty,
    Finite,
    Omega,
    OmegaStar,
    Product,
    Reverse,
    Shuffle,
    Single,
    Sum,
    ValidationError,
    Zeta,
    desugar,
    profile,
    validate,
)


def test_validate_ok():
    validate(Shuffle((Zeta(),)))


@pytest.mark.parametrize(
    "term, kind",
    [
        (Shuffle((Empty(),)), "EmptyShuffleBlock"),
        (Shuffle(()), "EmptyBlockList"),
        (Finite(1), "BadFinite"),
        (Finite(0), "BadFinite"),
        (Sum(Omega(), Shuffle((Empty(),))), "EmptyShuffleBlock"),
    ],
)
def test_validate_errors(term, kind):
    with pytest.raises(ValidationError) as exc:
        validate(term)
    assert exc.value.kind == kind


def test_desugar_pushes_reversal_down():
    t = Reverse(Sum(Omega(), Shuffle((Zeta(),))))
    assert desugar(t) == Sum(Shuffle((Zeta(),)), OmegaStar())


def test_desugar_involution():
    assert desugar(Reverse(Reverse(Zeta()))) == Zeta()


def test_desugar_empty_product():
    assert desugar(Product(Empty(), Omega())) == Empty()
    assert desugar(Product(Omega(), Empty())) == Empty()
    assert desugar(Sum(Empty(), Zeta())) == Zeta()


def test_desugar_drops_computed_empty_blocks():
    t = Shuffle((Product(Empty(), Omega()), Zeta()))
    assert desugar(t) == Shuffle((Zeta(),))
    assert desugar(Shuffle((Product(Empty(), Omega()),))) == Empty()


def test_reverse_of_atoms():
    assert desugar(Reverse(Omega())) == OmegaStar()
    assert desugar(Reverse(OmegaStar())) == Omega()
    assert desugar(Reverse(Zeta())) == Zeta()
    assert desugar(Reverse(Finite(3))) == Finite(3)


def test_reverse_of_product():
    t = Reverse(Product(Omega(), Zeta()))
    assert desugar(t) == Product(OmegaStar(), Zeta())


@given(term_strategy())
def test_desugar_idempotent(t):
    d = desugar(t)
    assert desugar(d) == d


@given(term_strategy())
def test_desugar_has_no_reverse_or_inner_empty(t):
    def scan(u, top):
        assert not isinstance(u, Reverse)
        if not top:
            assert u != Empty()
        match u:
            case Sum(parts) | Product(parts):
                for p in parts:
                    scan(p, False)
            case Shuffle(blocks):
                for b in blocks:
                    scan(b, False)

    scan(desugar(t), True)


def _nodes(t):
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        match u:
            case Sum(parts) | Product(parts):
                todo += parts
            case Shuffle(blocks):
                todo += blocks
            case Reverse(body):
                todo.append(body)


@pytest.mark.parametrize("text", [
    "1", "0", "N + Q[Z, 1 + N] + 3", "(1 + 2)*(1 + 2) + (1 + 2)", "Q[N*Z, 3] + Z*(2 + N)",
    " + ".join(["1"] * 3000),
], ids=lambda text: text if len(text) < 40 else "sum of 3000 ones")
def test_desugar_returns_a_plain_term_as_it_is(text):
    # The cache hands back the first of equal terms it saw, so the
    # identity holds for a term that no equal term came before.  Equal
    # subterms built apart, like the two 1 + 2 above, are distinct
    # objects; only a walk over the whole term tells that none changes.
    desugar.cache_clear()
    t = T(text)
    assert desugar(t) is t
    assert desugar(t) is t


def test_desugar_returns_a_sum_of_atoms_seen_before_as_it_is():
    desugar.cache_clear()
    desugar(Single())
    t = Sum(Single(), Sum(Omega(), Single()))
    assert desugar(t) is t


@given(term_strategy())
def test_desugar_returns_every_term_without_reverse_as_it_is(t):
    # Generated terms hold no Empty, so Reverse is all there is to remove.
    if not any(isinstance(u, Reverse) for u in _nodes(t)):
        assert desugar(t) == t
        desugar.cache_clear()
        assert desugar(t) is t


@pytest.mark.parametrize("t, expected", [
    (Reverse(Omega()), OmegaStar()),
    (Sum(Single(), Product(Finite(2), Reverse(Omega()))),
     Sum(Single(), Product(Finite(2), OmegaStar()))),
    (Shuffle((Zeta(), Reverse(Sum(Omega(), Single())))),
     Shuffle((Zeta(), Sum(Single(), OmegaStar())))),
    (Sum(Empty(), Zeta()), Zeta()),
    (Sum(Omega(), Sum(Empty(), Single())), Sum(Omega(), Single())),
    (Product(Omega(), Empty()), Empty()),
    (Shuffle((Zeta(), Product(Empty(), Omega()))), Shuffle((Zeta(),))),
])
def test_desugar_rebuilds_terms_with_reverse_or_inner_empty(t, expected):
    assert desugar(t) == expected
    assert desugar(t) is not t


def test_golden_corpus_validates():
    for s in GOLDEN:
        validate(T(s))


# --- nodes: immutable, slotted, hashed once at construction ---


def _rebuild(t):
    # A copy of t made node by node through the constructors.
    match t:
        case Sum(parts):
            return Sum(*map(_rebuild, parts))
        case Product(parts):
            return Product(*map(_rebuild, parts))
        case Shuffle(blocks):
            return Shuffle([_rebuild(b) for b in blocks])
        case Reverse(body):
            return Reverse(_rebuild(body))
        case Finite(n):
            return Finite(n)
    return type(t)()


@given(term_strategy())
def test_equal_terms_built_apart_hash_equal(t):
    u = _rebuild(t)
    assert u is not t
    assert u == t and hash(u) == hash(t)
    assert hash(desugar(Reverse(Reverse(u)))) == hash(desugar(t))


def test_terms_built_in_different_ways_hash_equal():
    pairs = [
        (T("N + Z*2"), Sum(Omega(), Product(Zeta(), Finite(2)))),
        (Shuffle([Single(), Zeta()]), Shuffle((Single(), Zeta()))),
        (desugar(T("(N + 1)~")), Sum(Single(), OmegaStar())),
        (desugar(T("0 + Q + 0*N")), Shuffle((Single(),))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "a, b",
    [
        (Omega(), Zeta()),
        (Omega(), OmegaStar()),
        (Empty(), Single()),
        (Sum(Omega(), Zeta()), Product(Omega(), Zeta())),
        (Sum(Single(), Single()), Finite(2)),
        (Reverse(Omega()), Shuffle((Omega(),))),
    ],
)
def test_nodes_of_different_classes_hash_apart(a, b):
    assert a != b
    assert hash(a) != hash(b)


def _left_sum(n: int):
    t = Single()
    for _ in range(n - 1):
        t = Sum(t, Single())
    return t


def test_long_sum_spine_hashes_and_walks_without_recursion():
    # A sum of 5000 terms is one node: hashing reads stored values, and
    # no walk recurses once per summand.
    t = Sum(*[Single()] * 5000)
    assert hash(t) == hash(Sum(*[Single()] * 5000))
    assert len(t.parts) == 5000
    validate(t)
    d = desugar(t)
    assert hash(d) == hash(t) and d.parts == t.parts
    assert profile(t).size == 5000
    # Adding one summand at a time splices each sum into the next.
    assert _left_sum(300) == Sum(*[Single()] * 300)


def test_a_sum_holds_its_parts_flat():
    parts = (Single(), Omega(), Sum(Zeta(), Finite(2)))
    assert T("1 + N + (Z + 2)").parts == parts
    assert T("(1 + N) + (Z + 2)").parts == parts
    assert T("2*(N*Z)*(1*Q)").parts == (Finite(2), Product(Omega(), Zeta()),
                                        Product(Single(), Shuffle((Single(),))))
    with pytest.raises(TypeError):
        Sum(Single())


def test_sum_splices_a_first_sum_and_keeps_later_ones():
    t = Sum(Sum(Single(), Sum(Omega(), Zeta())), Sum(Finite(2), OmegaStar()))
    assert t.parts == (Single(), Sum(Omega(), Zeta()), Sum(Finite(2), OmegaStar()))
    assert Product(Product(Omega(), Zeta()), Single()) == Product(Omega(), Zeta(), Single())
    assert Product(Omega(), Product(Zeta(), Single())).parts[1] == Product(Zeta(), Single())


def _reverse_recursively(t):
    match t:
        case Omega():
            return OmegaStar()
        case OmegaStar():
            return Omega()
        case Sum(parts):
            return Sum(*map(_reverse_recursively, reversed(parts)))
        case Product(parts):
            return Product(*map(_reverse_recursively, parts))
        case Shuffle(blocks):
            return Shuffle(tuple(map(_reverse_recursively, blocks)))
    return t


def _desugar_recursively(t):
    # desugar as one recursive call per node and per pair of reversals:
    # the definition that desugar follows, with runs of ~ walked as loops.
    # The mirror splices a first part that is a sum, so only a pair of ~
    # gives back the tree it started from.
    match t:
        case Reverse(Reverse(body)):
            return _desugar_recursively(body)
        case Reverse(body):
            return _reverse_recursively(_desugar_recursively(body))
        case Sum(parts):
            kept = [p for p in map(_desugar_recursively, parts) if p != Empty()]
            return Sum(*kept) if len(kept) > 1 else (kept or [Empty()])[0]
        case Product(parts):
            parts = [*map(_desugar_recursively, parts)]
            return Empty() if Empty() in parts else Product(*parts)
        case Shuffle(blocks):
            kept = tuple(b for b in map(_desugar_recursively, blocks) if b != Empty())
            return Shuffle(kept) if kept else Empty()
    return t


def _reversed(t, times):
    for _ in range(times):
        t = Reverse(t)
    return t


_WITH_EMPTY = st.one_of(term_strategy(), st.just(Empty()),
                        term_strategy().map(lambda t: Sum(t, Empty())))


@given(st.tuples(_WITH_EMPTY, _WITH_EMPTY, st.integers(0, 5)))
def test_desugar_gives_the_tree_of_its_recursive_definition(args):
    a, b, times = args
    for t in (_reversed(Sum(a, b), times), Sum(_reversed(a, times), b),
              Product(_reversed(a, times), _reversed(b, times + 1))):
        assert desugar(t) == _desugar_recursively(t)


def test_long_reversed_sums_and_reversal_chains_desugar_without_recursion():
    desugar.cache_clear()
    t = Sum(*[Single()] * 5000)
    mirrored = desugar(Reverse(t))
    assert mirrored.parts == (Single(),) * 5000  # the mirror of a sum is one node too
    # Sum(t, N) splices t; its mirror, N~ + 1 + ... + 1, is spliced into
    # the outer sum, whose mirror is one node again.
    twice = desugar(Reverse(Sum(Reverse(Sum(t, Omega())), Zeta())))
    assert twice == Sum(Zeta(), *t.parts, Omega())
    assert hash(twice) == hash(Sum(Zeta(), *t.parts, Omega()))
    assert desugar(_reversed(Omega(), 5000)) == Omega()
    assert desugar(_reversed(Omega(), 5001)) == OmegaStar()
    assert desugar(_reversed(t, 5000)) is t  # nothing left to eliminate


def test_runs_of_tildes_built_apart_compare_without_recursion():
    run = "N" + "~" * 3000
    assert T(run) == T(run)
    assert T(run) != T(run + "~")
    assert T("(N + 1)~~") == T("(N + 1)~~") != T("(1 + N)~~")


def test_validate_reports_the_first_bad_summand():
    t = Sum(Sum(Finite(1), Shuffle(())), Finite(0))
    with pytest.raises(ValidationError) as exc:
        validate(t)
    assert exc.value.subterm == Finite(1)


def test_copy_and_pickle_keep_the_hash():
    t = T("N + Q[Z, 1 + N~] + 3*N")
    for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and hash(u) == hash(t)


@pytest.mark.parametrize(
    "t, field", [(Sum(Omega(), Zeta()), "left"), (Finite(3), "n"), (Zeta(), "_hash")]
)
def test_nodes_are_frozen(t, field):
    with pytest.raises(FrozenInstanceError):
        setattr(t, field, Single())
