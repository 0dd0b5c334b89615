from hypothesis import given, seed, settings

from conftest import GOLDEN, T, term_strategy
from ordercalc import (
    DenseClass,
    Product,
    Reverse,
    Single,
    StructProfile,
    desugar,
    enumerate_points,
    point_profile,
    profile,
)
from ordercalc.profiles import _product_profile, _sum_profile


def test_dense_with_both_endpoints():
    p = profile(T("1 + Q + 1"))
    assert p.dense_class is DenseClass.ONE_Q_ONE
    assert p.has_left_endpoint and p.has_right_endpoint
    assert p.succ_pair_free


def test_two_sided_completion():
    p = profile(T("N + Q[Z] + N~"))
    assert p.has_left_endpoint and p.has_right_endpoint
    assert p.succ_complete and p.pred_complete
    assert not p.succ_pair_free
    assert p.dense_class is None


def test_mixed_shuffle_against_sampled_points():
    # Independent point-level oracle: every sampled point of Q[N,Z] has
    # a successor, and some sampled copy-minimum has no predecessor.
    t = T("Q[N,Z]")
    pts = enumerate_points(t, 500)
    facts = [point_profile(t, c) for c in pts]
    assert all(f.has_successor for f in facts)
    assert any(not f.has_predecessor for f in facts)
    assert not any(f.is_min or f.is_max for f in facts)

    p = profile(t)
    assert not p.has_left_endpoint and not p.has_right_endpoint
    assert p.succ_complete
    assert not p.pred_complete


def test_dense_classes_of_the_four():
    assert profile(T("Q")).dense_class is DenseClass.Q
    assert profile(T("1 + Q")).dense_class is DenseClass.ONE_Q
    assert profile(T("Q + 1")).dense_class is DenseClass.Q_ONE
    assert profile(T("1 + Q + 1")).dense_class is DenseClass.ONE_Q_ONE


def test_sizes():
    assert profile(T("0")).size == 0
    assert profile(T("1")).size == 1
    assert profile(T("3 + 2")).size == 5
    assert profile(T("3*4")).size == 12
    assert profile(T("N")).size is None
    assert profile(T("3*N")).size is None


def test_empty_profile():
    p = profile(T("0"))
    assert p.is_empty
    assert not p.has_left_endpoint and not p.has_right_endpoint


@given(term_strategy())
def test_product_with_unit_fiber_is_identity(t):
    assert profile(Product(t, Single())) == profile(t)


@given(term_strategy())
def test_product_with_unit_index_is_identity(t):
    # Regression: the copy-boundary conditions are vacuous for a
    # singleton index, so 1*Y must profile exactly like Y.
    assert profile(Product(Single(), t)) == profile(t)


def test_unit_index_examples():
    assert profile(T("1*N")).pred_complete
    assert profile(T("1*N~")).succ_complete


def _mirror(p: StructProfile) -> StructProfile:
    flipped = {
        DenseClass.ONE_Q: DenseClass.Q_ONE,
        DenseClass.Q_ONE: DenseClass.ONE_Q,
        DenseClass.Q: DenseClass.Q,
        DenseClass.ONE_Q_ONE: DenseClass.ONE_Q_ONE,
        None: None,
    }
    return StructProfile(
        p.is_empty,
        p.size,
        p.has_right_endpoint,
        p.has_left_endpoint,
        p.succ_pair_free,
        p.pred_complete,
        p.succ_complete,
        flipped[p.dense_class],
    )


@given(term_strategy())
def test_mirror_law(t):
    assert profile(desugar(Reverse(t))) == _mirror(profile(t))


@given(term_strategy(), term_strategy(), term_strategy())
def test_sum_profile_is_associative(a, b, c):
    # profile folds a sum's leaves left to right, whichever way it nests.
    pa, pb, pc = map(profile, (a, b, c))
    assert _sum_profile(_sum_profile(pa, pb), pc) == _sum_profile(pa, _sum_profile(pb, pc))


@given(term_strategy(), term_strategy(), term_strategy())
@settings(max_examples=300, deadline=None)
@seed(20230923)
def test_product_profile_is_associative(a, b, c):
    # profile folds a product's leaves left to right, whichever way it nests.
    pa, pb, pc = map(profile, (a, b, c))
    assert (_product_profile(_product_profile(pa, pb), pc)
            == _product_profile(pa, _product_profile(pb, pc)))


def test_corpus_profiles_have_no_endpoint_on_shuffle_side():
    for s in GOLDEN:
        p = profile(T(s))
        assert not p.is_empty
        assert p.size is None
