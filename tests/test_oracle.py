import hashlib
import itertools
import pickle
import random
from functools import cmp_to_key

import pytest
from hypothesis import example, given, seed, settings

from conftest import GOLDEN, T, dense_term, term_strategy, with_budget
from ordercalc import oracle
from ordercalc import (
    Finite,
    InvalidCodeError,
    MatchFailure,
    Omega,
    OmegaStar,
    PartialIso,
    Product,
    Reverse,
    Shuffle,
    Single,
    Sum,
    Zeta,
    back_and_forth,
    between,
    compare,
    cross_check,
    desugar,
    enumerate_points,
    point_profile,
    profile,
)


def test_compare_examples():
    assert compare(T("Q"), ("L", 0), ("", 0)) == -1
    assert compare(T("Z"), -3, 5) == -1
    assert compare(T("N~"), 7, 2) == -1
    assert compare(T("N"), 2, 7) == -1
    assert compare(T("Q"), ("", 0), ("", 0)) == 0


def test_compare_rejects_bad_codes():
    with pytest.raises(InvalidCodeError):
        compare(T("2"), 0, 5)
    with pytest.raises(InvalidCodeError):
        compare(T("Q"), ("X", 0), ("", 0))


@pytest.mark.parametrize("src, code", [
    ("N + N", (2, 0)), ("N + N", (0.0, 0)), ("N + N", (0, -1)), ("N*2", (0, 2)),
    ("N*2", (-1, 0)), ("Q[N,Z]", ("", -1)), ("Q", ("", 0, 0)), ("Q", "L"), ("Q", (None, 0)),
    ("1", 0.0), ("1 + N", (0, 0.0)), ("N", True), ("N + N", (True, 0)),
])
def test_composite_codes_are_checked(src, code):
    # A composite code is an (index, code in that copy) pair, and both
    # parts are checked; a sum's index is an integer like any code of 2,
    # and so is the one code of 1.
    with pytest.raises(InvalidCodeError):
        compare(T(src), code, code)


def test_point_profile_examples():
    t = T("N + Q[Z]")
    f = point_profile(t, (0, 5))
    assert f.has_successor and f.has_predecessor and not f.is_min
    assert point_profile(t, (0, 0)).is_min
    q = T("Q")
    f = point_profile(q, ("LR", 0))
    assert not f.has_successor and not f.has_predecessor


def test_point_profile_block_boundary():
    # Copy extrema inside a shuffle have no neighbour outside the copy.
    t = T("Q[N]")
    assert point_profile(t, ("", 0)).has_predecessor is False
    assert point_profile(t, ("", 0)).has_successor is True
    assert point_profile(t, ("", 0)).is_min is False


def test_compare_orders_positions_in_infix():
    q = T("Q")
    codes = [("".join(p), 0) for d in range(4) for p in itertools.product("LR", repeat=d)]
    ordered = sorted(codes, key=cmp_to_key(lambda a, b: compare(q, a, b)))
    assert [p for p, _ in ordered] == [
        "LLL", "LL", "LLR", "L", "LRL", "LR", "LRR", "",
        "RLL", "RL", "RLR", "R", "RRL", "RR", "RRR",
    ]


def test_between_examples():
    assert between(T("Q"), ("L", 0), ("", 0)) == ("LR", 0)
    assert between(T("Z"), 1, 2) is None
    assert between(T("Q[Z]"), ("L", 4), ("L", 9)) == ("L", 5)
    # lo's copy is tried before the index points between the copies,
    # so (1, 0), enumerated earlier, is not the choice.
    assert between(T("2*N"), (0, 3), (1, 2)) == (0, 4)


def test_between_across_sum():
    t = T("N + N~")
    assert between(t, (0, 3), (1, 3)) is not None
    t2 = T("2")
    assert between(t2, 0, 1) is None


def test_enumerate_examples():
    assert enumerate_points(T("Z"), 3) == [0, -1, 1]
    assert enumerate_points(T("2"), 5) == [0, 1]
    assert enumerate_points(T("Q"), 3) == [("", 0), ("L", 0), ("R", 0)]
    assert enumerate_points(T("0"), 4) == []


def test_enumerate_prefix_stable():
    for s in ("Z", "Q[Z]", "N + Q[Z] + N~"):
        t = T(s)
        assert enumerate_points(t, 50) == enumerate_points(t, 200)[:50]


def test_back_and_forth_collapse():
    result = back_and_forth(T("Q[1, 1+Q]"), T("Q"), 6)
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 6


def test_back_and_forth_failure_at_endpoint():
    # Round 1 maps the least point of Q onto the minimum of 1+Q; round 3
    # then picks a Q-point below every image and no image exists.
    result = back_and_forth(T("Q"), T("1 + Q"), 4)
    assert isinstance(result, MatchFailure)
    assert result.round == 3


def test_back_and_forth_single_round():
    result = back_and_forth(T("Q"), T("Q"), 1)
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 1


def test_back_and_forth_finite_exhaustion():
    result = back_and_forth(T("2"), T("2"), 10)
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 2


@pytest.mark.parametrize("x, y, failed_round", [
    ("2", "3", 3), ("3", "2", 3), ("0", "1", 1), ("1", "0", 1), ("1", "2", 2), ("2", "1", 2),
])
def test_back_and_forth_finite_sizes_differ(x, y, failed_round):
    # Once the smaller order has no unmatched point left, the rounds
    # draw from the larger one, so both argument orders fail alike.
    result = back_and_forth(T(x), T(y), 10)
    assert result == MatchFailure(failed_round, "no order-consistent image exists")


def _check_partial_iso(x, y, pairs):
    for a, b in pairs:
        for a2, b2 in pairs:
            assert compare(x, a, a2) == compare(y, b, b2)


def test_partial_iso_is_order_preserving():
    # Between dense realizations the construction always extends; for
    # non-dense inputs a bounded greedy failure is a legitimate verdict,
    # but any pairs returned must still form a partial isomorphism.
    x, y = T("Q[1, 1+Q]"), T("Q")
    result = back_and_forth(x, y, 8)
    assert isinstance(result, PartialIso)
    _check_partial_iso(x, y, result.pairs)
    x2 = y2 = T("Z + Q[Z]")
    result = back_and_forth(x2, y2, 6)
    assert isinstance(result, PartialIso)
    _check_partial_iso(x2, y2, result.pairs)


def test_colored_back_and_forth_respects_blocks():
    x, y = T("Q[N,Z]"), T("Q[Z,N]")
    result = back_and_forth(x, y, 8, block_map={0: 1, 1: 0})
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 8
    _check_partial_iso(x, y, result.pairs)
    for (pos_x, _), (pos_y, _) in result.pairs:
        assert {0: 1, 1: 0}[len(pos_x) % 2] == len(pos_y) % 2


@pytest.mark.parametrize("reverse", [False, True])
def test_colored_back_and_forth_on_more_than_64_blocks(reverse):
    # A copy of block i lies at the depths i mod 70, so the depths a
    # mapped copy needs can pass 64.
    x = T("Q[" + ",".join(["1"] * 70) + "]")
    block_map = {i: 69 - i if reverse else i for i in range(70)}
    result = back_and_forth(x, x, 12, block_map=block_map)
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 12
    _check_partial_iso(x, x, result.pairs)
    for (pos_x, _), (pos_y, _) in result.pairs:
        assert block_map[len(pos_x) % 70] == len(pos_y) % 70


def test_colored_back_and_forth_transcript_is_pinned():
    result = back_and_forth(T("Q[N,Z]"), T("Q[Z,N]"), 12, block_map={0: 1, 1: 0})
    assert result.pairs == (
        (("", 0), ("L", 0)), (("R", 0), ("", 0)), (("", 1), ("L", 1)),
        (("R", -1), ("", -1)), (("L", 0), ("LL", 0)), (("R", 1), ("", 1)),
        (("", 2), ("L", 2)), (("RR", 0), ("R", 0)), (("L", -1), ("LL", -1)),
        (("R", -2), ("", -2)), (("L", 1), ("LL", 1)), (("R", 2), ("", 2)),
    )


@pytest.mark.parametrize(
    "x, y, rounds, block_map, digest",
    [
        ("Q[1,1+Q]", "Q", 256, None,
         "974728239099fae86b37308f262ac342f76e9796466e4158d7fa4ff1d493091c"),
        ("Q[N,Z]", "Q[Z,N]", 64, {0: 1, 1: 0},
         "38d323403c5b080b17c733f69a305e3a942bd60c924c774a0f9898af71f17c55"),
        ("Q*(1+Q)", "Q + Q", 128, None,
         "6988ece3971b5dd40cbf23d990154f7ff2874220cdd9853fb83dcbbdc3ace8e2"),
        ("2*Q", "Q*(1+Q+1)", 128, None,
         "545726e4fc15d3eabfa220662ddae4212c87116ef7a13a72a606ed5c6812cac2"),
        ("(1+Q)*Q", "Q*Q", 128, None,
         "2e14887c4b56272ccd48113b48604974986d8856c5b0d70d7484fbcaebbe259a"),
    ],
    ids=["plain", "coloured", "product-sum", "finite-product", "product-product"],
)
def test_long_transcripts_are_pinned(x, y, rounds, block_map, digest):
    result = back_and_forth(T(x), T(y), rounds, block_map=block_map)
    assert len(result.pairs) == rounds
    assert hashlib.sha256(repr(result.pairs).encode()).hexdigest() == digest


def test_coloured_matching_of_4096_rounds_stays_within_a_call_budget():
    # Each copy position is computed, not found among the 2^d positions of
    # its depth d, so the cost grows about linearly in rounds: near 81
    # thousand Python calls here, against 3.5 million for a scan.  The
    # digest was taken from the scan.
    result = with_budget(400_000, back_and_forth, T("Q[1,2]"), T("Q[2,1]"), 4096, {0: 1, 1: 0})
    assert isinstance(result, PartialIso) and len(result.pairs) == 4096
    assert hashlib.sha256(repr(result.pairs).encode()).hexdigest() == (
        "e49919b3b87c5b9af9ac1cac6f5db20c0b63e9790ae95dd7ab88e4ff758a9e0e")


def test_colored_identity_shuffle():
    x = T("Q[Z]")
    result = back_and_forth(x, x, 10, block_map={0: 0})
    assert isinstance(result, PartialIso)
    assert len(result.pairs) == 10
    _check_partial_iso(x, x, result.pairs)


def test_cross_check_examples():
    r = cross_check(T("N + Q[Z]"), 200)
    assert not r.failed
    assert all(o.status != "witness_not_found" for o in r.outcomes)
    r = cross_check(T("Q"), 50)
    assert not r.failed
    r = cross_check(T("1 + Q + 1"), 50)
    assert not r.failed
    found = {o.predicate for o in r.outcomes if o.status == "witness_found"}
    assert {"left_endpoint", "right_endpoint"} <= found


def test_cross_check_report_shapes():
    r = cross_check(T("Q[Z]"), 60)
    text = r.to_text()
    assert text.startswith("check Q[Z] budget=60")
    assert "result: ok" in text
    doc = r.to_json_dict()
    assert set(doc) == {"term", "budget", "outcomes", "failed"}
    assert doc["failed"] is False
    assert all({"predicate", "status"} <= set(o) for o in doc["outcomes"])


@pytest.mark.parametrize("src, wrong, text", [
    ("1 + Q + 1", dict(has_left_endpoint=False, has_right_endpoint=False),
     "check 1 + Q + 1 budget=12 points=12\n"
     "  left_endpoint: counterexample (0, 0)\n"
     "  right_endpoint: counterexample (2, 0)\n"
     "  successor_pairs: consistent\n"
     "  density_between: consistent\n"
     "  successor_complete: witness_found (0, 0)\n"
     "  predecessor_complete: witness_found (1, ('', 0))\n"
     "  size: consistent\n"
     "result: FAILED\n"),
    ("Q", dict(has_left_endpoint=True, has_right_endpoint=True),
     "check Q budget=12 points=12\n"
     "  left_endpoint: witness_not_found\n"
     "  right_endpoint: witness_not_found\n"
     "  successor_pairs: consistent\n"
     "  density_between: consistent\n"
     "  successor_complete: witness_found ('', 0)\n"
     "  predecessor_complete: witness_found ('', 0)\n"
     "  size: consistent\n"
     "result: ok\n"),
    ("N", dict(succ_pair_free=True),
     "check N budget=12 points=12\n"
     "  left_endpoint: witness_found 0\n"
     "  right_endpoint: consistent\n"
     "  successor_pairs: counterexample 0\n"
     "  density_between: counterexample (0, 1)\n"
     "  successor_complete: consistent\n"
     "  predecessor_complete: consistent\n"
     "  size: consistent\n"
     "result: FAILED\n"),
    ("Q", dict(succ_complete=True, pred_complete=True),
     "check Q budget=12 points=12\n"
     "  left_endpoint: consistent\n"
     "  right_endpoint: consistent\n"
     "  successor_pairs: consistent\n"
     "  density_between: consistent\n"
     "  successor_complete: counterexample ('', 0)\n"
     "  predecessor_complete: counterexample ('', 0)\n"
     "  size: consistent\n"
     "result: FAILED\n"),
    ("Z", dict(succ_complete=False, pred_complete=False),
     "check Z budget=12 points=12\n"
     "  left_endpoint: consistent\n"
     "  right_endpoint: consistent\n"
     "  successor_pairs: witness_found 0\n"
     "  successor_complete: witness_not_found\n"
     "  predecessor_complete: witness_not_found\n"
     "  size: consistent\n"
     "result: ok\n"),
])
def test_cross_check_reports_a_wrong_profile(monkeypatch, src, wrong, text):
    # Only the checked term's own profile is wrong; its parts keep theirs.
    # (A wrong size on a finite term would stall the enumeration, which
    # reads the same profile, so size is left alone.)
    top = desugar(T(src))
    right = oracle.profile
    monkeypatch.setattr(oracle, "profile",
                        lambda u: type(p := right(u))(**{n: wrong.get(n, getattr(p, n)) for n in p.__match_args__}) if u == top else right(u))
    assert cross_check(T(src), 12).to_text() == text


def test_cross_check_reports_a_misplaced_endpoint(monkeypatch):
    # Point 1 of 3 claims to be both endpoints.
    right = oracle._Ints.facts
    monkeypatch.setattr(oracle._Ints, "facts", lambda self, c: (
        (True, True, *right(self, c)[2:]) if c == 1 else right(self, c)))
    assert cross_check(T("3"), 12).to_text() == (
        "check 3 budget=12 points=3\n"
        "  left_endpoint: witness_found 0\n"
        "  left_endpoint_position: counterexample [0, 1]\n"
        "  right_endpoint: witness_found 1\n"
        "  right_endpoint_position: counterexample [1, 2]\n"
        "  successor_pairs: witness_found 0\n"
        "  successor_complete: consistent\n"
        "  predecessor_complete: consistent\n"
        "  size: consistent\n"
        "result: FAILED\n")


def _outcome(predicate, status, witness=None):
    return f"Outcome(predicate={predicate!r}, status={status!r}, witness={witness!r})"


def test_oracle_records_keep_their_repr_pickle_and_are_read_only():
    # The reprs a dataclass printed; a pickle comes back equal; no field
    # may be assigned.
    records = [
        (point_profile(T("1"), 0),
         "PointFacts(is_min=True, is_max=True, has_successor=False, has_predecessor=False)"),
        (back_and_forth(T("2"), T("2"), 6), "PartialIso(pairs=((0, 0), (1, 1)))"),
        (back_and_forth(T("2"), T("3"), 6),
         "MatchFailure(round=3, reason='no order-consistent image exists')"),
        (cross_check(T("1"), 1),
         "CheckReport(term='1', budget=1, outcomes=("
         + ", ".join([_outcome("left_endpoint", "witness_found", "0"),
                      _outcome("right_endpoint", "witness_found", "0"),
                      *(_outcome(p, "consistent") for p in (
                          "successor_pairs", "density_between", "successor_complete",
                          "predecessor_complete", "size"))])
         + "), failed=False, points_sampled=1)"),
    ]
    for record, text in records:
        assert repr(record) == text
        assert pickle.loads(pickle.dumps(record)) == record
        field = record.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


# --- randomized properties ---

SAMPLE_TERMS = [
    "Z", "Q", "Q[Z]", "N + Q[Z] + N~", "Q[N,Z]", "N + Q[Z,N]",
    "N*Z", "Z*(1+N)", "2*Q", "(N+N~)*3", "N~*N", "Z*2",
]


@pytest.mark.parametrize("src", SAMPLE_TERMS)
def test_compare_is_a_total_order(src):
    t = T(src)
    pts = enumerate_points(t, 250)
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert compare(t, a, a) == 0
        assert compare(t, a, b) == -compare(t, b, a)
        if compare(t, a, b) <= 0 and compare(t, b, c) <= 0:
            assert compare(t, a, c) <= 0
        assert (compare(t, a, b) == 0) == (a == b)


@pytest.mark.parametrize("src", SAMPLE_TERMS)
def test_between_agrees_with_successors(src):
    t = T(src)
    pts = enumerate_points(t, 250)
    ordered = sorted(pts, key=cmp_to_key(lambda a, b: compare(t, a, b)))
    index = {c: i for i, c in enumerate(ordered)}
    rng = random.Random(1)
    for _ in range(1000):
        a, b = rng.choice(pts), rng.choice(pts)
        if compare(t, a, b) == 0:
            continue
        if compare(t, a, b) > 0:
            a, b = b, a
        mid = between(t, a, b)
        if mid is None:
            assert point_profile(t, a).has_successor
            assert point_profile(t, b).has_predecessor
            assert index[b] == index[a] + 1
        else:
            assert compare(t, a, mid) == -1
            assert compare(t, mid, b) == -1


@given(term_strategy())
@example(Shuffle((OmegaStar(),)))
@example(Product(Shuffle((Sum(OmegaStar(), Single()), Zeta())), OmegaStar()))
@settings(max_examples=250, deadline=None)
@seed(20231022)
def test_cross_check_finds_no_counterexample_on_generated_terms(t):
    # Every profile claim holds on the first 200 points of a generated
    # term; the examples make sure a shuffle of N~ is among them.
    report = cross_check(t, 200)
    assert not report.failed, report.to_text()


@pytest.mark.parametrize("seed", range(3))
def test_back_and_forth_pairs_preserve_order(seed):
    # Two realizations of Q always match for 64 rounds, and so does a
    # shuffle with a block permutation of itself; every transcript is a
    # partial isomorphism, and the coloured one keeps block indices.
    rng = random.Random(seed)
    x, y = T(dense_term(rng, 3)), T(dense_term(rng, 3))
    result = back_and_forth(x, y, 64)
    assert isinstance(result, PartialIso) and len(result.pairs) == 64
    _check_partial_iso(x, y, result.pairs)
    choices = ["1", "2", "N", "N~", "Z", dense_term(rng, 2)]
    blocks = list(dict.fromkeys(rng.choice(choices) for _ in range(3)))
    perm = list(range(len(blocks)))
    rng.shuffle(perm)
    block_map = {perm[j]: j for j in range(len(blocks))}
    x = T("Q[" + ",".join(blocks) + "]")
    y = T("Q[" + ",".join(blocks[j] for j in perm) + "]")
    result = back_and_forth(x, y, 64, block_map=block_map)
    assert isinstance(result, PartialIso) and len(result.pairs) == 64
    _check_partial_iso(x, y, result.pairs)
    for (pos_x, _), (pos_y, _) in result.pairs:
        assert block_map[len(pos_x) % len(blocks)] == len(pos_y) % len(blocks)


_ATOMS = [Single(), Finite(2), Finite(3), Omega(), OmegaStar(), Zeta()]


def _random_term(rng, leaves):
    # A term over the atoms by sum, product, shuffle and reversal, as
    # conftest.term_strategy draws them, but from random.Random, so that a
    # pinned digest does not depend on the hypothesis version.
    if leaves <= 1:
        return rng.choice(_ATOMS)
    r = rng.random()
    if r < 0.15:
        return Reverse(_random_term(rng, leaves - 1))
    if r < 0.35:
        k = rng.randint(1, 3)
        return Shuffle(tuple(_random_term(rng, leaves // k) for _ in range(k)))
    cut = rng.randint(1, leaves - 1)
    return (Sum if r < 0.7 else Product)(_random_term(rng, cut), _random_term(rng, leaves - cut))


def test_point_queries_on_generated_terms_are_pinned():
    # The first 300 terms of a seeded stream: each term's cross-check
    # report, then compare and between on every ordered pair of its first
    # 12 points and the profile of each point, all in one digest.
    rng = random.Random(22)
    h = hashlib.sha256()
    for _ in range(300):
        t = _random_term(rng, rng.randint(1, 8))
        h.update(cross_check(t, 100).to_text().encode())
        pts = enumerate_points(t, 12)
        for a, b in itertools.product(pts, repeat=2):
            try:
                mid = between(t, a, b)
            except InvalidCodeError:
                mid = "none: a >= b"
            h.update(repr((compare(t, a, b), mid)).encode())
        h.update(repr([point_profile(t, c) for c in pts]).encode())
    assert h.hexdigest() == "1cd17fc652293df52bf490889d767198af9a6e20f574d08950384ddafea480a0"


def _wide_term(rng, leaves):
    # _random_term's shapes, plus what enumeration loops over: sums of up
    # to 12 parts, products of 3-5 factors and shuffles nested in blocks.
    if leaves <= 1:
        return rng.choice(_ATOMS)
    r = rng.random()
    if r < 0.1:
        return Reverse(_wide_term(rng, leaves - 1))
    if r < 0.3:
        k = rng.randint(1, 3)
        return Shuffle(tuple(_wide_term(rng, max(1, leaves // k)) for _ in range(k)))
    if r < 0.5:
        return Sum(*(_wide_term(rng, rng.randint(1, 2)) for _ in range(rng.randint(3, 12))))
    if r < 0.7:
        k = rng.randint(3, 5)
        return Product(*(_wide_term(rng, max(1, leaves // k)) for _ in range(k)))
    cut = rng.randint(1, leaves - 1)
    return (Sum if r < 0.85 else Product)(_wide_term(rng, cut), _wide_term(rng, leaves - cut))


def test_enumeration_of_generated_terms_is_pinned():
    # The first 200 codes of each of 320 seeded terms, among them long
    # sums, products of 3-5 factors and nested shuffles, in one digest.
    rng = random.Random(24)
    h = hashlib.sha256()
    for _ in range(320):
        t = _wide_term(rng, rng.randint(1, 10))
        h.update(repr(enumerate_points(t, 200)).encode())
    assert h.hexdigest() == "3be80e25edf19ab84577be64c33b95aabb336663024e7e5d6352e8be9c7c4988"
