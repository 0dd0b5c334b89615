"""Lazy concrete realizations of terms, with decidable point queries.

Every term is realized as a countable order whose points carry
hereditary codes: integers for the atoms, pairs for sums and products,
and (position, inner) pairs for shuffles, where positions are nodes of
the infinite binary tree in infix order and the block replacing a
position is chosen by its depth modulo the number of blocks.  Each
depth class is dense in the tree order, so this is a fixed concrete
realization of the dense partition.

Comparison, neighbourhood facts, betweenness, fair enumeration, the
back-and-forth construction, and a consistency checker against the
symbolic profiles are all computed from the codes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

from .profiles import profile
from .terms import (
    Empty,
    Finite,
    Omega,
    OmegaStar,
    OrderTerm,
    Product,
    Shuffle,
    Single,
    Sum,
    Zeta,
    desugar,
)
from .textio import print_term

PointCode = object


class InvalidCodeError(ValueError):
    pass


@dataclass(frozen=True)
class PointFacts:
    is_min: bool
    is_max: bool
    has_successor: bool
    has_predecessor: bool


class _Tree:
    """The index of a shuffle's copies: the nodes of the infinite binary
    tree, coded as strings over L and R and ordered in infix order."""

    __slots__ = ()


_TREE, _TWO, _OMEGA = _Tree(), Finite(2), Omega()


def _index(t: OrderTerm):
    # The order of the copies of a sum, product or shuffle.
    return _TWO if isinstance(t, Sum) else _TREE if isinstance(t, Shuffle) else t.index


def _fiber(t: OrderTerm, i) -> OrderTerm:
    # Copy i of a sum, product or shuffle.
    if isinstance(t, Product):
        return t.fiber
    if isinstance(t, Sum):
        return t.right if i else t.left
    return t.blocks[len(i) % len(t.blocks)]


def _check(t: OrderTerm, c: PointCode) -> None:
    match t:
        case Single():
            ok = isinstance(c, int) and c == 0
        case Finite(n):
            ok = isinstance(c, int) and 0 <= c < n
        case Omega() | OmegaStar():
            ok = isinstance(c, int) and c >= 0
        case Zeta():
            ok = isinstance(c, int)
        case _Tree():
            if not (isinstance(c, str) and all(ch in "LR" for ch in c)):
                raise InvalidCodeError(f"bad tree position {c!r}")
            return
        case Sum() | Product() | Shuffle():
            # An (index, code in that copy) pair.
            ok = isinstance(c, tuple) and len(c) == 2
            if ok:
                _check(_index(t), c[0])
                _check(_fiber(t, c[0]), c[1])
        case _:
            raise InvalidCodeError("the empty order has no points")
    if not ok:
        raise InvalidCodeError(f"code {c!r} is not a point of {print_term(t)}")


_POS_DIGITS = str.maketrans("LR", "02")


def _pos_key(pos: str) -> str:
    # Infix order on binary tree nodes: at the first divergence or at
    # the end of the shorter string, L < (stop) < R, so L, R and the
    # final stop become the digits 0, 2 and 1 of a string key.
    return pos.translate(_POS_DIGITS) + "1"


def _key(t: OrderTerm, c: PointCode):
    # A value whose native ordering is the point order of t.
    match t:
        case Single() | Finite() | Omega() | Zeta():
            return c
        case OmegaStar():
            return -c
        case Sum(left, right):
            return (c[0], _key(right if c[0] else left, c[1]))
        case Product(x, y):
            return (_key(x, c[0]), _key(y, c[1]))
        case Shuffle(blocks):
            return (_pos_key(c[0]), _key(blocks[len(c[0]) % len(blocks)], c[1]))
    raise AssertionError


def compare(t: OrderTerm, a: PointCode, b: PointCode) -> int:
    """Total-order comparison: -1, 0, or 1."""
    t = desugar(t)
    _check(t, a)
    _check(t, b)
    ka, kb = _key(t, a), _key(t, b)
    return (ka > kb) - (ka < kb)


def _facts(t: OrderTerm, c: PointCode) -> PointFacts:
    match t:
        case Single():
            return PointFacts(True, True, False, False)
        case Finite(n):
            return PointFacts(c == 0, c == n - 1, c < n - 1, c > 0)
        case Omega():
            return PointFacts(c == 0, False, True, c > 0)
        case OmegaStar():
            return PointFacts(False, c == 0, c > 0, True)
        case Zeta():
            return PointFacts(False, False, True, True)
        case Sum(left, right):
            side, inner = c
            first = side == 0
            f = _facts(left if first else right, inner)
            # The point at the junction end of its side has a neighbour
            # across the junction when the other side has an endpoint there.
            across = (f.is_max and profile(right).has_left_endpoint if first
                      else f.is_min and profile(left).has_right_endpoint)
            return PointFacts(first and f.is_min, not first and f.is_max,
                              f.has_successor or (first and across),
                              f.has_predecessor or (not first and across))
        case Product(x, y):
            cx, cy = c
            fx, fy = _facts(x, cx), _facts(y, cy)
            py = profile(y)
            return PointFacts(
                fx.is_min and fy.is_min,
                fx.is_max and fy.is_max,
                fy.has_successor
                or (fy.is_max and fx.has_successor and py.has_left_endpoint),
                fy.has_predecessor
                or (fy.is_min and fx.has_predecessor and py.has_right_endpoint),
            )
        case Shuffle(blocks):
            pos, inner = c
            f = _facts(blocks[len(pos) % len(blocks)], inner)
            # The positions around any copy are dense, so neighbours
            # exist only inside the copy.
            return PointFacts(False, False, f.has_successor, f.has_predecessor)
    raise AssertionError


def point_profile(t: OrderTerm, c: PointCode) -> PointFacts:
    """Exact endpoint/neighbour facts about the point c in the whole order."""
    t = desugar(t)
    _check(t, c)
    return _facts(t, c)


def _pos_between(lo: str, hi: str) -> str:
    # Shortest tree node strictly between lo and hi in infix order.
    m = ""
    lo_key, hi_key = _pos_key(lo), _pos_key(hi)
    while True:
        if _pos_key(m) <= lo_key:
            m += "R"
        elif _pos_key(m) >= hi_key:
            m += "L"
        else:
            return m


def _image(t: OrderTerm, lo: PointCode | None, hi: PointCode | None) -> PointCode | None:
    # Some point of t strictly between lo and hi, where None leaves that
    # side open; None when there is no such point.  With both sides open
    # it is the first point that enumerate_points yields.  A sum, product
    # or shuffle is index-many consecutive copies of its fibers.  Bounds
    # in one copy are resolved inside it.  Otherwise the walk tries lo's
    # copy above lo (hi's copy below hi when lo is open), then the first
    # point of the copy at the index point that the walk picks strictly
    # between their copies, then hi's copy below hi.  A shuffle whose
    # bounds lie in different copies goes straight to the shortest tree
    # position between them.
    match t:
        case Finite() | Omega() | Zeta():
            # The code just above lo, else just below hi, else 0.  Only Z
            # has negative codes.
            r = lo + 1 if lo is not None else 0 if hi is None else hi - 1
            end = hi if hi is not None else t.n if isinstance(t, Finite) else None
            return r if (end is None or r < end) and (r >= 0 or isinstance(t, Zeta)) else None
        case Sum() | Product() | Shuffle():
            index = _index(t)
        case _Tree():
            if lo is None:
                return "" if hi is None else hi + "L"
            return lo + "R" if hi is None else _pos_between(lo, hi)
        case OmegaStar():
            # Code c is the c-th point below the maximum: N read downwards.
            return _image(_OMEGA, hi, lo)
        case Single():
            return 0 if lo is None and hi is None else None
        case _:  # the empty order
            return None
    i = None if lo is None else lo[0]
    j = None if hi is None else hi[0]
    if i is not None and i == j:
        r = _image(_fiber(t, i), lo[1], hi[1])
        return None if r is None else (i, r)
    if lo is None:
        r = None if hi is None else _image(_fiber(t, j), None, hi[1])
        if r is not None:
            return j, r
    elif hi is None or index is not _TREE:
        r = _image(_fiber(t, i), lo[1], None)
        if r is not None:
            return i, r
    m = _image(index, i, j)
    if m is not None:
        return m, _image(_fiber(t, m), None, None)
    if lo is not None and hi is not None:
        r = _image(_fiber(t, j), None, hi[1])
        return None if r is None else (j, r)
    return None


def between(t: OrderTerm, a: PointCode, b: PointCode) -> PointCode | None:
    """A point strictly between a and b, or None when b is the successor of a.

    The choice is deterministic.  In an atom it is the code just above
    a (just below b in N~).  In one copy of a sum, product or shuffle it
    is the choice within that copy.  Across copies it is the choice
    above a within a's copy if there is one, else the first enumerated
    point of the copy at the index point chosen between the two copies,
    else the choice below b within b's copy; with one side open, the
    same rule picks a point beyond the other.  In a shuffle, a and b in
    different copies give the first enumerated point of the copy at the
    shortest tree position between theirs.
    """
    t = desugar(t)
    _check(t, a)
    _check(t, b)
    if not _key(t, a) < _key(t, b):
        raise InvalidCodeError("between requires a < b")
    return _image(t, a, b)


# ---------------------------------------------------------------------------
# fair enumeration


def _strings(length: int):
    for tup in itertools.product("LR", repeat=length):
        yield "".join(tup)


@cache
def _codes_of_weight(t: OrderTerm, w: int) -> tuple:
    match t:
        case Single():
            return (0,) if w == 0 else ()
        case Finite(n):
            return (w,) if w < n else ()
        case Omega() | OmegaStar():
            return (w,)
        case Zeta():
            return (0,) if w == 0 else (-w, w)
        case Sum(a, b):
            out = [(0, c) for c in _codes_of_weight(a, w)]
            if w >= 1:
                out.extend((1, c) for c in _codes_of_weight(b, w - 1))
            return tuple(out)
        case Product(x, y):
            out = []
            for wx in range(w + 1):
                xs = _codes_of_weight(x, wx)
                if not xs:
                    continue
                ys = _codes_of_weight(y, w - wx)
                out.extend((cx, cy) for cx in xs for cy in ys)
            return tuple(out)
        case Shuffle(blocks):
            k = len(blocks)
            out = []
            for length in range(w + 1):
                inner = _codes_of_weight(blocks[length % k], w - length)
                if not inner:
                    continue
                for pos in _strings(length):
                    out.extend((pos, c) for c in inner)
            return tuple(out)
    raise AssertionError


def _enum_iter(t: OrderTerm):
    size = profile(t).size
    emitted = 0
    w = 0
    while size is None or emitted < size:
        for c in _codes_of_weight(t, w):
            yield c
            emitted += 1
        w += 1


def enumerate_points(t: OrderTerm, n: int) -> list[PointCode]:
    """First n codes in weight order (value for naturals, |k| with the
    negative first for integers, length then L<R for positions, summed
    left-to-right for composites).  Prefix-stable in n; returns fewer
    than n codes only for finite orders with fewer points."""
    t = desugar(t)
    if t == Empty():
        return []
    return list(itertools.islice(_enum_iter(t), n))


# ---------------------------------------------------------------------------
# back-and-forth


@dataclass(frozen=True)
class PartialIso:
    pairs: tuple[tuple[PointCode, PointCode], ...]


@dataclass(frozen=True)
class MatchFailure:
    round: int
    reason: str


class _Pairs:
    """Matched pairs in point order on both sides: pair i is
    (codes[0][i], codes[1][i]), and keys[s][i] orders codes[s][i]."""

    def __init__(self) -> None:
        self.keys: tuple[list, list] = ([], [])
        self.codes: tuple[list, list] = ([], [])

    def place(self, side: int, key, code, choose, key_of) -> tuple[int, object]:
        # Match code, a point of `side` ordered by key, to the image that
        # choose(lo, hi) picks strictly between the images of its matched
        # neighbours (None where it has none), and insert the pair where
        # both sides stay sorted.  Returns the pair's index and the image,
        # which is None when choose finds none.
        i = bisect_left(self.keys[side], key)
        imgs = self.codes[1 - side]
        tgt = choose(imgs[i - 1] if i else None, imgs[i] if i < len(imgs) else None)
        if tgt is not None:
            for s, k, c in ((side, key, code), (1 - side, key_of(tgt), tgt)):
                self.keys[s].insert(i, k)
                self.codes[s].insert(i, c)
        return i, tgt

    def place_point(self, terms: tuple[OrderTerm, OrderTerm], side: int,
                    code: PointCode) -> PointCode | None:
        # place() for a point of terms[side], imaged into terms[1 - side].
        src, tgt = terms[side], terms[1 - side]
        return self.place(side, _key(src, code), code,
                          lambda lo, hi: _image(tgt, lo, hi), lambda c: _key(tgt, c))[1]


def _fresh_codes(t: OrderTerm, used: set):
    for c in _enum_iter(t):
        if c not in used:
            yield c


def _match_rounds(x: OrderTerm, y: OrderTerm, rounds: int, image,
                  reason: str) -> PartialIso | MatchFailure:
    # The round loop shared by both matchings: odd rounds take the
    # least-enumerated unmatched point of x, even rounds of y, and
    # image(side, src) picks its partner on the other side (None: no
    # order-consistent partner, a failure for `reason`).  Once one side
    # has no unmatched point left, every round draws from the other, so
    # the verdict does not depend on the order of the arguments.
    pairs: list[tuple[PointCode, PointCode]] = []
    used = (set(), set())
    gens = (_fresh_codes(x, used[0]), _fresh_codes(y, used[1]))
    for r in range(1, rounds + 1):
        side = 0 if r % 2 == 1 else 1
        src = next(gens[side], None)
        if src is None:
            side = 1 - side
            src = next(gens[side], None)
            if src is None:
                break
        tgt = image(side, src)
        if tgt is None:
            return MatchFailure(r, reason)
        used[side].add(src)
        used[1 - side].add(tgt)
        pairs.append((src, tgt) if side == 0 else (tgt, src))
    return PartialIso(tuple(pairs))


def back_and_forth(x: OrderTerm, y: OrderTerm, rounds: int,
                   block_map: dict[int, int] | None = None) -> PartialIso | MatchFailure:
    """Grow a partial isomorphism by alternating least-unmatched choices.

    Odd rounds pick the least-enumerated unmatched point of x, even
    rounds of y, and once one side has no unmatched point left every
    round picks from the other; the image is chosen with
    endpoint/betweenness queries on the other side.  With
    ``block_map`` both terms must be shuffles and matched points must
    carry corresponding block indices (matching whole copies and
    recursively matching their interiors).  Returns the matched pairs,
    or the first round at which no order-consistent extension exists.
    """
    x = desugar(x)
    y = desugar(y)
    if block_map is not None:
        return _colored(x, y, rounds, block_map)
    matched = _Pairs()
    return _match_rounds(x, y, rounds,
                         lambda side, src: matched.place_point((x, y), side, src),
                         "no order-consistent image exists")


def _pos_find(lo: str | None, hi: str | None, residue: int, k: int) -> str:
    # The first tree position in enumeration order with the required
    # depth residue strictly between lo and hi (None: unbounded); depth
    # residues are dense, so a bounded search suffices.
    lo_key = None if lo is None else _pos_key(lo)
    hi_key = None if hi is None else _pos_key(hi)
    for length in range(residue, 64, k):
        for pos in _strings(length):
            key = _pos_key(pos)
            if (lo_key is None or key > lo_key) and (hi_key is None or key < hi_key):
                return pos
    raise InvalidCodeError("no coloured position found within depth 64")


def _colored(x: OrderTerm, y: OrderTerm, rounds: int,
             block_map: dict[int, int]) -> PartialIso | MatchFailure:
    if not isinstance(x, Shuffle) or not isinstance(y, Shuffle):
        raise InvalidCodeError("coloured matching needs two shuffle terms")
    kx, ky = len(x.blocks), len(y.blocks)
    if sorted(block_map) != list(range(kx)) or sorted(block_map.values()) != list(range(ky)):
        raise InvalidCodeError("block_map must biject the block indices")
    shuffles = (x, y)
    fwd = (block_map, {v: k for k, v in block_map.items()})
    copies = _Pairs()  # matched copy positions
    inside: list[_Pairs] = []  # inside[i]: the pairs matched within copy pair i

    def image(side: int, src: PointCode) -> PointCode | None:
        pos, inner = src
        key = _pos_key(pos)
        i = bisect_left(copies.keys[side], key)
        if i == len(copies.keys[side]) or copies.keys[side][i] != key:
            residue = fwd[side][len(pos) % len(shuffles[side].blocks)]
            k_tgt = len(shuffles[1 - side].blocks)
            i, _ = copies.place(side, key, pos,
                                lambda lo, hi: _pos_find(lo, hi, residue, k_tgt), _pos_key)
            inside.insert(i, _Pairs())
        blocks = (_fiber(x, copies.codes[0][i]), _fiber(y, copies.codes[1][i]))
        j = inside[i].place_point(blocks, side, inner)
        return None if j is None else (copies.codes[1 - side][i], j)

    return _match_rounds(x, y, rounds, image,
                         "no order-consistent image inside the matched copy")


# ---------------------------------------------------------------------------
# cross-checking symbolic claims against sampled points


@dataclass(frozen=True)
class Outcome:
    predicate: str
    status: str  # consistent | counterexample | witness_found | witness_not_found
    witness: str | None = None


@dataclass
class CheckReport:
    term: str
    budget: int
    outcomes: tuple[Outcome, ...]
    failed: bool
    points_sampled: int

    def to_text(self) -> str:
        lines = [f"check {self.term} budget={self.budget} points={self.points_sampled}"]
        for o in self.outcomes:
            line = f"  {o.predicate}: {o.status}"
            if o.witness is not None:
                line += f" {o.witness}"
            lines.append(line)
        lines.append(f"result: {'FAILED' if self.failed else 'ok'}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "term": self.term,
            "budget": self.budget,
            "outcomes": [
                {"predicate": o.predicate, "status": o.status}
                | ({"witness": o.witness} if o.witness is not None else {})
                for o in self.outcomes
            ],
            "failed": self.failed,
        }


def cross_check(t: OrderTerm, budget: int) -> CheckReport:
    """Verify every profile claim about t against the first `budget` points.

    Universal claims must have no sampled counterexample; each negated
    universal claim is searched for a witness among the samples.
    """
    t = desugar(t)
    text = print_term(t)
    p = profile(t)
    pts = enumerate_points(t, budget)
    facts = [(c, _facts(t, c)) for c in pts]
    outcomes: list[Outcome] = []

    def claim(name: str, some: bool, has) -> None:
        # When the profile says some point has the property, search the
        # samples for a witness; otherwise any sample with it refutes it.
        for c, f in facts:
            if has(f):
                outcomes.append(Outcome(name, "witness_found" if some else "counterexample", str(c)))
                return
        outcomes.append(Outcome(name, "witness_not_found" if some else "consistent"))

    ordered = sorted(pts, key=lambda c: _key(t, c))
    # An endpoint, if any sample is one, must be the first (last) sample.
    for side, some, is_end, end in (("left", p.has_left_endpoint, lambda f: f.is_min, 0),
                                    ("right", p.has_right_endpoint, lambda f: f.is_max, -1)):
        claim(f"{side}_endpoint", some, is_end)
        ends = [c for c, f in facts if is_end(f)]
        if some and ends and ends != [ordered[end]]:
            outcomes.append(Outcome(f"{side}_endpoint_position", "counterexample", str(ends)))

    # A point with a successor witnesses successor pairs; against the
    # claim that there are none, a point with a predecessor refutes it too.
    claim("successor_pairs", not p.succ_pair_free,
          lambda f: f.has_successor or (p.succ_pair_free and f.has_predecessor))
    if p.succ_pair_free:
        gap = None
        for a, b in zip(ordered, ordered[1:]):
            if _image(t, a, b) is None:
                gap = (a, b)
                break
        if gap is None:
            outcomes.append(Outcome("density_between", "consistent"))
        else:
            outcomes.append(Outcome("density_between", "counterexample", str(gap)))

    claim("successor_complete", not p.succ_complete,
          lambda f: not f.is_max and not f.has_successor)
    claim("predecessor_complete", not p.pred_complete,
          lambda f: not f.is_min and not f.has_predecessor)

    expected = budget if p.size is None else min(p.size, budget)
    if len(pts) == expected:
        outcomes.append(Outcome("size", "consistent"))
    else:
        outcomes.append(Outcome("size", "counterexample", f"{len(pts)} points"))

    failed = any(o.status == "counterexample" for o in outcomes)
    return CheckReport(text, budget, tuple(outcomes), failed, len(pts))
