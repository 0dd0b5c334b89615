"""Lazy concrete realizations of terms, with decidable point queries.

Every term is realized as a countable order whose points carry flat
codes: integers for the atoms, ``(i, c)`` for point c of summand i,
``(c1, ..., ck)`` for a product of k factors, and ``(position, c)`` for
point c of a shuffle's copy at a node of the infinite binary tree in
infix order, whose block is chosen by its depth modulo the number of
blocks.  Each depth class is dense in the tree order, so this is a fixed
concrete realization of the dense partition.

Each public call realizes its desugared term once, as a tree of small
objects, one per node, that check, order, describe, enumerate and choose
points by their codes.  Building it, like every walk over codes, recurses
once per bracket level, not once per part.  Enumeration yields each code
as it is found and keeps no table from one call to the next.

Comparison, neighbourhood facts, betweenness, fair enumeration, the
back-and-forth construction, and a consistency checker against the
symbolic profiles are all computed from the codes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import NamedTuple

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


class PointFacts(NamedTuple):
    is_min: bool
    is_max: bool
    has_successor: bool
    has_predecessor: bool


_POS_DIGITS = str.maketrans("LR", "02")


def _pos_key(pos: str) -> str:
    # Infix order on binary tree nodes: at the first divergence or at
    # the end of the shorter string, L < (stop) < R, so L, R and the
    # final stop become the digits 0, 2 and 1 of a string key.
    return pos.translate(_POS_DIGITS) + "1"


def _pos_between(lo: str | None, hi: str | None) -> str:
    # The first tree node strictly between lo and hi in infix order (None:
    # open) that the descent from the root meets.
    if lo is None:
        return "" if hi is None else hi + "L"
    if hi is None:
        return lo + "R"
    n = 0  # the length of their common prefix, which ends where they meet
    for a, b in zip(lo, hi):
        if a != b:
            return lo[:n]  # lo is left of their meet and hi right of it
        n += 1
    # One is below the other, at its right child (lo above) or left child
    # (hi above): follow the lower one's turns back towards the upper one.
    low, back = (hi, "L") if n == len(lo) else (lo, "R")
    rest = low[n + 1:]
    turn = len(rest) - len(rest.lstrip(back))
    return low + back if turn == len(rest) else low[:n + 1 + turn]


# ---------------------------------------------------------------------------
# realizations: one object per node of a desugared term, built once per call
#
# Each has check(c), which raises InvalidCodeError unless c is one of its
# points; key(c), a value whose native ordering is the point order;
# facts(c), the PointFacts fields of c as a plain tuple; image(lo, hi),
# some point strictly between lo and hi, where None leaves that side
# open, or None when there is no such point; first, the image with both
# sides open, which is the first point enumerated; has_min and has_max,
# whether the order has a least and a greatest point; codes(w), its codes
# of weight w in enumeration order, and weight_class(w), the same as a
# tuple; and maxw, its greatest weight, None when every weight has codes
# (every weight up to maxw does).


def _reject(r, c: PointCode):
    raise InvalidCodeError(f"code {c!r} is not a point of {print_term(r.t)}")


class _Ints:
    """0, 1, n, N and Z: the integers c with low <= c < n, where None
    leaves that side unbounded."""

    def __init__(self, t: OrderTerm, low: int | None, n: int | None) -> None:
        self.t, self.low, self.n = t, low, n
        self.has_min, self.has_max = low is not None, n is not None
        self.first = self.image(None, None)
        self.maxw = None if n is None else n - 1

    def check(self, c: PointCode) -> None:
        if not (type(c) is int and (self.low is None or c >= self.low)
                and (self.n is None or c < self.n)):
            _reject(self, c)

    def key(self, c: int):
        return c

    def facts(self, c: int) -> tuple:
        low, n = self.low, self.n
        return c == low, n is not None and c == n - 1, n is None or c < n - 1, low is None or c > low

    def image(self, lo: int | None, hi: int | None) -> int | None:
        # The code just above lo, else just below hi, else 0.
        r = lo + 1 if lo is not None else 0 if hi is None else hi - 1
        end = self.n if hi is None else hi
        return r if (end is None or r < end) and (self.low is None or r >= self.low) else None

    def codes(self, w: int) -> tuple:
        # Weight |c|, the negative first.
        if self.low is None:
            return (0,) if w == 0 else (-w, w)
        return (w,) if self.n is None or w < self.n else ()

    weight_class = codes


class _Down(_Ints):
    """N~: code c is the c-th point below the maximum, N read downwards."""

    def __init__(self, t: OrderTerm, low: int | None, n: int | None) -> None:
        super().__init__(t, low, n)
        self.has_min, self.has_max = self.has_max, self.has_min

    def key(self, c: int):
        return -c

    def facts(self, c: int) -> tuple:
        is_min, is_max, succ, pred = super().facts(c)
        return is_max, is_min, pred, succ

    def image(self, lo: int | None, hi: int | None) -> int | None:
        return super().image(hi, lo)


class _Node:
    """A sum, shuffle or product, whose codes of one weight are kept once
    built, for the products and shuffles above it that ask for them again."""

    def weight_class(self, w: int) -> tuple:
        out = self.memo.get(w)
        if out is None:
            out = self.memo[w] = tuple(self.codes(w))
        return out


class _Copies(_Node):
    """A sum or a shuffle: point (i, c) is point c of copy i, which is
    summand i of a sum, or the block of a shuffle's copy at position i."""

    def check(self, c: PointCode) -> None:
        # A summand number or a tree position, and a code in that copy.
        if not (isinstance(c, tuple) and len(c) == 2 and self.names(c[0])):
            _reject(self, c)
        self.copy(c[0]).check(c[1])

    def image(self, lo: tuple | None, hi: tuple | None) -> tuple | None:
        i = None if lo is None else lo[0]
        j = None if hi is None else hi[0]
        if i == j:
            if i is None:
                return self.first
            r = self.copy(i).image(lo[1], hi[1])
            return None if r is None else (i, r)
        for n, a, b in self.tries(lo, hi, i, j):
            r = self.copy(n).image(a, b)
            if r is not None:
                return n, r
        return None


class _Sum(_Copies):
    def __init__(self, t: OrderTerm, parts: tuple) -> None:
        self.t, self.parts, self.memo = t, parts, {}
        self.has_min, self.has_max = parts[0].has_min, parts[-1].has_max
        # The point at an end of summand i has a neighbour across the
        # junction there when the next summand has an endpoint.
        self.succ_across = [p.has_min for p in parts[1:]] + [False]
        self.pred_across = [False] + [p.has_max for p in parts[:-1]]
        self.first = 0, parts[0].first
        ws = [p.maxw for p in parts]
        self.maxw = None if None in ws else max(ws[0], 1 + max(ws[1:]))

    def names(self, i) -> bool:
        return type(i) is int and 0 <= i < len(self.parts)

    def copy(self, i: int):
        return self.parts[i]

    def key(self, c: tuple):
        return c[0], self.parts[c[0]].key(c[1])

    def facts(self, c: tuple) -> tuple:
        i, inner = c
        is_min, is_max, succ, pred = self.parts[i].facts(inner)
        return (i == 0 and is_min, i == len(self.parts) - 1 and is_max,
                succ or (is_max and self.succ_across[i]), pred or (is_min and self.pred_across[i]))

    def tries(self, lo, hi, i, j) -> list:
        # lo's summand above lo, the summand after lo's (summand 0 when
        # lo is open), then hi's below hi; hi's first if lo is open.
        n = 0 if i is None else i + 1
        tries = [] if lo is None else [(i, lo[1], None)]
        if n < (len(self.parts) if j is None else j):
            tries.append((n, None, None))
        if hi is not None:
            tries.insert(0 if lo is None else len(tries), (j, None, hi[1]))
        return tries

    def codes(self, w: int) -> list:
        # Summand 0 costs nothing, every later summand costs 1.
        out = [(0, c) for c in self.parts[0].weight_class(w)]
        if w:
            out += [(i, c) for i, p in enumerate(self.parts[1:], 1) for c in p.weight_class(w - 1)]
        return out


class _Shuffle(_Copies):
    def __init__(self, t: OrderTerm, blocks: tuple) -> None:
        self.t, self.blocks, self.k, self.memo = t, blocks, len(blocks), {}
        self.has_min = self.has_max = False
        self.first = "", blocks[0].first
        self.maxw = None

    def names(self, pos) -> bool:
        return isinstance(pos, str) and all(ch in "LR" for ch in pos)

    def copy(self, pos: str):
        return self.blocks[len(pos) % self.k]

    def key(self, c: tuple):
        pos = c[0]
        return pos.translate(_POS_DIGITS) + "1", self.blocks[len(pos) % self.k].key(c[1])

    def facts(self, c: tuple) -> tuple:
        _, _, succ, pred = self.copy(c[0]).facts(c[1])
        # The positions around any copy are dense, so neighbours exist
        # only inside the copy.
        return False, False, succ, pred

    def tries(self, lo, hi, i, j) -> list:
        # The bounded side's copy when the other side is open, then the
        # copy at the shortest tree position between theirs.
        one = (lo is None) != (hi is None)
        tries = [((i, lo[1], None) if hi is None else (j, None, hi[1]))] if one else []
        tries.append((_pos_between(i, j), None, None))
        return tries

    def codes(self, w: int) -> list:
        # Weight = depth of the position + weight inside its copy; shorter
        # positions first, then L < R.
        out = []
        for length in range(w + 1):
            inner = self.blocks[length % self.k].weight_class(w - length)
            if inner:
                out += [("".join(pos), c) for pos in itertools.product("LR", repeat=length)
                        for c in inner]
        return out


class _Product(_Node):
    def __init__(self, t: OrderTerm, parts: tuple) -> None:
        self.t, self.parts, self.memo = t, parts, {}
        self.has_min = all(p.has_min for p in parts)
        self.has_max = all(p.has_max for p in parts)
        self.first = tuple(p.first for p in parts)
        # caps[j]: the greatest weight that factors 0..j carry together.
        self.caps = list(itertools.accumulate(
            (p.maxw for p in parts), lambda a, b: None if a is None or b is None else a + b))
        self.maxw = self.caps[-1]

    def check(self, c: PointCode) -> None:
        if not (isinstance(c, tuple) and len(c) == len(self.parts)):
            _reject(self, c)
        for p, ci in zip(self.parts, c):
            p.check(ci)

    def key(self, c: tuple):
        return tuple([p.key(ci) for p, ci in zip(self.parts, c)])

    def facts(self, c: tuple) -> tuple:
        # Fold the factors in from the left: (f*g)*...  A later factor's
        # endpoints join the copies of the product before it.
        is_min, is_max, succ, pred = self.parts[0].facts(c[0])
        for p, ci in zip(self.parts[1:], c[1:]):
            g_min, g_max, g_succ, g_pred = p.facts(ci)
            is_min, is_max, succ, pred = (is_min and g_min, is_max and g_max,
                                          g_succ or (g_max and succ and p.has_min),
                                          g_pred or (g_min and pred and p.has_max))
        return is_min, is_max, succ, pred

    def image(self, lo: tuple | None, hi: tuple | None) -> tuple | None:
        # Last factor first, above lo's code down to the first factor
        # where lo and hi differ, between them there, then below hi's
        # (last first if lo is open); later factors take their first.
        parts = self.parts
        k = len(parts)
        if lo is not None and hi is not None:
            d = next(n for n in range(k) if lo[n] != hi[n])
            tries = [(n, lo, lo[n], None) for n in range(k - 1, d, -1)]
            tries += [(d, lo, lo[d], hi[d]), *((n, hi, None, hi[n]) for n in range(d + 1, k))]
        elif lo is not None:
            tries = [(n, lo, lo[n], None) for n in range(k - 1, -1, -1)]
        elif hi is not None:
            tries = [(n, hi, None, hi[n]) for n in range(k - 1, -1, -1)]
        else:
            return self.first
        for n, code, a, b in tries:
            r = parts[n].image(a, b)
            if r is not None:
                return code[:n] + (r,) + self.first[n + 1:]
        return None

    def codes(self, w: int):
        # As ((p1*p2)*p3)*... splits w among the factors: the last
        # factor's weight falls slowest, from the most it can take, then
        # the weight of the one before it, and so on.  Each split gives
        # its factors' codes in product order.
        parts, caps, k = self.parts, self.caps, len(self.parts)
        if caps[-1] is not None and w > caps[-1]:
            return
        ws = [0] * k
        j, rest = k - 1, w
        while True:
            while j > 0:  # factors j..1 take the most they can, factor 0 the rest
                m = parts[j].maxw
                ws[j] = rest if m is None or m > rest else m
                rest -= ws[j]
                j -= 1
            ws[0] = rest
            yield from itertools.product(*[p.weight_class(v) for p, v in zip(parts, ws)])
            # The next split: the first factor from the second on that can
            # pass one unit of weight to those before it does, and they
            # are refilled.
            j = 1
            while j < k and (ws[j] == 0 or (caps[j - 1] is not None and rest >= caps[j - 1])):
                rest += ws[j]
                j += 1
            if j == k:
                return
            ws[j] -= 1
            rest += 1
            j -= 1


def _realize(t: OrderTerm):
    # The realization of a desugared term.
    match t:
        case Single():
            return _Ints(t, 0, 1)
        case Finite(n):
            return _Ints(t, 0, n)
        case Omega():
            return _Ints(t, 0, None)
        case Zeta():
            return _Ints(t, None, None)
        case OmegaStar():
            return _Down(t, 0, None)
        case Sum(parts):
            return _Sum(t, tuple(map(_realize, parts)))
        case Product(parts):
            return _Product(t, tuple(map(_realize, parts)))
        case Shuffle(blocks):
            return _Shuffle(t, tuple(map(_realize, blocks)))
    return _Ints(t, 0, 0)  # 0: no integer c has 0 <= c < 0


def _checked(t: OrderTerm, *codes: PointCode):
    # The realization of t, once each code is checked to be one of its points.
    r = _realize(desugar(t))
    for c in codes:
        r.check(c)
    return r


def compare(t: OrderTerm, a: PointCode, b: PointCode) -> int:
    """Total-order comparison: -1, 0, or 1."""
    r = _checked(t, a, b)
    ka, kb = r.key(a), r.key(b)
    return (ka > kb) - (ka < kb)


def point_profile(t: OrderTerm, c: PointCode) -> PointFacts:
    """Exact endpoint/neighbour facts about the point c in the whole order."""
    return PointFacts(*_checked(t, c).facts(c))


def between(t: OrderTerm, a: PointCode, b: PointCode) -> PointCode | None:
    """A point strictly between a and b, or None when b is the successor of a.

    The choice is deterministic.  In an atom it is the code just above
    a (just below b in N~); in one copy of a sum or shuffle, the choice
    within it.  Across summands: above a in a's summand, else the first
    point of the summand after a's, else below b in b's summand.  Across
    shuffle copies: the first point of the copy at the shortest tree
    position between theirs.  A product chooses as (p1*p2)*p3 does, as
    p1*p2-many copies of p3.
    """
    r = _checked(t, a, b)
    if not r.key(a) < r.key(b):
        raise InvalidCodeError("between requires a < b")
    return r.image(a, b)


# ---------------------------------------------------------------------------
# fair enumeration


def _enum_iter(r):
    # Every code of the realization r, one weight class after the other.
    w = 0
    while r.maxw is None or w <= r.maxw:
        yield from r.codes(w)
        w += 1


def enumerate_points(t: OrderTerm, n: int) -> list[PointCode]:
    """First n codes in weight order: value for naturals, |k| with the
    negative first for integers, length then L<R for positions.  Summand
    0 of a sum adds no weight and each later one 1, and a product splits
    its weight as ((p1*p2)*p3)*... does.  Each weight class is yielded
    as it is found, so a long product costs its first n codes, not its
    class.  Prefix-stable in n; returns fewer than n codes only for
    finite orders with fewer points."""
    return list(itertools.islice(_enum_iter(_realize(desugar(t))), n))


# ---------------------------------------------------------------------------
# back-and-forth


class PartialIso(NamedTuple):
    pairs: tuple[tuple[PointCode, PointCode], ...]


class MatchFailure(NamedTuple):
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
            keys, codes = self.keys, self.codes
            keys[side].insert(i, key)
            codes[side].insert(i, code)
            keys[1 - side].insert(i, key_of(tgt))
            codes[1 - side].insert(i, tgt)
        return i, tgt

    def place_point(self, reals: tuple, side: int, code: PointCode) -> PointCode | None:
        # place() for a point of the realization reals[side], imaged
        # into reals[1 - side].
        src, tgt = reals[side], reals[1 - side]
        return self.place(side, src.key(code), code, tgt.image, tgt.key)[1]


def _fresh_codes(r, used: set):
    for c in _enum_iter(r):
        if c not in used:
            yield c


def _match_rounds(reals: tuple, rounds: int, image, reason: str) -> PartialIso | MatchFailure:
    # The round loop shared by both matchings: odd rounds take the
    # least-enumerated unmatched point of x, even rounds of y, and
    # image(side, src) picks its partner on the other side (None: no
    # order-consistent partner, a failure for `reason`).  Once one side
    # has no unmatched point left, every round draws from the other, so
    # the verdict does not depend on the order of the arguments.
    pairs: list[tuple[PointCode, PointCode]] = []
    used = (set(), set())
    gens = (_fresh_codes(reals[0], used[0]), _fresh_codes(reals[1], used[1]))
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
    matched, reals = _Pairs(), (_realize(x), _realize(y))
    return _match_rounds(reals, rounds, lambda side, src: matched.place_point(reals, side, src),
                         "no order-consistent image exists")


def _pos_find(lo: str | None, hi: str | None, residue: int, k: int) -> str:
    # The first tree position in enumeration order whose length is residue
    # mod k, strictly between lo and hi (None: unbounded).  Positions of one
    # length lie in infix order, so only the least of each length above lo
    # can qualify; depth residues are dense, so a bounded search suffices.
    hi_key = None if hi is None else _pos_key(hi)
    for d in range(residue, 64, k):
        if lo is None or d > len(lo):
            pos = "" if lo is None else lo + "R"
        elif d < len(lo) and lo[d] == "L":
            pos = lo[:d]
        elif "L" in lo[:d]:  # lo[:d] is not above lo: take the next string
            pos = lo[:d].rstrip("R")[:-1] + "R"
        else:
            continue
        pos = pos.ljust(d, "L")
        if hi_key is None or _pos_key(pos) < hi_key:
            return pos
    raise InvalidCodeError("no coloured position found within depth 64")


def _colored(x: OrderTerm, y: OrderTerm, rounds: int,
             block_map: dict[int, int]) -> PartialIso | MatchFailure:
    if not isinstance(x, Shuffle) or not isinstance(y, Shuffle):
        raise InvalidCodeError("coloured matching needs two shuffle terms")
    kx, ky = len(x.blocks), len(y.blocks)
    if sorted(block_map) != list(range(kx)) or sorted(block_map.values()) != list(range(ky)):
        raise InvalidCodeError("block_map must biject the block indices")
    shuffles = (_realize(x), _realize(y))
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
        blocks = (shuffles[0].copy(copies.codes[0][i]), shuffles[1].copy(copies.codes[1][i]))
        j = inside[i].place_point(blocks, side, inner)
        return None if j is None else (copies.codes[1 - side][i], j)

    return _match_rounds(shuffles, rounds, image,
                         "no order-consistent image inside the matched copy")


# ---------------------------------------------------------------------------
# cross-checking symbolic claims against sampled points


class Outcome(NamedTuple):
    predicate: str
    status: str  # consistent | counterexample | witness_found | witness_not_found
    witness: str | None = None


class CheckReport(NamedTuple):
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
    r = _realize(t)
    pts = list(itertools.islice(_enum_iter(r), budget))
    # (c, (is_min, is_max, has_successor, has_predecessor)) for each sample
    facts = [(c, r.facts(c)) for c in pts]
    outcomes: list[Outcome] = []

    def claim(name: str, some: bool, has) -> None:
        # When the profile says some point has the property, search the
        # samples for a witness; otherwise any sample with it refutes it.
        for c, f in facts:
            if has(f):
                outcomes.append(Outcome(name, "witness_found" if some else "counterexample", str(c)))
                return
        outcomes.append(Outcome(name, "witness_not_found" if some else "consistent"))

    ordered = sorted(pts, key=r.key)
    # An endpoint, if any sample is one, must be the first (last) sample.
    # The names are constants, so reports kept in bulk share them.
    for name, some, fact, end in (("left_endpoint", p.has_left_endpoint, 0, 0),
                                  ("right_endpoint", p.has_right_endpoint, 1, -1)):
        claim(name, some, lambda f: f[fact])
        ends = [c for c, f in facts if f[fact]]
        if some and ends and ends != [ordered[end]]:
            outcomes.append(Outcome(name + "_position", "counterexample", str(ends)))

    # A point with a successor witnesses successor pairs; against the
    # claim that there are none, a point with a predecessor refutes it too.
    claim("successor_pairs", not p.succ_pair_free,
          lambda f: f[2] or (p.succ_pair_free and f[3]))
    if p.succ_pair_free:
        gap = None
        for a, b in zip(ordered, ordered[1:]):
            if r.image(a, b) is None:
                gap = (a, b)
                break
        if gap is None:
            outcomes.append(Outcome("density_between", "consistent"))
        else:
            outcomes.append(Outcome("density_between", "counterexample", str(gap)))

    claim("successor_complete", not p.succ_complete,
          lambda f: not f[1] and not f[2])
    claim("predecessor_complete", not p.pred_complete,
          lambda f: not f[0] and not f[3])

    expected = budget if p.size is None else min(p.size, budget)
    if len(pts) == expected:
        outcomes.append(Outcome("size", "consistent"))
    else:
        outcomes.append(Outcome("size", "counterexample", f"{len(pts)} points"))

    failed = any(o.status == "counterexample" for o in outcomes)
    return CheckReport(text, budget, tuple(outcomes), failed, len(pts))
