"""Compositional first-order structural facts about the order a term denotes.

Every field of a profile is computed by structural recursion from exact
rules for sums, products, and shuffles, so the verdicts are decidable
facts about the denoted order, not heuristics.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce
from itertools import product

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
    node,
)


class DenseClass(Enum):
    Q = "Q"
    ONE_Q = "OneQ"
    Q_ONE = "QOne"
    ONE_Q_ONE = "OneQOne"


@node
class StructProfile:
    """Decidable facts about an order.

    ``size`` is an exact point count for finite orders and None for
    countably infinite ones.  ``succ_pair_free`` means no point has an
    immediate successor; ``succ_complete`` means every non-maximum
    point has one, and ``pred_complete`` is the mirror image.
    ``dense_class`` is set exactly when the order is dense (pair-free
    with at least two points) and then records its endpoint shape.
    """

    __slots__ = ("is_empty", "size", "has_left_endpoint", "has_right_endpoint",
                 "succ_pair_free", "succ_complete", "pred_complete", "dense_class", "_hash")

    is_empty: bool
    size: int | None
    has_left_endpoint: bool
    has_right_endpoint: bool
    succ_pair_free: bool
    succ_complete: bool
    pred_complete: bool
    dense_class: DenseClass | None


# The dense class of each endpoint shape: (has left, has right) endpoint.
_DENSE = {(False, False): DenseClass.Q, (True, False): DenseClass.ONE_Q,
          (False, True): DenseClass.Q_ONE, (True, True): DenseClass.ONE_Q_ONE}


def _shape(size, hl, hr, spf, sc, pc) -> StructProfile:
    dense = _DENSE[(hl, hr)] if spf and (size is None or size >= 2) else None
    return StructProfile(False, size, hl, hr, spf, sc, pc, dense)


# The profile of every infinite order, one per shape of its five facts,
# so that no infinite profile is built or hashed twice.
_INFINITE = {facts: _shape(None, *facts) for facts in product((False, True), repeat=5)}


def _mk(size, hl, hr, spf, sc, pc) -> StructProfile:
    # The profile of a non-empty order.
    if size is None:
        return _INFINITE[hl, hr, spf, sc, pc]
    return _shape(size, hl, hr, spf, sc, pc)


_EMPTY = StructProfile(True, 0, False, False, True, True, True, None)
_ATOMS = {Single: _mk(1, True, True, True, True, True),
          Omega: _mk(None, True, False, False, True, True),
          OmegaStar: _mk(None, False, True, False, True, True),
          Zeta: _mk(None, False, False, False, True, True)}


def _add(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


def _mul(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a * b


def _sum_profile(pa: StructProfile, pb: StructProfile) -> StructProfile:
    return _mk(
        _add(pa.size, pb.size),
        pa.has_left_endpoint,
        pb.has_right_endpoint,
        pa.succ_pair_free and pb.succ_pair_free
        and not (pa.has_right_endpoint and pb.has_left_endpoint),
        pa.succ_complete and pb.succ_complete
        and (not pa.has_right_endpoint or pb.has_left_endpoint),
        pa.pred_complete and pb.pred_complete
        and (not pb.has_left_endpoint or pa.has_right_endpoint),
    )


def _product_profile(px: StructProfile, py: StructProfile) -> StructProfile:
    # A copy boundary exists only when the index has >= 2 points; for a
    # singleton index the boundary conditions are vacuous and the product
    # is a single copy of the fiber.
    many = px.size is None or px.size >= 2
    return _mk(
        _mul(px.size, py.size),
        px.has_left_endpoint and py.has_left_endpoint,
        px.has_right_endpoint and py.has_right_endpoint,
        py.succ_pair_free
        and (not many or not py.has_right_endpoint
             or not py.has_left_endpoint or px.succ_pair_free),
        py.succ_complete
        and (not many or not py.has_right_endpoint
             or (py.has_left_endpoint and px.succ_complete)),
        py.pred_complete
        and (not many or not py.has_left_endpoint
             or (py.has_right_endpoint and px.pred_complete)),
    )


def profile(t: OrderTerm) -> StructProfile:
    """Profile of the order denoted by t (reversal and 0 are desugared away)."""
    return _profile(desugar(t))


@cache
def _profile(t: OrderTerm) -> StructProfile:
    atom = _ATOMS.get(t.__class__)
    if atom is not None:
        return atom
    match t:
        case Empty():
            return _EMPTY
        case Finite(n):
            return _mk(n, True, True, False, True, True)
        case Sum(parts) | Product(parts):
            rule = _sum_profile if isinstance(t, Sum) else _product_profile
            return reduce(rule, map(_profile, parts))
        case Shuffle(blocks):
            ps = [_profile(b) for b in blocks]
            return _mk(
                None,
                False,
                False,
                all(p.succ_pair_free for p in ps),
                all(p.succ_complete and not p.has_right_endpoint for p in ps),
                all(p.pred_complete and not p.has_left_endpoint for p in ps),
            )
    raise TypeError(f"term must be desugared: {t!r}")
