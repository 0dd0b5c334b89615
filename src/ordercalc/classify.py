"""Deciders for self-similarity, left absorption, and squares.

An order is self-similar when it contains two disjoint convex copies of
itself; among countable orders these are exactly the ones of the shape
L + Q[blocks] + R with L a final segment of a block (or empty) and R an
initial segment of a block (or empty).  Which orders A satisfy
A*X = X is then determined by whether L, R, and the junction R + L
match blocks, which splits the absorbing orders into eight classes.

Those verdicts depend only on the canonical form, so they are computed
once per form and kept on it (``_classification``); the two checkers at
the end read the kept decomposition but test the cases themselves.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .canon import (
    ONE_FORM,
    CanonicalForm,
    Shuf,
    canonicalize,
    cf_to_term,
    concat_components,
    is_final_segment,
    is_initial_segment,
)
from .profiles import DenseClass, StructProfile, profile
from .terms import Empty, OrderTerm, Single, StuckError, UnsupportedError, desugar, node


@node
class Decomposition:
    """The shape L + Q[blocks] + R; left/right are empty forms when absent."""

    __slots__ = ("left", "blocks", "right", "_hash")

    left: CanonicalForm
    blocks: tuple[CanonicalForm, ...]
    right: CanonicalForm


@node
class NotSelfSimilar:
    __slots__ = ("reason", "_hash")

    reason: str


@node
class SelfSimilarNotAbsorbing:
    __slots__ = ("reason", "decomposition", "_hash")

    reason: str
    decomposition: Decomposition


@node
class AbsorptionCase:
    """One of the eight absorbing shapes, with its witness decomposition.

    1: L = R = empty.  2: L is a block, R empty.  3: mirror of 2.
    4: L and R are blocks but R + L is not.  5-8: R + L is a block and
    (neither / only L / only R / both) of L, R are blocks.
    """

    __slots__ = ("case", "decomposition", "_hash")

    case: int
    decomposition: Decomposition


AbsorptionClass = NotSelfSimilar | SelfSimilarNotAbsorbing | AbsorptionCase


class Spectrum(Enum):
    ALL = "All"
    HAS_LEFT = "HasLeft"
    HAS_RIGHT = "HasRight"
    EXACTLY_ONE_Q_ONE_OR_1 = "ExactlyOneQOneOr1"
    BOTH_ENDS_SUCC_PRED_COMPLETE = "BothEndsSuccPredComplete"
    BOTH_ENDS_SUCC_COMPLETE = "BothEndsSuccComplete"
    BOTH_ENDS_PRED_COMPLETE = "BothEndsPredComplete"
    BOTH_ENDS = "BothEnds"
    TRIVIAL_ONLY = "TrivialOnly"


@node
class SelfSimilarity:
    __slots__ = ("holds", "decomposition", "reason", "_hash")

    holds: bool
    decomposition: Decomposition | None
    reason: str | None

    def __bool__(self) -> bool:
        return self.holds


def _classification(t: OrderTerm) -> tuple[SelfSimilarity, AbsorptionClass]:
    """The verdicts on t's canonical form, kept in its classification slot
    by the first call; two threads may both fill it, harmlessly, with the
    same pair.  Raises UnsupportedError when canonicalization is stuck
    or the form is not tame."""
    try:
        cf = canonicalize(t)
    except StuckError as e:
        raise UnsupportedError(f"cannot canonicalize: {e}") from e
    if not cf.tame:
        raise UnsupportedError("canonical form has scattered parts outside the tame fragment")
    if cf.classification is None:
        ss = _self_similarity(cf)
        object.__setattr__(cf, "classification", (ss, _absorption(ss)))
    return cf.classification


def _self_similarity(cf: CanonicalForm) -> SelfSimilarity:
    shuf_at = [i for i, c in enumerate(cf.components) if isinstance(c, Shuf)]
    if len(shuf_at) != 1:
        return SelfSimilarity(False, None, "canonical form is not scattered + shuffle + scattered")
    i = shuf_at[0]
    d = Decomposition(CanonicalForm(cf.components[:i]), cf.components[i].blocks,
                      CanonicalForm(cf.components[i + 1:]))
    if d.left.components and not any(is_final_segment(d.left, b) for b in d.blocks):
        return SelfSimilarity(False, d, "left part is not a final segment of any block")
    if d.right.components and not any(is_initial_segment(d.right, b) for b in d.blocks):
        return SelfSimilarity(False, d, "right part is not an initial segment of any block")
    return SelfSimilarity(True, d, None)


def decompose(t: OrderTerm) -> Decomposition | None:
    """Split the canonical form of t as L + Q[blocks] + R.

    Returns None when the canonical component sequence is not
    scattered + shuffle + scattered.  Raises UnsupportedError when
    canonicalization is stuck or the form is not tame.
    """
    return _classification(t)[0].decomposition


def is_self_similar(t: OrderTerm) -> SelfSimilarity:
    """Does t contain two disjoint convex copies of itself?"""
    return _classification(t)[0]


def _case_bits(d: Decomposition) -> tuple[bool, bool, bool, bool, bool]:
    """(L empty, R empty, L is a block, R is a block, R + L is a block)."""
    # Only tame forms get here, and tame forms are isomorphic exactly when
    # equal, so a part matches a block when it is one.
    l_empty = not d.left.components
    r_empty = not d.right.components
    b_left = not l_empty and d.left in d.blocks
    b_right = not r_empty and d.right in d.blocks
    junction = concat_components(d.right.components, d.left.components)
    b_junction = not (l_empty or r_empty) and any(b.components == junction for b in d.blocks)
    return l_empty, r_empty, b_left, b_right, b_junction


class _Case(NamedTuple):
    bits: tuple[bool, bool, bool, bool, bool]
    spectrum: Spectrum
    admits: Callable[[StructProfile], bool]  # the condition on A's profile


# The eight absorbing cases, keyed by case number; bits as in _case_bits.
_CASES = {
    1: _Case((True, True, False, False, False), Spectrum.ALL, lambda p: True),
    2: _Case((False, True, True, False, False), Spectrum.HAS_LEFT,
             lambda p: p.has_left_endpoint),
    3: _Case((True, False, False, True, False), Spectrum.HAS_RIGHT,
             lambda p: p.has_right_endpoint),
    4: _Case((False, False, True, True, False), Spectrum.EXACTLY_ONE_Q_ONE_OR_1,
             lambda p: p.dense_class is DenseClass.ONE_Q_ONE or p.size == 1),
    5: _Case((False, False, False, False, True), Spectrum.BOTH_ENDS_SUCC_PRED_COMPLETE,
             lambda p: (p.has_left_endpoint and p.has_right_endpoint
                        and p.succ_complete and p.pred_complete)),
    6: _Case((False, False, True, False, True), Spectrum.BOTH_ENDS_SUCC_COMPLETE,
             lambda p: p.has_left_endpoint and p.has_right_endpoint and p.succ_complete),
    7: _Case((False, False, False, True, True), Spectrum.BOTH_ENDS_PRED_COMPLETE,
             lambda p: p.has_left_endpoint and p.has_right_endpoint and p.pred_complete),
    8: _Case((False, False, True, True, True), Spectrum.BOTH_ENDS,
             lambda p: p.has_left_endpoint and p.has_right_endpoint),
}
_CASE_OF_BITS = {row.bits: n for n, row in _CASES.items()}


def classify_absorption(t: OrderTerm) -> AbsorptionClass:
    """Decide whether t is left-absorbing and, if so, which class it is in."""
    return _classification(t)[1]


def _absorption(ss: SelfSimilarity) -> AbsorptionClass:
    if not ss:
        return NotSelfSimilar(ss.reason)
    d = ss.decomposition
    bits = _case_bits(d)
    case = _CASE_OF_BITS.get(bits)
    if case is not None:
        return AbsorptionCase(case, d)
    l_empty, r_empty = bits[:2]
    if r_empty:
        reason = "left part is not a block"
    elif l_empty:
        reason = "right part is not a block"
    else:
        reason = "neither the junction nor both of the outer parts match blocks"
    return SelfSimilarNotAbsorbing(reason, d)


def absorbs(a: OrderTerm, x: OrderTerm) -> bool:
    """Does A*X denote the same order type as X?"""
    a = desugar(a)
    x = desugar(x)
    if a == Empty():
        return x == Empty()
    if x == Empty() or a == Single():
        return True
    pa = profile(a)
    verdict = classify_absorption(x)
    if isinstance(verdict, AbsorptionCase):
        return _CASES[verdict.case].admits(pa)
    return pa.size == 1


def spectrum_description(x: OrderTerm) -> Spectrum:
    """Which orders A satisfy A*X = X, as a class description."""
    verdict = classify_absorption(x)
    if isinstance(verdict, AbsorptionCase):
        return _CASES[verdict.case].spectrum
    return Spectrum.TRIVIAL_ONLY


def is_square(x: OrderTerm) -> bool:
    """Is x isomorphic to its lexicographic square x*x?"""
    return absorbs(x, x)


def square_two_endpoints(x: OrderTerm) -> bool | None:
    """Square test specialized to orders with both endpoints.

    Returns None when x is missing an endpoint.  Evaluated directly on
    the decomposition: the block-level successor and predecessor
    requirements are read in the ambient order, so "every point has a
    successor" means successor-complete with no maximum.
    """
    p = profile(x)
    if not (p.has_left_endpoint and p.has_right_endpoint):
        return None
    if p.size == 1:
        return True
    d = decompose(x)
    if d is None:
        return False
    if d.left == ONE_FORM and d.right == ONE_FORM and d.blocks == (ONE_FORM,):
        return True
    _, _, b_left, b_right, b_junction = _case_bits(d)
    # Where L is not a block, every block point needs a predecessor, and
    # where R is not a block, a successor.
    return b_junction and all(
        (b_left or (q.pred_complete and not q.has_left_endpoint))
        and (b_right or (q.succ_complete and not q.has_right_endpoint))
        for q in (profile(cf_to_term(b)) for b in d.blocks)
    )

