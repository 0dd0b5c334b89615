"""Term algebra for countable linear order types.

Terms denote order types built from the finite orders, N, N*, and Z by
sums, lexicographic products, shuffles, and reversal.  Every operation
in this package is a pure function, so terms may be shared freely
across threads.

Terms, like the canonical forms of ``canon``, are ``node`` classes:
immutable, slotted (no per-instance ``__dict__``), and carrying a hash
computed once, when the node is built, from the stored hashes of its
children.  So hashing a term, as every cache lookup does, takes
constant time and never recurses, however deep the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import attrgetter


def _stored_hash(self) -> int:
    return self._hash


def _reduce(self):
    # Rebuild through the constructor, so that an unpickled node
    # computes its hash in the new process (str hashes are salted).
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def node(cls):
    """Make cls an immutable tree node whose hash is computed once.

    cls lists its fields as annotations and, with a ``_hash`` slot that
    a base class may supply, in ``__slots__``.  The node is a frozen
    dataclass on those slots; its ``__post_init__`` runs the class's
    own ``__post_init__``, if any, then stores the hash of the class
    name and the field values, and ``__hash__`` returns it.  A class
    without fields keeps its one hash value on the class instead.  The
    class name tells apart nodes with equal fields, such as
    ``Sum(a, b)`` and ``Product(a, b)``, or ``Omega()`` and ``Zeta()``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    tag = cls.__qualname__
    if names:
        own = cls.__dict__.get("__post_init__")
        values = attrgetter(*names)
        store = object.__setattr__

        def __post_init__(self) -> None:
            if own is not None:
                own(self)
            store(self, "_hash", hash((tag, values(self))))

        cls.__post_init__ = __post_init__
    else:
        cls._hash = hash((tag,))
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _stored_hash
    cls.__reduce__ = _reduce
    return cls


class OrderTerm:
    """Base class for order-type expressions."""

    __slots__ = ("_hash",)


@node
class Empty(OrderTerm):
    """The empty order 0."""

    __slots__ = ()


@node
class Single(OrderTerm):
    """The one-point order 1."""

    __slots__ = ()


@node
class Finite(OrderTerm):
    """A finite order with n >= 2 points (0 and 1 have their own nodes)."""

    __slots__ = ("n",)

    n: int


@node
class Omega(OrderTerm):
    """The natural numbers N in their usual order."""

    __slots__ = ()


@node
class OmegaStar(OrderTerm):
    """The reversed natural numbers N*."""

    __slots__ = ()


@node
class Zeta(OrderTerm):
    """The integers Z."""

    __slots__ = ()


@node
class Sum(OrderTerm):
    """left followed by right."""

    __slots__ = ("left", "right")

    left: OrderTerm
    right: OrderTerm


@node
class Product(OrderTerm):
    """index-many consecutive copies of fiber, ordered lexicographically.

    ``Product(A, X)`` is "A copies of X": pairs (a, x) compared by a
    first, then x.
    """

    __slots__ = ("index", "fiber")

    index: OrderTerm
    fiber: OrderTerm


@node
class Shuffle(OrderTerm):
    """A dense mixture of the block orders along the rationals.

    Each block type replaces a dense set of rational points; up to
    isomorphism the result does not depend on the chosen partition.
    """

    __slots__ = ("blocks",)

    blocks: tuple[OrderTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))


@node
class Reverse(OrderTerm):
    """The mirror image of body."""

    __slots__ = ("body",)

    body: OrderTerm


# The binary nodes whose chains are spines, and how to split each one.
_SPINES = {Sum: attrgetter("left", "right"), Product: attrgetter("index", "fiber")}


def operands(t: OrderTerm) -> list[OrderTerm]:
    """The operands of t's left-nested Sum or Product spine, left to right;
    [t] if t is neither.  A long chain is a deep spine: callers walk its
    operands with a loop instead of recursing once per operand."""
    op, parts = type(t), []
    split = _SPINES.get(op)
    while split and type(t) is op:
        t, right = split(t)
        parts.append(right)
    parts.append(t)
    parts.reverse()
    return parts


def leaves(t: OrderTerm) -> list[OrderTerm]:
    """The operands of t's whole Sum or Product tree, left to right, on
    whichever side each node nests; [t] if t is neither.

    Both operators are associative, so a caller that needs only the order
    t denotes may walk these in place of operands.  A reversed sum nests
    to the right, and this walks it with a loop as well.
    """
    op, parts, todo = type(t), [], [t]
    split = _SPINES.get(op)
    while todo:
        u = todo.pop()
        if split and type(u) is op:
            todo += reversed(split(u))
        else:
            parts.append(u)
    return parts


class ValidationError(ValueError):
    """A term violates a structural invariant.

    ``kind`` is one of ``EmptyShuffleBlock``, ``EmptyBlockList``,
    ``BadFinite``; ``subterm`` is the offending node.
    """

    def __init__(self, kind: str, subterm: OrderTerm, message: str):
        super().__init__(message)
        self.kind = kind
        self.subterm = subterm


class StuckError(Exception):
    """No sound rewrite applies to a residual product; no verdict is given."""

    def __init__(self, subterm: OrderTerm):
        super().__init__(f"no rewrite applies to {subterm!r}")
        self.subterm = subterm


class UnsupportedError(Exception):
    """The query leaves the fragment where verdicts are guaranteed."""


class InternalInvariantError(Exception):
    """A canonical form violated its own invariants; this is a bug."""


def validate(t: OrderTerm) -> None:
    """Check all constructor invariants recursively; raise on the first hit."""
    match t:
        case Empty() | Single() | Omega() | OmegaStar() | Zeta():
            pass
        case Finite(n):
            if not isinstance(n, int) or n < 2:
                raise ValidationError("BadFinite", t, f"Finite needs n >= 2, got {n!r}")
        case Sum() | Product():
            for part in operands(t):
                validate(part)
        case Shuffle(blocks):
            if not blocks:
                raise ValidationError("EmptyBlockList", t, "shuffle needs at least one block")
            for b in blocks:
                if b == Empty():
                    raise ValidationError("EmptyShuffleBlock", t, "shuffle blocks must be non-empty orders")
                validate(b)
        case Reverse():
            while isinstance(t, Reverse):
                t = t.body
            validate(t)
        case _:
            raise TypeError(f"not an OrderTerm: {t!r}")


@cache
def desugar(t: OrderTerm) -> OrderTerm:
    """Eliminate Reverse nodes and interior Empty subterms.

    The result denotes an isomorphic order, contains no Reverse node,
    and contains Empty only as the whole term.  Blocks that reduce to
    the empty order are dropped from shuffles (replacing points of a
    dense class by nothing just deletes those points).  A term with
    nothing to eliminate is returned as it is, so later lookups of it
    hit by identity instead of comparing equal trees node by node.
    """
    todo = [t]  # walked with a loop, so that a deep term costs no recursion
    while todo:
        match todo.pop():
            case Sum(a, b) | Product(a, b):
                todo += (a, b)
            case Shuffle(blocks):
                todo += blocks
            case Reverse():
                break
            case Empty() as u if u is not t:
                break
    else:
        return t
    match t:
        case Reverse():
            # A chain of reversals cancels in pairs; only its parity counts.
            odd = False
            while isinstance(t, Reverse):
                t, odd = t.body, not odd
            return _reverse(desugar(t)) if odd else desugar(t)
        case Sum() | Product():
            parts = list(map(desugar, operands(t)))
            if isinstance(t, Product) and Empty() in parts:
                return Empty()  # an empty factor empties the product
            kept = [p for p in parts if p != Empty()]  # an empty summand drops out
            return reduce(type(t), kept) if kept else Empty()
        case Shuffle(blocks):
            kept = tuple(b for b in map(desugar, blocks) if b != Empty())
            return Shuffle(kept) if kept else Empty()


def _reverse(t: OrderTerm) -> OrderTerm:
    # t is already desugared; push reversal down to the atoms.  The mirror
    # of Sum(a, b) is Sum(b~, a~) and that of Product(x, y) is Product(x~, y~);
    # both are walked with a stack, so a long chain costs no recursion.
    todo, done = [t], []
    while todo:
        match todo.pop():
            case Sum(a, b) | Product(b, a) as u:
                # b is mirrored first, then a, then the operator joins the
                # mirrors in that order: a sum's parts swap, a product's not.
                todo += (type(u), a, b)
            case type() as op:
                ma, mb = done.pop(), done.pop()
                done.append(op(mb, ma))
            case Empty() | Single() | Finite() | Zeta() as u:
                done.append(u)
            case Omega():
                done.append(OmegaStar())
            case OmegaStar():
                done.append(Omega())
            case Shuffle(blocks):
                done.append(Shuffle(tuple(_reverse(b) for b in blocks)))
            case u:
                raise AssertionError(f"unreachable: {u!r}")
    return done.pop()
