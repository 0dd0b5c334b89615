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

from functools import cache


def _stored_hash(self) -> int:
    return self._hash


def _reduce(self):
    # Rebuild through the constructor, so that an unpickled node
    # computes its hash in the new process (str hashes are salted).
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError  # loaded only on this error path

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def node(cls):
    """Make cls an immutable tree node whose hash is computed once.

    cls lists its fields as annotations and, with a ``_hash`` slot that
    a base class may supply, in ``__slots__``.  node writes what a frozen
    dataclass on those slots would have, without loading ``dataclasses``:
    ``__eq__``, ``__repr__``, ``__match_args__``, a ``__setattr__`` that
    raises ``FrozenInstanceError``, and an ``__init__`` that stores the
    fields, runs the class's own ``__post_init__``, if any, then stores
    the hash of the class name and the field values, which ``__hash__``
    returns.  A class without fields keeps its one hash value on the
    class instead.  The class name tells apart nodes with equal fields,
    such as ``Sum(a, b)`` and ``Product(a, b)``, or ``Omega()`` and ``Zeta()``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    tag, own = cls.__qualname__, cls.__dict__.get("__post_init__")
    mine, theirs = ("".join(f"{who}.{n}, " for n in names) for who in ("self", "other"))
    same = f"({mine}) == ({theirs})" if names else "True"
    # Generated, as dataclass does: fields in locals beat a loop over names.
    source = (f"def __eq__(self, other):\n    return {same} "
              "if other.__class__ is self.__class__ else NotImplemented\n")
    if names:
        key = ", ".join(f"self.{n}" if own else n for n in names)  # one field is hashed bare
        source += (f"def __init__(self, {', '.join(names)}):\n"
                   + "".join(f"    store(self, {n!r}, {n})\n" for n in names)
                   + ("    own(self)\n" if own else "")
                   + f"    store(self, '_hash', hash((tag, ({key}))))\n")
    else:
        cls._hash = hash((tag,))
    scope = {"store": object.__setattr__, "own": own, "tag": tag, "__init__": object.__init__}
    exec(source, scope)
    cls.__init__, cls.__eq__ = scope["__init__"], scope["__eq__"]
    cls.__repr__ = lambda self: f"{tag}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
    cls.__match_args__, cls.__hash__, cls.__reduce__ = names, _stored_hash, _reduce
    cls.__setattr__ = cls.__delattr__ = _frozen
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
    """Its parts in order, each followed by the next: a + b + c is Sum(a, b, c).

    ``Sum(*parts)`` takes two or more parts and splices a first part that
    is itself a Sum, never a later one: ``Sum(Sum(a, b), c)`` is
    ``Sum(a, b, c)``, while ``Sum(a, Sum(b, c))``, which ``a + (b + c)``
    parses to, keeps its bracket node.
    """

    __slots__ = ("parts",)

    parts: tuple[OrderTerm, ...]


@node
class Product(OrderTerm):
    """Lexicographic product: ``Product(A, X)`` is "A copies of X", pairs
    (a, x) compared by a first, then x.  ``Product(*parts)`` splices as
    Sum does: p1*p2*p3 is ``Product(p1, p2, p3)``, of triples.
    """

    __slots__ = ("parts",)

    parts: tuple[OrderTerm, ...]


def _parts_init(self, *parts):
    if len(parts) < 2:
        raise TypeError(f"{type(self).__name__} needs two or more parts, got {len(parts)}")
    if parts[0].__class__ is self.__class__:
        parts = parts[0].parts + parts[1:]
    object.__setattr__(self, "parts", parts)
    object.__setattr__(self, "_hash", hash((type(self).__qualname__, parts)))


Sum.__init__ = Product.__init__ = _parts_init
Sum.__reduce__ = Product.__reduce__ = lambda self: (type(self), self.parts)


def join(op, parts) -> OrderTerm:
    """op(*parts) for two or more parts, the one part itself, or Empty() for none."""
    return op(*parts) if len(parts) > 1 else parts[0] if parts else Empty()


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


def _reverse_eq(self, other):
    # A run of ~ is as deep as it is long, and the generated __eq__ would
    # recurse once per ~: unwind both runs with a loop instead.
    if other.__class__ is not Reverse:
        return NotImplemented
    while self._hash == other._hash:
        self, other = self.body, other.body
        if self.__class__ is not Reverse or other.__class__ is not Reverse:
            return self == other
    return False


Reverse.__eq__ = _reverse_eq


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
        case Sum(parts) | Product(parts):
            for part in parts:
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
            case Sum(parts) | Product(parts):
                todo += parts
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
        case Sum(parts) | Product(parts):
            parts = list(map(desugar, parts))
            if isinstance(t, Product) and Empty() in parts:
                return Empty()  # an empty factor empties the product
            return join(type(t), [p for p in parts if p != Empty()])  # an empty summand drops out
        case Shuffle(blocks):
            kept = tuple(b for b in map(desugar, blocks) if b != Empty())
            return Shuffle(kept) if kept else Empty()


def _reverse(t: OrderTerm) -> OrderTerm:
    # t is already desugared; push reversal down to the atoms.  The mirror
    # of Sum(p1, ..., pk) is Sum(pk~, ..., p1~) and that of a product is
    # the product of the mirrors, in the same order.
    match t:
        case Sum(parts):
            return Sum(*map(_reverse, reversed(parts)))
        case Product(parts):
            return Product(*map(_reverse, parts))
        case Empty() | Single() | Finite() | Zeta():
            return t
        case Omega():
            return OmegaStar()
        case OmegaStar():
            return Omega()
        case Shuffle(blocks):
            return Shuffle(tuple(map(_reverse, blocks)))
    raise AssertionError(f"unreachable: {t!r}")
