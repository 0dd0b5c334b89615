"""Canonical forms: scattered normal forms, shuffle minimal representations,
equality, segment decisions, and rendering as terms or DOT digraphs.

A canonical form is an alternating sequence of scattered parts and
shuffle nodes whose block sets are minimal: no block contains a convex
copy of the shuffle.  Equality of canonical forms is ``==``.  On the
tame fragment (scattered parts built from finite atoms, N, N*, Z only)
it decides isomorphism.  Scattered parts that need an infinite-power
atom (Pow) have no normal form yet: outside the tame fragment, Equal
means identical forms, and different forms are StructuralOnly, never a
wrong verdict.  Segment queries refuse such forms.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce

from .terms import (
    Empty,
    Finite,
    InternalInvariantError,
    Omega,
    OmegaStar,
    OrderTerm,
    Product,
    Shuffle,
    Single,
    StuckError,
    Sum,
    UnsupportedError,
    Zeta,
    desugar,
    leaves,
    node,
    operands,
)
from .textio import print_term


# ---------------------------------------------------------------------------
# scattered normal forms


class ScatAtom:
    __slots__ = ("_hash",)


@node
class Fin(ScatAtom):
    __slots__ = ("n",)

    n: int


@node
class W(ScatAtom):
    """N."""

    __slots__ = ()


@node
class Wstar(ScatAtom):
    """N*."""

    __slots__ = ()


@node
class Zat(ScatAtom):
    """Z."""

    __slots__ = ()


@node
class Pow(ScatAtom):
    """kind-many copies of body; kind is "N", "N~", or "Z"."""

    __slots__ = ("kind", "body")

    kind: str
    body: tuple[ScatAtom, ...]


def _fix_tail(out: list[ScatAtom]) -> None:
    # Junction rewrites, each strictly shortens: k+k' -> (k+k'),
    # k+N -> N, N*+k -> N*, N*+N -> Z.
    while len(out) >= 2:
        a, b = out[-2], out[-1]
        if isinstance(a, Fin) and isinstance(b, Fin):
            out[-2:] = [Fin(a.n + b.n)]
        elif isinstance(a, Fin) and isinstance(b, W):
            out[-2:] = [W()]
        elif isinstance(a, Wstar) and isinstance(b, Fin):
            out[-2:] = [Wstar()]
        elif isinstance(a, Wstar) and isinstance(b, W):
            out[-2:] = [Zat()]
        else:
            break


def _concat_atoms(*parts: tuple[ScatAtom, ...]) -> tuple[ScatAtom, ...]:
    out: list[ScatAtom] = []
    for part in parts:
        for atom in part:
            out.append(atom)
            _fix_tail(out)
    return tuple(out)


# The infinite atoms: each term, the Pow kind it indexes, and its atom.
_KAPPA = {Omega(): ("N", W()), OmegaStar(): ("N~", Wstar()), Zeta(): ("Z", Zat())}
_KAPPA_HEAD = {kind: t for t, (kind, _) in _KAPPA.items()}
_REV_KIND = {"N": "N~", "N~": "N", "Z": "Z"}


def _pow_atoms(kind: str, body: tuple[ScatAtom, ...]) -> tuple[ScatAtom, ...]:
    # Rotation: if moving the boundary component across the repetition
    # shortens the body (a junction fires), peel it off and repeat.  The
    # N~ rotation is the mirror image of the N rotation.
    if kind == "Z":
        return (Pow("Z", body),)
    if kind == "N~":
        return _atoms_reverse(_pow_atoms("N", _atoms_reverse(body)))
    prefix: tuple[ScatAtom, ...] = ()
    while len(body) > 1:
        rot = _concat_atoms(body[1:], body[:1])
        if len(rot) >= len(body):
            break
        prefix = _concat_atoms(prefix, body[:1])
        body = rot
    return _concat_atoms(prefix, (Pow("N", body),))


def _atom_reverse(a: ScatAtom) -> ScatAtom:
    match a:
        case Fin() | Zat():
            return a
        case W():
            return Wstar()
        case Wstar():
            return W()
        case Pow(kind, body):
            return Pow(_REV_KIND[kind], _atoms_reverse(body))
    raise AssertionError


def _atoms_reverse(atoms: tuple[ScatAtom, ...]) -> tuple[ScatAtom, ...]:
    return tuple(_atom_reverse(a) for a in reversed(atoms))


# ---------------------------------------------------------------------------
# canonical forms


@node
class Scat:
    __slots__ = ("atoms", "_hash")

    atoms: tuple[ScatAtom, ...]


@node
class Shuf:
    __slots__ = ("blocks", "_hash")

    blocks: tuple["CanonicalForm", ...]


@node
class CanonicalForm:
    """``tame``, stored when the form is built: no scattered part of the
    form or of its blocks holds a Pow atom.  ``classification``, None
    until ``classify`` fills it, is no field: ``==``, hash, repr, copies
    and pickles ignore it."""

    __slots__ = ("components", "tame", "classification", "_hash")

    components: tuple[Scat | Shuf, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tame", all(
            Pow not in map(type, c.atoms) if isinstance(c, Scat)
            else all(b.tame for b in c.blocks)
            for c in self.components
        ))
        object.__setattr__(self, "classification", None)


EMPTY_FORM = CanonicalForm(())

_KIND_RANK = {"N": 0, "N~": 1, "Z": 2}


def _atom_key(a: ScatAtom):
    match a:
        case Fin(n):
            return (0, n)
        case W():
            return (1, 0)
        case Wstar():
            return (2, 0)
        case Zat():
            return (3, 0)
        case Pow(kind, body):
            return (4, _KIND_RANK[kind], tuple(_atom_key(x) for x in body))
    raise AssertionError


def _comp_key(c: Scat | Shuf):
    if isinstance(c, Scat):
        return (0, tuple(_atom_key(a) for a in c.atoms))
    return (1, tuple(_form_key(b) for b in c.blocks))


def _form_key(cf: CanonicalForm):
    return tuple(_comp_key(c) for c in cf.components)


# --- equality (identity of canonical forms) ---


class Equality(Enum):
    EQUAL = "Equal"
    NOT_EQUAL = "NotEqual"
    STRUCTURAL_ONLY = "StructuralOnly"


def cf_equal(a: CanonicalForm, b: CanonicalForm) -> Equality:
    """Equal exactly when the two forms are identical.

    On the tame fragment that decides isomorphism, so different tame
    forms are NotEqual.  Outside it, Equal means identical forms, and a
    difference means only "not proven": StructuralOnly, never NotEqual.
    """
    if a == b:
        return Equality.EQUAL
    if a.tame and b.tame:
        return Equality.NOT_EQUAL
    return Equality.STRUCTURAL_ONLY


# --- component concatenation with merge rules ---


def _push(out: list, comp) -> None:
    if isinstance(comp, Scat):
        if comp.atoms:
            out.append(comp)
        return
    # comp is a shuffle node
    if out and out[-1] == comp:
        return
    if (
        len(out) >= 2
        and isinstance(out[-1], Scat)
        and out[-2] == comp
        and CanonicalForm((out[-1],)) in comp.blocks
    ):
        # Q[A] + s + Q[A] with s a block of A: the junction copy of s
        # dissolves into the surrounding dense mixture.
        out.pop()
        return
    out.append(comp)


def concat_components(*lists) -> tuple:
    """Concatenate component sequences, applying the junction merge rules."""
    out: list = []
    # Consecutive scattered parts are joined in one pass: pushing them
    # one at a time would renormalize the growing part for each one,
    # quadratic in the length of a long sum.
    run: list[Scat] = []
    for comps in lists:
        for comp in comps:
            if isinstance(comp, Scat):
                run.append(comp)
                continue
            if run:
                _push(out, _join(run))
                run = []
            _push(out, comp)
    if run:
        _push(out, _join(run))
    return tuple(out)


def _join(run: list[Scat]) -> Scat:
    return run[0] if len(run) == 1 else Scat(_concat_atoms(*(c.atoms for c in run)))


def _repeat_form(cf: CanonicalForm, n: int) -> CanonicalForm:
    result: tuple = ()
    piece = cf.components
    while n:
        if n & 1:
            result = concat_components(result, piece)
        n >>= 1
        if n:
            piece = concat_components(piece, piece)
    return CanonicalForm(result)


# --- shuffle normalization (minimal representations) ---


def _dedup_sort(blocks) -> tuple[CanonicalForm, ...]:
    return tuple(sorted(set(blocks), key=_form_key))


def _try_flatten(blocks: tuple[CanonicalForm, ...]) -> tuple[CanonicalForm, ...] | None:
    for j in blocks:
        inner_sets = [c for c in j.components if isinstance(c, Shuf)]
        if not inner_sets:
            continue
        pieces = [b for b in blocks if b != j]
        for shuf in inner_sets:
            pieces.extend(shuf.blocks)
        for comp in j.components:
            if isinstance(comp, Scat) and comp.atoms:
                pieces.append(CanonicalForm((comp,)))
        candidate = _dedup_sort(pieces)
        # Flattening a composite block is only an isomorphism when the
        # combined block set reproduces every one of the block's inner
        # sets: then every inner shuffle is dense in every block of the
        # result, and so is the whole.  Q[1 + Q[Z]] is not Q[1, Z]: the
        # chunk 1 + Q[Z] contains no convex copy of Q[1, Z].  Nor is
        # Q[Q[1,2] + Q] the Q[1,2] that matching one inner set would
        # give: every copy of its block ends in an interval with no
        # successor pair, and Q[1,2] has no such interval.
        if all(candidate == shuf.blocks for shuf in inner_sets):
            return candidate
    return None


def _canon_shuffle(blocks) -> Shuf:
    blocks = _dedup_sort(blocks)
    while True:
        candidate = _try_flatten(blocks)
        if candidate is None:
            break
        blocks = candidate
    for j in blocks:
        for comp in j.components:
            if isinstance(comp, Shuf) and comp.blocks == blocks:
                raise InternalInvariantError(
                    "a block of a normalized shuffle contains a convex copy of the shuffle"
                )
    return Shuf(blocks)


# --- full canonicalization ---


def canonicalize(t: OrderTerm) -> CanonicalForm:
    """Rewrite t to its canonical form.

    Raises StuckError when a residual product admits no sound rewrite
    (the junction of the fiber is neither empty nor one of its blocks);
    a wrong form is never returned.
    """
    return _canon(desugar(t))


@cache
def _canon(t: OrderTerm) -> CanonicalForm:
    match t:
        case Empty():
            return EMPTY_FORM
        case Single():
            return CanonicalForm((Scat((Fin(1),)),))
        case Finite(n):
            return CanonicalForm((Scat((Fin(n),)),))
        case Omega() | OmegaStar() | Zeta():
            return CanonicalForm((Scat((_KAPPA[t][1],)),))
        case Sum():
            return CanonicalForm(concat_components(*(_canon(p).components for p in leaves(t))))
        case Shuffle(blocks):
            return CanonicalForm((_canon_shuffle([_canon(b) for b in blocks]),))
        case Product():
            # x1*...*xk*y is canonicalized as x1*(...*(xk*y)) from the
            # inside out, so each step finds its fiber's form in the cache.
            x, *xs, y = operands(t)
            for i in reversed(xs):
                y = Product(i, y)
                _canon(y)
            return _canon_product(x, y)
    raise AssertionError(f"unreachable: {t!r}")


def _canon_product(x: OrderTerm, y: OrderTerm) -> CanonicalForm:
    match x:
        case Single():
            return _canon(y)
        case Finite(n):
            return _repeat_form(_canon(y), n)
        case Sum():
            return CanonicalForm(
                concat_components(*(_canon(Product(a, y)).components for a in leaves(x)))
            )
        case Shuffle(blocks):
            return _canon(Shuffle(tuple(Product(i, y) for i in blocks)))
        case Omega() | OmegaStar() | Zeta():
            return _kappa_product(x, y)
    raise AssertionError(f"unreachable index: {x!r}")


def _kappa_product(x: OrderTerm, y: OrderTerm) -> CanonicalForm:
    kind, atom = _KAPPA[x]
    cf = _canon(y)
    shuf_at = [i for i, c in enumerate(cf.components) if isinstance(c, Shuf)]
    if not shuf_at:
        atoms = cf.components[0].atoms
        if len(atoms) == 1 and isinstance(atoms[0], Fin):
            return CanonicalForm((Scat((atom,)),))
        return CanonicalForm((Scat(_pow_atoms(kind, atoms)),))
    if len(shuf_at) != 1:
        raise StuckError(Product(x, y))
    i = shuf_at[0]
    left = cf.components[:i]
    shuf = cf.components[i]
    right = cf.components[i + 1:]
    l_atoms = left[0].atoms if left else ()
    r_atoms = right[0].atoms if right else ()
    # Consecutive copies of the fiber meet as R + L; that junction must
    # dissolve into the dense mixture for the product to collapse.
    junction = _concat_atoms(r_atoms, l_atoms)
    if junction and CanonicalForm((Scat(junction),)) not in shuf.blocks:
        raise StuckError(Product(x, y))
    if kind == "N":
        return CanonicalForm(left + (shuf,))
    if kind == "N~":
        return CanonicalForm((shuf,) + right)
    return CanonicalForm((shuf,))


# --- conversion back to terms, and to DOT ---


def _atom_term(a: ScatAtom) -> OrderTerm:
    match a:
        case Fin(1):
            return Single()
        case Fin(n):
            return Finite(n)
        case W():
            return Omega()
        case Wstar():
            return OmegaStar()
        case Zat():
            return Zeta()
        case Pow(kind, body):
            return Product(_KAPPA_HEAD[kind], _atoms_term(body))
    raise AssertionError


def _atoms_term(atoms: tuple[ScatAtom, ...]) -> OrderTerm:
    return reduce(Sum, map(_atom_term, atoms))


def cf_to_term(cf: CanonicalForm) -> OrderTerm:
    """A term denoting the same order as the canonical form."""
    parts = []
    for comp in cf.components:
        if isinstance(comp, Scat):
            parts.append(_atoms_term(comp.atoms))
        else:
            parts.append(Shuffle(tuple(cf_to_term(b) for b in comp.blocks)))
    return reduce(Sum, parts) if parts else Empty()


def to_dot(cf: CanonicalForm) -> str:
    """Render a canonical form as a DOT digraph.

    One node per component; consecutive components are chained with
    solid edges, shuffle nodes fan out to their block subtrees with
    dashed edges.  Node ids are preorder indices, so output is
    deterministic.
    """
    lines = ["digraph canonical {", "  node [shape=box];"]
    counter = [0]

    def fresh() -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        return nid

    def emit_chain(components) -> list[str]:
        ids = []
        for comp in components:
            nid = fresh()
            ids.append(nid)
            if isinstance(comp, Scat):
                label = print_term(cf_to_term(CanonicalForm((comp,))))
                lines.append(f'  {nid} [label="{label}"];')
            else:
                assert isinstance(comp, Shuf)
                lines.append(f'  {nid} [label="Q[{len(comp.blocks)}]", shape=ellipse];')
                for block in comp.blocks:
                    block_ids = emit_chain(block.components)
                    lines.append(f"  {nid} -> {block_ids[0]} [style=dashed];")
        for a, b in zip(ids, ids[1:]):
            lines.append(f"  {a} -> {b};")
        return ids

    if cf.components:
        emit_chain(cf.components)
    lines.append("}")
    return "\n".join(lines) + "\n"


def reverse_form(cf: CanonicalForm) -> CanonicalForm:
    """Mirror image of a canonical form (stays canonical)."""
    comps = []
    for comp in reversed(cf.components):
        if isinstance(comp, Scat):
            comps.append(Scat(_atoms_reverse(comp.atoms)))
        else:
            comps.append(Shuf(_dedup_sort(reverse_form(b) for b in comp.blocks)))
    return CanonicalForm(tuple(comps))


# --- segment decisions (tame fragment only) ---


def _atom_initial(a: ScatAtom, b: ScatAtom) -> bool:
    # Is the order of atom a a (possibly improper) initial segment of b?
    match b:
        case Fin(k):
            return isinstance(a, Fin) and a.n <= k
        case W():
            return isinstance(a, (Fin, W))
        case Wstar():
            return isinstance(a, Wstar)
        case Zat():
            return isinstance(a, (Wstar, Zat))
    raise AssertionError


def _atoms_initial(x: tuple[ScatAtom, ...], y: tuple[ScatAtom, ...]) -> bool:
    if not x:
        return True
    if len(x) > len(y):
        return False
    if x[:-1] != y[: len(x) - 1]:
        return False
    return _atom_initial(x[-1], y[len(x) - 1])


def _is_initial(s: tuple, t: tuple) -> bool:
    if not s:
        return True
    if not t:
        return False
    d, c = s[0], t[0]
    if d == c:
        if _is_initial(s[1:], t[1:]):
            return True
        if isinstance(c, Shuf) and len(s) > 1:
            # A cut inside the shuffle leaves the whole shuffle plus an
            # initial chunk of one block; nothing of t beyond c survives.
            return any(_is_initial(s[1:], j.components) for j in c.blocks)
        return False
    if len(s) == 1 and isinstance(d, Scat) and isinstance(c, Scat):
        return _atoms_initial(d.atoms, c.atoms)
    return False


def is_initial_segment(s: CanonicalForm, t: CanonicalForm) -> bool:
    """Does s belong to the family of initial segments of t?"""
    if not (s.tame and t.tame):
        raise UnsupportedError("segment decisions require tame canonical forms")
    return _is_initial(s.components, t.components)


def is_final_segment(s: CanonicalForm, t: CanonicalForm) -> bool:
    """Does s belong to the family of final segments of t?"""
    if not (s.tame and t.tame):
        raise UnsupportedError("segment decisions require tame canonical forms")
    return _is_initial(reverse_form(s).components, reverse_form(t).components)
