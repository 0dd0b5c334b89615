"""Canonical forms: scattered normal forms, shuffle minimal representations,
equality, segment decisions, and rendering as terms or DOT digraphs.

A canonical form is an alternating sequence of scattered parts and
shuffle nodes whose block sets are minimal.  One rule flattens them:
Q[B] is Q[I] when I is the block set of a shuffle inside a block of B,
and each block of B is a block of I or is made of shuffles Q[I] and of
scattered parts that are blocks of I.  Equality of canonical forms is
``==``.  On the tame fragment (scattered parts built from finite atoms,
N, N*, Z only) it decides isomorphism as far as tame forms are unique,
which is argued, not proven.  Open are blocks holding shuffles of other
block sets or scattered parts outside their inner set (Q[Q[1,2] + Q],
Q[1 + Q[Z]]), and a scattered part between two equal shuffles that is
no block of theirs (Q[Z] + 2 + Q[Z]); an interval found case by case
tells each apart.  Scattered parts that need an infinite-power atom
(Pow) have no normal form yet: outside the tame fragment, Equal means
identical forms, and different forms are StructuralOnly, never a wrong
verdict.  Segment queries refuse such forms.

A term t is t copies of one point: one walk (``_times``) applies an index
to a fiber's components, from ONE_FORM's, and a form is built only for
the answer and for each shuffle block.

Each infinite atom (N, N*, Z) is one row of ``_KINDS``: its rank in
block order, the Pow kind it indexes, its term, its mirror image and the
atoms whose orders are its initial segments.  ``_MERGE`` holds the
junction rewrites k+N -> N, N*+k -> N* and N*+N -> Z.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import count
from typing import NamedTuple

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
    join,
    node,
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


class _Kind(NamedTuple):
    rank: int  # in block order: after every Fin, before every Pow
    kind: str  # the Pow kind the atom's term indexes
    term: OrderTerm
    mirror: type[ScatAtom]
    initial: tuple[type[ScatAtom], ...]  # atoms whose orders are its initial segments


# The infinite atoms, one row each.
_KINDS = {
    W: _Kind(1, "N", Omega(), Wstar, (Fin, W)),
    Wstar: _Kind(2, "N~", OmegaStar(), W, (Wstar,)),
    Zat: _Kind(3, "Z", Zeta(), Zat, (Wstar, Zat)),
}
_BY_KIND = {row.kind: row for row in _KINDS.values()}
_KAPPA = {row.term: (row.kind, atom()) for atom, row in _KINDS.items()}

# Junction rewrites besides k+k' -> (k+k'), each strictly shortening.
_MERGE = {(Fin, W): W(), (Wstar, Fin): Wstar(), (Wstar, W): Zat()}


def _fix_tail(out: list[ScatAtom]) -> None:
    while len(out) >= 2:
        a, b = out[-2], out[-1]
        if type(a) is Fin and type(b) is Fin:
            out[-2:] = [Fin(a.n + b.n)]
        elif (m := _MERGE.get((type(a), type(b)))) is not None:
            out[-2:] = [m]
        else:
            break


def _concat_atoms(*parts: tuple[ScatAtom, ...]) -> tuple[ScatAtom, ...]:
    # Each part is normal, and each rewrite's result merges with the same
    # right neighbours as its right operand (k+k', N*+k: k's; k+N, N*+N:
    # none).  So only a part's first atom can merge: the rest is copied.
    out: list[ScatAtom] = []
    for part in parts:
        if part:
            out.append(part[0])
            _fix_tail(out)
            out += part[1:]
    return tuple(out)


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
        case Fin():
            return a
        case Pow(kind, body):
            return Pow(_KINDS[_BY_KIND[kind].mirror].kind, _atoms_reverse(body))
    return _KINDS[type(a)].mirror()


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


ONE_FORM = CanonicalForm((Scat((Fin(1),)),))


def _atom_key(a: ScatAtom):
    # Pow kinds sort as their strings do: N < N~ < Z.
    match a:
        case Fin(n):
            return (0, n)
        case Pow(kind, body):
            return (4, kind, tuple(_atom_key(x) for x in body))
    return (_KINDS[type(a)].rank, 0)


def _comp_key(c: Scat | Shuf, keys: dict):
    if isinstance(c, Scat):
        return (0, tuple(_atom_key(a) for a in c.atoms))
    return (1, tuple(_form_key(b, keys) for b in c.blocks))


def _form_key(cf: CanonicalForm, keys: dict):
    # keys holds the sort keys that one canonicalization has computed.
    key = keys.get(cf)
    if key is None:
        key = keys[cf] = tuple(_comp_key(c, keys) for c in cf.components)
    return key


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
        and any(b.components == (out[-1],) for b in comp.blocks)
    ):
        # Q[A] + s + Q[A] with s a block of A: the junction copy of s
        # dissolves into the surrounding dense mixture.
        out.pop()
        return
    out.append(comp)


def concat_components(*lists) -> tuple:
    """Concatenate normal component sequences, applying the junction merge rules.

    Each list is normal, as a canonical form's components and their
    slices are: no merge rule fires inside it.  ``_push`` looks back two
    components only when the last one is scattered, so once a list's
    first shuffle is pushed, and it (or an equal one) ends the output,
    pushing the rest of the list changes nothing: it is copied in bulk,
    but for a trailing scattered part, which stays in the run to join
    the next list's.  Merging thus happens only at the junctions, and n
    copies cost log n junction steps plus copying.  ``_concat_atoms``
    does the same with atoms.
    """
    out: list = []
    # Consecutive scattered parts are joined in one pass: pushing them
    # one at a time would renormalize the growing part for each one,
    # quadratic in the length of a long sum.
    run: list[Scat] = []
    for comps in lists:
        for i, comp in enumerate(comps):
            if isinstance(comp, Scat):
                run.append(comp)
                continue
            if run:
                _push(out, _join(run))
                run = []
            _push(out, comp)
            end = len(comps) - isinstance(comps[-1], Scat)
            out += comps[i + 1:end]
            run += comps[end:]
            break
    if run:
        _push(out, _join(run))
    return tuple(out)


def _join(run: list[Scat]) -> Scat:
    return run[0] if len(run) == 1 else Scat(_concat_atoms(*(c.atoms for c in run)))


def _repeat_form(comps: tuple, n: int) -> tuple:
    match comps:
        case (Scat((Fin(k),)),):  # n copies of k points, in one step
            return (Scat((Fin(n * k),)),)
        case (Scat(atoms),):  # one Scat node, built (and hashed) once
            return (Scat(_repeat(_concat_atoms, atoms, n)),)
    return _repeat(concat_components, comps, n)


def _repeat(concat, piece: tuple, n: int) -> tuple:
    # n copies of piece by doubling: about 2 log n concatenations.
    result: tuple = ()
    while n:
        if n & 1:
            result = concat(result, piece)
        n >>= 1
        if n:
            piece = concat(piece, piece)
    return result


# --- shuffle normalization (minimal representations) ---


def _dedup_sort(blocks, keys: dict) -> tuple[CanonicalForm, ...]:
    return tuple(sorted(set(blocks), key=lambda b: _form_key(b, keys)))


def _try_flatten(blocks: tuple[CanonicalForm, ...]) -> tuple[CanonicalForm, ...] | None:
    # The rule of the module docstring.  A block outside I holds a Q[I]
    # and is dense in Q[B]; cut into blocks of I, Q[B] is a dense order
    # of their copies without endpoints, with a Q[I] between any two, so
    # every colour of I is dense.  Q[1 + Q[Z]] is not Q[Z] (1 is no block
    # of {Z}), nor is Q[Q[1,2] + Q] Q[1,2] (Q is no Q[1,2]).  I is the
    # block set of a canonical shuffle, so it flattens no further.
    for j in blocks:
        for inner in j.components:
            if isinstance(inner, Shuf) and all(
                b in inner.blocks or all(
                    c == inner if isinstance(c, Shuf)
                    else any(k.components == (c,) for k in inner.blocks)
                    for c in b.components)
                for b in blocks
            ):
                return inner.blocks
    return None


def _canon_shuffle(blocks, keys: dict) -> Shuf:
    blocks = _dedup_sort(blocks, keys)
    blocks = _try_flatten(blocks) or blocks
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

    Raises StuckError when an N, N~ or Z product admits no sound rewrite:
    Stuck when two consecutive copies of the fiber do not merge into one.
    A wrong form is never returned.  The error names a stuck product node
    of desugar(t), whole; a stuck product inside its fiber is named first.
    Each term passed here is kept with its answer, form or Stuck alike.
    """
    cf = _canon(desugar(t))
    if isinstance(cf, StuckError):
        raise StuckError(cf.subterm)
    return cf


@cache
def _canon(t: OrderTerm) -> CanonicalForm | StuckError:
    # The order t is t copies of one point.  A Stuck answer is kept as a
    # fresh error: the caught one holds the frames of its traceback.
    try:
        return CanonicalForm(_times(t, ONE_FORM.components, {}))
    except StuckError as e:
        return StuckError(e.subterm)


def _times(x: OrderTerm, comps: tuple, keys: dict) -> tuple:
    """The components of x copies of the order with components comps (keys: see _form_key)."""
    match x:
        case Empty():
            return ()
        case Single():
            return comps
        case Finite(n):
            return _repeat_form(comps, n)
        case Sum(parts):
            return concat_components(*(_times(a, comps, keys) for a in parts))
        case Shuffle(blocks):
            return (_canon_shuffle([CanonicalForm(_times(b, comps, keys)) for b in blocks], keys),)
        case Product(parts):
            # x1*...*xk*y is x1 copies of ... xk copies of y: the index
            # acts on the fiber's components.  Stuck there, name this input node.
            comps = _times(parts[-1], comps, keys)
            try:
                for p in reversed(parts[:-1]):
                    comps = _times(p, comps, keys)
            except StuckError:
                raise StuckError(x) from None
            return comps
        case Omega() | OmegaStar() | Zeta():
            kind, atom = _KAPPA[x]
            i = next((i for i, c in enumerate(comps) if isinstance(c, Shuf)), None)
            if i is None:
                atoms = comps[0].atoms
                if len(atoms) == 1 and isinstance(atoms[0], Fin):
                    return (Scat((atom,)),)
                return (Scat(_pow_atoms(kind, atoms)),)
            # The copies collapse exactly when two consecutive ones merge:
            # one copy's Q + R followed by the next copy's L + Q is Q again.
            if concat_components(comps[i:], comps[:i + 1]) != comps[i:i + 1]:
                raise StuckError(x)
            return comps[:i + 1] if kind == "N" else comps[i:] if kind == "N~" else comps[i:i + 1]
    raise AssertionError(f"unreachable: {x!r}")


# --- conversion back to terms, and to DOT ---


def _atom_term(a: ScatAtom) -> OrderTerm:
    match a:
        case Fin(1):
            return Single()
        case Fin(n):
            return Finite(n)
        case Pow(kind, body):
            return Product(_BY_KIND[kind].term, _atoms_term(body))
    return _KINDS[type(a)].term


def _atoms_term(atoms: tuple[ScatAtom, ...]) -> OrderTerm:
    return join(Sum, [*map(_atom_term, atoms)])


def cf_to_term(cf: CanonicalForm) -> OrderTerm:
    """A term denoting the same order as the canonical form."""
    parts = []
    for comp in cf.components:
        if isinstance(comp, Scat):
            parts.append(_atoms_term(comp.atoms))
        else:
            parts.append(Shuffle(tuple(cf_to_term(b) for b in comp.blocks)))
    return join(Sum, parts)


def to_dot(cf: CanonicalForm) -> str:
    """Render a canonical form as a DOT digraph.

    One node per component; consecutive components are chained with
    solid edges, shuffle nodes fan out to their block subtrees with
    dashed edges.  Node ids are preorder indices, so output is
    deterministic.
    """
    lines = ["digraph canonical {", "  node [shape=box];"]
    names = map("n{}".format, count())

    def emit_chain(components) -> list[str]:
        ids = []
        for comp in components:
            nid = next(names)
            ids.append(nid)
            if isinstance(comp, Scat):
                label = print_term(_atoms_term(comp.atoms))
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
            comps.append(Shuf(_dedup_sort((reverse_form(b) for b in comp.blocks), {})))
    return CanonicalForm(tuple(comps))


# --- segment decisions (tame fragment only) ---


def _atom_initial(a: ScatAtom, b: ScatAtom) -> bool:
    # Is the order of atom a a (possibly improper) initial segment of b?
    if isinstance(b, Fin):
        return isinstance(a, Fin) and a.n <= b.n
    return isinstance(a, _KINDS[type(b)].initial)


def _atoms_initial(x: tuple[ScatAtom, ...], y: tuple[ScatAtom, ...]) -> bool:
    if not x:
        return True
    if len(x) > len(y):
        return False
    if x[:-1] != y[: len(x) - 1]:
        return False
    return _atom_initial(x[-1], y[len(x) - 1])


def _is_initial(s: tuple, t: tuple, i: int = 0) -> bool:
    # Is s[i:] an initial segment of t?  Walk the components they share.
    # A cut inside a shared shuffle leaves the whole shuffle plus an
    # initial chunk of one block, so after each shared shuffle the rest
    # of s may also be an initial segment of one of its blocks: only there
    # does the walk recurse, as deep as the brackets nest.
    n = 0
    while i + n < len(s) and n < len(t) and s[i + n] == t[n]:
        n += 1
    if i + n == len(s):
        return True
    if n < len(t) and i + n == len(s) - 1:
        d, c = s[-1], t[n]
        if isinstance(d, Scat) and isinstance(c, Scat) and _atoms_initial(d.atoms, c.atoms):
            return True
    return any(
        _is_initial(s, j.components, i + m + 1)
        for m in reversed(range(n)) if isinstance(t[m], Shuf) and i + m + 1 < len(s)
        for j in t[m].blocks
    )


def is_initial_segment(s: CanonicalForm, t: CanonicalForm) -> bool:
    """Does s belong to the family of initial segments of t?"""
    if not (s.tame and t.tame):
        raise UnsupportedError("segment decisions require tame canonical forms")
    return _is_initial(s.components, t.components)


def is_final_segment(s: CanonicalForm, t: CanonicalForm) -> bool:
    """Does s belong to the family of final segments of t?"""
    return is_initial_segment(reverse_form(s), reverse_form(t))
