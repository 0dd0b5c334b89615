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

A term t is t copies of one point: one walk (``_times``) applies an index
to a fiber's form, and the form of t is t applied to ONE_FORM.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import count

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
ONE_FORM = CanonicalForm((Scat((Fin(1),)),))

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
    match cf.components:
        case (Scat((Fin(k),)),):  # n copies of k points, in one step
            return CanonicalForm((Scat((Fin(n * k),)),))
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
        return _times(t, ONE_FORM)
    except StuckError as e:
        return StuckError(e.subterm)


def _times(x: OrderTerm, cf: CanonicalForm) -> CanonicalForm:
    """The form of x copies of the order whose form is cf."""
    match x:
        case Empty():
            return EMPTY_FORM
        case Single():
            return cf
        case Finite(n):
            return _repeat_form(cf, n)
        case Sum(parts):
            return CanonicalForm(concat_components(*(_times(a, cf).components for a in parts)))
        case Shuffle(blocks):
            return CanonicalForm((_canon_shuffle([_times(b, cf) for b in blocks]),))
        case Product(parts):
            # x1*...*xk*y is x1 copies of ... xk copies of y: the index
            # acts on the fiber's form.  Stuck there, name this input node.
            cf = _times(parts[-1], cf)
            try:
                for p in reversed(parts[:-1]):
                    cf = _times(p, cf)
            except StuckError:
                raise StuckError(x) from None
            return cf
        case Omega() | OmegaStar() | Zeta():
            kind, atom = _KAPPA[x]
            comps = cf.components
            i = next((i for i, c in enumerate(comps) if isinstance(c, Shuf)), None)
            if i is None:
                atoms = comps[0].atoms
                if len(atoms) == 1 and isinstance(atoms[0], Fin):
                    return CanonicalForm((Scat((atom,)),))
                return CanonicalForm((Scat(_pow_atoms(kind, atoms)),))
            # The copies collapse exactly when two consecutive ones merge:
            # one copy's Q + R followed by the next copy's L + Q is Q again.
            if concat_components(comps[i:], comps[:i + 1]) != comps[i:i + 1]:
                raise StuckError(x)
            return CanonicalForm(comps[:i + 1] if kind == "N"
                                 else comps[i:] if kind == "N~" else comps[i:i + 1])
    raise AssertionError(f"unreachable: {x!r}")


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
    return is_initial_segment(reverse_form(s), reverse_form(t))
