import copy
import hashlib
import json
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, seed, settings

from conftest import GOLDEN, T, child_env, dense_term, shaped_terms, term_strategy, with_budget
from ordercalc import (
    CanonicalForm,
    Empty,
    Equality,
    Fin,
    Finite,
    Omega,
    OmegaStar,
    Pow,
    Product,
    Reverse,
    Scat,
    Shuf,
    Shuffle,
    Single,
    StuckError,
    Sum,
    W,
    Wstar,
    Zat,
    Zeta,
    absorbs,
    canonicalize,
    cf_equal,
    cf_to_term,
    classify_absorption,
    enumerate_points,
    is_final_segment,
    is_initial_segment,
    parse,
    point_profile,
    print_term,
    profile,
    reverse_form,
)
from ordercalc import canon, terms
from ordercalc.canon import _try_flatten

CORPUS = Path(__file__).with_name("verdict_corpus.jsonl")


def norm(s: str) -> str:
    return print_term(cf_to_term(canonicalize(T(s))))


# --- scattered normal forms ---


def test_scat_reverse_plus_finite_plus_omega_is_zeta():
    assert canonicalize(T("N~ + 3 + N")).components == (Scat((Zat(),)),)


def test_scat_one_plus_omega():
    assert canonicalize(T("1 + N")).components == (Scat((W(),)),)


def test_scat_of_a_flat_sum_of_3000_terms():
    # Run apart, so that the sum is parsed once in its process: a second
    # equal tree would be compared with the first, once per summand.
    code = ("from ordercalc import canonicalize, parse; "
            "print(canonicalize(parse(' + '.join(['1'] * 3000))).components)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "(Scat(atoms=(Fin(n=3000),)),)\n")


def test_scat_products():
    assert canonicalize(T("N*3")).components == (Scat((W(),)),)
    assert canonicalize(T("N~*3")).components == (Scat((Wstar(),)),)
    assert canonicalize(T("Z*2")).components == (Scat((Zat(),)),)
    assert canonicalize(T("Z*1")).components == (Scat((Zat(),)),)
    assert canonicalize(T("2*Z")).components == (Scat((Zat(), Zat())),)
    assert canonicalize(T("(1+1)*Z")).components == (Scat((Zat(), Zat())),)


def test_scat_finite_repetition_merges_junctions():
    # n copies of a scattered body meet at n - 1 junctions, each
    # rewritten like any sum: 1 + N is N, N + 1 stays, N~ + 1 + N is Z.
    assert canonicalize(T("5*(1+N)")).components == (Scat((W(),) * 5),)
    assert canonicalize(T("3*(N+1)")).components == (Scat((W(), W(), W(), Fin(1))),)
    assert canonicalize(T("3*(N~+1+N)")).components == (Scat((Zat(),) * 3),)
    assert canonicalize(T("2*(N*(N+N~))")).components == (Scat((W(), Pow("N", (Zat(),))) * 2),)
    assert canonicalize(T("3*(2+N~+N+1)")).components == (Scat((
        Fin(2), Zat(), Fin(3), Zat(), Fin(3), Zat(), Fin(1))),)
    assert canonicalize(T("(2+N)*(N~+1)")).components == (Scat((
        Wstar(), Wstar(), Pow("N", (Wstar(),)))),)


def test_scat_power_rotation():
    # N*(N + N~) regroups as N + (Z repeated), since inner junctions
    # N~ + N collapse to Z.
    assert canonicalize(T("N*(N + N~)")).components == (Scat((W(), Pow("N", (Zat(),)))),)
    assert canonicalize(T("N~*(N + N~)")).components == (Scat((Pow("N~", (Zat(),)), Wstar())),)
    assert canonicalize(T("N*(N + 2 + N~)")).components == (Scat((W(), Pow("N", (Fin(2), Zat())))),)


# --- canonicalization ---


def test_collapse_trivial_shuffle():
    assert norm("Q[1, 1+Q]") == "Q"


def test_collapse_nested_shuffle():
    assert norm("Q[N, Z + Q[N, Z]]") == "Q[N,Z]"


def test_product_absorbs_junction():
    assert norm("N*(N + Q[Z] + N~)") == "N + Q[Z]"
    assert norm("(1+Q+1)*(Z + Q[Z] + Z)") == "Z + Q[Z] + Z"


def test_non_flattening_regression():
    # Q[1 + Q[Z]] must keep its single composite block: its scattered
    # part 1 is no block of the inner set {Z}.
    cf = canonicalize(T("Q[1 + Q[Z]]"))
    assert len(cf.components) == 1
    shuf = cf.components[0]
    assert isinstance(shuf, Shuf)
    assert len(shuf.blocks) == 1
    assert norm("Q[1 + Q[Z]]") == "Q[1 + Q[Z]]"

    # The two orders agree on every sampled first-order point fact, so
    # only the canonical forms distinguish them.
    a, b = T("Q[1 + Q[Z]]"), T("Q[1,Z]")
    assert profile(a) == profile(b)
    fact_sets = []
    for t in (a, b):
        fact_sets.append({point_profile(t, c) for c in enumerate_points(t, 300)})
    assert fact_sets[0] == fact_sets[1]
    assert cf_equal(canonicalize(a), canonicalize(b)) is Equality.NOT_EQUAL



# Dense orders without endpoints: one generator per seed and depth.
DENSE_PREFIX = [dense_term(random.Random(seed), depth)
                for seed in range(2000) for depth in (2, 3, 4)]


def test_dense_terms_reach_the_form_of_their_dense_class():
    # A countable dense order is Q, 1 + Q, Q + 1 or 1 + Q + 1, by its
    # endpoints (Cantor): the form must not depend on how it was built.
    # Q[1 + Q,Q] is one, and neither of its blocks flattens it alone.
    forms = {cls: canonicalize(T(s)) for cls, s in
             (("Q", "Q"), ("OneQ", "1 + Q"), ("QOne", "Q + 1"), ("OneQOne", "1 + Q + 1"))}
    for s in DENSE_PREFIX:
        x = T(s)
        assert canonicalize(x) == forms[profile(x).dense_class.value], s


@pytest.mark.parametrize("text, form", [
    ("Q[1+Q,Q]", "Q"), ("Q[Q,1,Q+1]", "Q"), ("Q[Q[2],Q[2] + 2]", "Q[2]"),
    ("Q[Z + Q[Z],Q[Z]]", "Q[Z]"), ("Q[N + Q[N,N~,Z],Q[N,N~,Z]]", "Q[N,N~,Z]"),
])
def test_blocks_made_of_one_inner_shuffle_flatten_together(text, form):
    # Every block outside the inner set I is made of Q[I] and blocks of
    # I, so Q[B] is Q[I], though no block flattens on its own.
    assert norm(text) == form


def test_no_flattening_when_one_inner_set_differs():
    # The block Q[1,2] + Q has the inner sets {1, 2} and {1}, and for
    # neither is it made of that one shuffle.  Every copy of the block ends
    # in an interval with no successor pair, which Q[1,2] lacks.
    assert norm("Q[Q[1,2] + Q]") == "Q[Q[1,2] + Q]"
    flat = cf_equal(canonicalize(T("Q[Q[1,2] + Q]")), canonicalize(T("Q[1,2]")))
    assert flat is Equality.NOT_EQUAL

    a, x = T("Q+1"), T("Q[1,2] + Q")
    eq = cf_equal(canonicalize(Product(a, x)), canonicalize(x))
    assert eq is Equality.NOT_EQUAL
    assert absorbs(a, x) is (eq is Equality.EQUAL)


def test_stuck_product_is_surfaced():
    with pytest.raises(StuckError):
        canonicalize(T("N*(Z + Q[Z] + Z)"))
    with pytest.raises(StuckError):
        canonicalize(T("(N+N~)*(Z + Q[Z] + Z)"))


def test_empty_and_scattered_forms():
    assert canonicalize(T("0")) == CanonicalForm(())
    assert canonicalize(T("N~ + N")) == CanonicalForm((Scat((Zat(),)),))


# --- equality ---


def test_equal_collapsed_shuffles():
    assert cf_equal(canonicalize(T("Q")), canonicalize(T("Q[1,1+Q]"))) is Equality.EQUAL


def test_not_equal_by_initial_segment():
    assert cf_equal(canonicalize(T("Z + Q[Z]")), canonicalize(T("Q[Z]"))) is Equality.NOT_EQUAL


def test_equal_after_power_unroll():
    # The two orders are isomorphic, but forms with a Pow atom have no
    # normal form yet, and equality is identity of forms: not proven.
    eq = cf_equal(canonicalize(T("N*N")), canonicalize(T("N + N*N")))
    assert eq is Equality.STRUCTURAL_ONLY


@pytest.mark.parametrize("a, b", [
    ("Z*N", "N + Z*N"), ("Z*N", "Z*N + N"), ("Z*N~", "N~ + Z*N~"),
])
def test_no_copy_of_the_body_unrolls_from_a_z_power(a, b):
    # Z has no endpoints, so 1 + Z and Z + 1 are not Z: prepending or
    # appending a copy of the body changes a Z power.  N + Z*N has a
    # least point and Z*N has none; in Z*N + N the points without a
    # predecessor form Z + 1, in Z*N they form Z.
    assert cf_equal(canonicalize(T(a)), canonicalize(T(b))) is Equality.STRUCTURAL_ONLY


@given(term_strategy(max_leaves=5, shuffles=False), st.sampled_from(["N", "N~", "Z"]))
@settings(max_examples=200, deadline=None)
@seed(20230923)
def test_equal_powers_and_their_unrollings_have_equal_profiles(x, kappa):
    power = Product(T(kappa), x)
    for unrolled in (Sum(x, power), Sum(power, x)):
        if cf_equal(canonicalize(unrolled), canonicalize(power)) is Equality.EQUAL:
            assert profile(unrolled) == profile(power)


def test_canonicalizing_the_untame_reference_term_stays_within_a_call_budget():
    # The benchmark's untame reference term: its form holds Pow atoms
    # inside shuffle blocks, and comparing forms with == keeps
    # canonicalizing it near 5 thousand Python calls.
    x = T("(Q[Q[Q[Z,N~],2,6],N~ + (6)*(8)])*((Z + 6 + 9)*(4 + 8 + N + 1))")
    for f in (terms.desugar, canon._canon):
        f.cache_clear()
    assert not with_budget(200_000, canonicalize, x).tame


def test_classifying_a_long_product_chain_stays_within_a_call_budget():
    # 2*...*2*Q with 3000 factors: the factors act on the fiber's form one
    # at a time, from the last, so the cost grows linearly, near 16 Python
    # calls per factor.  No suffix of the product is built to be looked
    # up, so the cache holds no entry per factor.
    x = T("*".join(["2"] * 3000) + "*Q")
    for f in (terms.desugar, canon._canon):
        f.cache_clear()
    assert with_budget(200_000, classify_absorption, x).case == 1
    assert canon._canon.cache_info().currsize <= 3


def test_a_stuck_answer_is_kept():
    # The cache keeps a Stuck answer as it keeps a form, so asking again
    # is one lookup.  The kept error was never raised: no traceback holds
    # the frames of the first call alive.
    x = T(" + ".join(["Q[1,2]"] * 40) + " + N*(Q+2)")
    for f in (terms.desugar, canon._canon):
        f.cache_clear()
    with pytest.raises(StuckError) as first:
        canonicalize(x)
    with pytest.raises(StuckError) as second:
        with_budget(50, canonicalize, x)
    assert (str(second.value), second.value.subterm) == (str(first.value), first.value.subterm)
    assert canon._canon.cache_info().currsize == 1
    kept = canon._canon(terms.desugar(x))
    assert isinstance(kept, StuckError)
    assert kept.__traceback__ is None and kept.__context__ is None


def test_two_long_products_with_a_common_suffix_in_one_process():
    # Neither product meets the other's factors in the cache, so no two
    # long chains built apart are compared.
    ones = "*1" * 2999
    assert canonicalize(T("2" + ones)).components == (Scat((Fin(2),)),)
    assert canonicalize(T("3" + ones)).components == (Scat((Fin(3),)),)


def _nodes(t):
    todo, out = [t], []
    while todo:
        u = todo.pop()
        out.append(u)
        if isinstance(u, (Sum, Product)):
            todo += u.parts
        elif isinstance(u, terms.Shuffle):
            todo += u.blocks
    return out


def _stuck_names_a_stuck_input_node(t) -> bool:
    # Whether canonicalize(t) is stuck; if it is, the node it names must be
    # a node of the input that is stuck on its own.
    try:
        canonicalize(t)
    except StuckError as e:
        assert e.subterm in _nodes(terms.desugar(t))
        with pytest.raises(StuckError):
            canonicalize(e.subterm)
        return True
    return False


STUCK_CORPUS = [pytest.param(line["term"], id=f"line{i + 1}")
                for i, line in enumerate(map(json.loads, CORPUS.read_text().splitlines()))
                if line.get("stop") == "Stuck"]


@pytest.mark.parametrize("text", STUCK_CORPUS)
def test_stuck_names_a_stuck_node_of_the_input_on_the_corpus(text):
    assert _stuck_names_a_stuck_input_node(T(text))


@given(term_strategy(), term_strategy())
@settings(max_examples=200, deadline=None)
@seed(20230924)
def test_stuck_names_a_stuck_node_of_the_input(a, x):
    _stuck_names_a_stuck_input_node(Product(a, x))


@pytest.mark.parametrize("text, named", [
    ("N*(Z + Q[Z] + Z)", "N*(Z + Q[Z] + Z)"),
    ("(N+N~)*(Z + Q[Z,Z] + Z)", "(N + N~)*(Z + Q[Z,Z] + Z)"),
    ("N*2*(Z + Q[Z] + Z)", "N*2*(Z + Q[Z] + Z)"),
    ("2*(N*(Q + 2))", "N*(Q + 2)"),
    ("(2 + N*(Q + 2))*1", "(2 + N*(Q + 2))*1"),
])
def test_stuck_names_the_product_that_is_stuck(text, named):
    # A product whose index meets no rewrite is named whole, index and
    # all; a stuck product inside its fiber is named before the index acts.
    with pytest.raises(StuckError) as exc:
        canonicalize(T(text))
    assert print_term(exc.value.subterm) == named


_PIN_ATOMS = [Empty(), Single(), Finite(2), Finite(3), Omega(), OmegaStar(), Zeta(),
              Shuffle((Single(),))]
# Bracketed products that are stuck on their own.
_PIN_STUCK = [T("N*(Q + 2)"), T("N~*(1 + Q[2])"), T("Z*(Q[1,2] + N)")]


def _pin_factor(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice(_PIN_ATOMS)
    if r < 0.55:
        return Sum(*(_pin_factor(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if r < 0.7:
        return Shuffle(tuple(_pin_factor(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if r < 0.8:
        return Reverse(_pin_factor(rng, depth - 1))
    if r < 0.92:
        return _pin_product(rng, depth - 1)
    return rng.choice(_PIN_STUCK)


def _pin_product(rng, depth):
    return Product(*(_pin_factor(rng, depth) for _ in range(rng.randint(2, 4))))


def _canon_outcome(t) -> str:
    try:
        return repr(canonicalize(t))
    except StuckError as e:
        return f"Stuck {e} {e.subterm!r}"


def test_forms_of_generated_products_are_pinned():
    # 15,000 seeded products of 2-4 factors: sums, shuffles, `~`, `0`
    # and bracketed stuck products in the index and in the fiber.  Each
    # term's form, or its Stuck message and subterm, in one digest.
    fixed = [T(s) for s in ("2*(N*(Q+2))*1", "2*(N*(Q+2))", "(N*(Q+2))*2", "N*(Q+2)*N",
                            "(2 + N*(Q+2))*1", "Q*(N~*(1+Q[2]))~*0")]
    rng = random.Random(25)
    h = hashlib.sha256()
    for t in fixed + [_pin_product(rng, rng.randint(0, 2)) for _ in range(15000)]:
        h.update(_canon_outcome(t).encode() + b"\n")
    assert h.hexdigest() == "4bafb7214e77c57b70a2e14160d18804504c72969a2480d9c178b8327b8245c5"


# --- concatenation only at the junctions ---


def _push_every_atom(*parts):
    # The reference: every atom of every part goes through _fix_tail.
    out = []
    for part in parts:
        for atom in part:
            out.append(atom)
            canon._fix_tail(out)
    return tuple(out)


def _push_every_component(*lists):
    # The reference: every component of every list goes through _push.
    out, run = [], []
    for comps in lists:
        for comp in comps:
            if isinstance(comp, Scat):
                run.append(comp)
                continue
            if run:
                canon._push(out, run[0] if len(run) == 1
                            else Scat(_push_every_atom(*(c.atoms for c in run))))
                run = []
            canon._push(out, comp)
    if run:
        canon._push(out, run[0] if len(run) == 1
                    else Scat(_push_every_atom(*(c.atoms for c in run))))
    return tuple(out)


def _concat_inputs(rng, seqs):
    # Pairs, triples, 2-9 copies and the slices c[i:] + c[:i+1] that a
    # kappa index or a power's rotation concatenates.
    for c in seqs:
        other = rng.choice(seqs)
        yield c, other
        yield other, c, other
        yield (c,) * rng.randint(2, 9)
        for i in rng.sample(range(len(c)), min(len(c), 3)):
            yield c[i:], c[:i + 1]
            yield c[:i + 1], c[i:]


def _scat_atoms(cf):
    for comp in cf.components:
        if isinstance(comp, Scat):
            yield comp.atoms
        else:
            for b in comp.blocks:
                yield from _scat_atoms(b)


_REP_ATOMS = [Single(), Finite(2), Finite(3), Omega(), OmegaStar(), Zeta()]
_REP_KAPPAS = [Omega(), OmegaStar(), Zeta()]


def _rep_sum(rng, pool, depth):
    # Shuffles of the pool, atoms from it and mirrors, beside one product
    # nested a level deeper: finite factors 2-9, now and then N, N~ or Z.
    parts = []
    for _ in range(rng.randint(1, 2)):
        r = rng.random()
        if depth and r < 0.45 and not parts:
            index = rng.choice(_REP_KAPPAS) if r < 0.05 else Finite(rng.randint(2, 9))
            parts.append(Product(index, _rep_sum(rng, pool, depth - 1)))
        elif r < 0.75:
            parts.append(Shuffle(tuple(pool)))
        elif depth and r < 0.82:
            parts.append(Reverse(_rep_sum(rng, pool, depth - 1)))
        else:
            parts.append(rng.choice(pool))
    return parts[0] if len(parts) == 1 else Sum(*parts)


def _rep_term(rng):
    # Finite factors nested 2-3 deep over a pool of two atoms.
    pool = [rng.choice(_REP_ATOMS) for _ in range(2)]
    return Product(Finite(rng.randint(2, 9)), _rep_sum(rng, pool, 1 + (rng.random() < 0.3)))


def test_junction_only_concatenation_equals_pushing_every_item():
    # Forms of 2,000 generated terms and their mirrors: concatenating
    # them, their copies and their slices, and their scattered parts'
    # atoms likewise, gives what pushing every item through the merge
    # rules gives.
    rng = random.Random(27)
    forms = []
    for t in [T(s) for s in shaped_terms(27, 1000)] + [_rep_term(rng) for _ in range(1000)]:
        try:
            cf = canonicalize(t)
        except StuckError:
            continue
        forms += [cf, reverse_form(cf)]
    assert len(forms) > 3600
    comps = list(dict.fromkeys(cf.components for cf in forms))
    atoms = list(dict.fromkeys(a for cf in forms for a in _scat_atoms(cf)))
    for lists in _concat_inputs(rng, comps):
        assert canon.concat_components(*lists) == _push_every_component(*lists), lists
    for parts in _concat_inputs(rng, atoms):
        assert canon._concat_atoms(*parts) == _push_every_atom(*parts), parts


def test_forms_of_repeat_heavy_terms_are_pinned():
    # 20,000 seeded terms of finite factors nested 2-3 deep over sums
    # with shuffles, `~`, N, N~ and Z: each term's form and its printed
    # term, or its Stuck message and subterm, in one digest.
    rng = random.Random(27)
    h = hashlib.sha256()
    for t in [_rep_term(rng) for _ in range(20000)]:
        try:
            cf = canonicalize(t)
        except StuckError as e:
            out = f"Stuck {e} {e.subterm!r}"
        else:
            out = f"{cf!r} {print_term(cf_to_term(cf))}"
        h.update(out.encode() + b"\n")
    assert h.hexdigest() == "8986ef9b966719d3cb19b82b0b06c842b317e10421f1727e2012d0dec67e8430"


def _cold_canonicalize(calls, text):
    x = T(text)
    for f in (terms.desugar, canon._canon):
        f.cache_clear()
    return with_budget(calls, canonicalize, x)


def test_nested_copies_are_merged_only_at_their_junctions():
    # 210 copies of three components, none merging with the next: each
    # doubling pushes the components at one junction and copies the rest.
    cf = _cold_canonicalize(6_000, "7*(6*(5*(Q[2,N] + 3 + Q[Z])))")
    assert cf.components == canonicalize(T("Q[2,N] + 3 + Q[Z]")).components * 210


def test_copies_of_a_scattered_part_are_merged_only_at_their_junctions():
    # 10,000 copies of N + 1 + N~, where each junction N~ + N is Z.  Most
    # of the budget hashes the atoms of the Scat nodes the doublings build.
    cf = _cold_canonicalize(80_000, "10000*(N+1+N~)")
    assert cf.components == (Scat((W(),) + (Fin(1), Zat()) * 9999 + (Fin(1), Wstar())),)


def test_structural_only_outside_tame_fragment():
    a = canonicalize(T("N*N"))
    b = canonicalize(T("N*N + 1"))
    assert cf_equal(a, b) is Equality.STRUCTURAL_ONLY


# --- segments ---


def test_final_segment_of_zeta():
    assert is_final_segment(canonicalize(T("N")), canonicalize(T("Z")))


def test_initial_segment_of_zeta():
    assert not is_initial_segment(canonicalize(T("N")), canonicalize(T("Z")))
    assert is_initial_segment(canonicalize(T("N~")), canonicalize(T("Z")))


def test_initial_segment_cut_inside_shuffle():
    assert is_initial_segment(canonicalize(T("Q[Z] + N~")), canonicalize(T("Q[Z]")))
    assert not is_initial_segment(canonicalize(T("Q[Z] + N")), canonicalize(T("Q[Z]")))


# The initial segments, proper or not and empty aside, of each atom: k's
# are the finite orders of at most k points; N's are the finite orders and
# N; N~ has no least point, so each of its nonempty initial segments is N~;
# Z's are N~ (cut below some point) and Z.
_ATOM_INITIAL = {"1": {"1"}, "2": {"1", "2"}, "N": {"1", "2", "N"}, "N~": {"N~"},
                 "Z": {"N~", "Z"}}
# Final segments are the mirrors of the initial segments of the mirror.
_ATOM_MIRROR = {"1": "1", "2": "2", "N": "N~", "N~": "N", "Z": "Z"}


def test_segment_families_of_atoms():
    z = canonicalize(T("Z"))
    assert is_initial_segment(canonicalize(T("0")), z)
    assert is_initial_segment(z, z)
    assert not is_initial_segment(canonicalize(T("1")), z)
    n = canonicalize(T("N"))
    assert is_initial_segment(canonicalize(T("3")), n)
    assert not is_final_segment(canonicalize(T("3")), n)
    assert is_final_segment(n, n)
    for b, initial in _ATOM_INITIAL.items():
        final = {_ATOM_MIRROR[a] for a in _ATOM_INITIAL[_ATOM_MIRROR[b]]}
        for a in _ATOM_INITIAL:
            x, y = canonicalize(T(a)), canonicalize(T(b))
            assert is_initial_segment(x, y) == (a in initial), (a, b)
            assert is_final_segment(x, y) == (a in final), (a, b)


def test_segments_of_a_form_of_3000_components():
    # Q[Z], 1, Q[Z], 1, ...: the walk over shared components is a loop,
    # so it needs no stack frame, nor a slice of the form, per component.
    # Run apart, so that a failure is one short traceback.
    code = ("from ordercalc import CanonicalForm, canonicalize, parse, is_initial_segment as i, "
            "is_final_segment as f; "
            "cf = canonicalize(parse(' + '.join(['Q[Z] + 1'] * 1500))); "
            "head = CanonicalForm(cf.components[:-1]); "
            "print(len(cf.components), i(cf, cf), f(cf, cf), i(head, cf), f(head, cf))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr[-300:], proc.stdout) == (0, "", "3000 True True True False\n")


# --- global invariants ---


def test_idempotence_on_corpus():
    for s in GOLDEN:
        cf = canonicalize(T(s))
        again = canonicalize(parse(print_term(cf_to_term(cf))))
        assert again == cf, s


def test_minimality_on_corpus():
    def shuf_nodes(cf):
        for comp in cf.components:
            if isinstance(comp, Shuf):
                yield comp
                for b in comp.blocks:
                    yield from shuf_nodes(b)

    # Every shuffle node, and its mirror, of the golden forms, the dense
    # prefix and 5,000 generated products is a fixed point of the one
    # flatten rule: flattening once is enough.
    rng = random.Random(28)
    for t in [T(s) for s in GOLDEN + DENSE_PREFIX] + [_pin_product(rng, 2) for _ in range(5000)]:
        try:
            cf = canonicalize(t)
        except StuckError:
            continue
        for form in (cf, reverse_form(cf)):
            for shuf in shuf_nodes(form):
                assert _try_flatten(shuf.blocks) is None, t


def test_blocks_sorted_and_duplicate_free():
    cf = canonicalize(T("Q[Z, Z, N]"))
    shuf = cf.components[0]
    assert shuf.blocks == (CanonicalForm((Scat((W(),)),)), CanonicalForm((Scat((Zat(),)),)))


@given(term_strategy())
@settings(max_examples=60, deadline=None)
def test_canonicalization_preserves_profile(t):
    try:
        cf = canonicalize(t)
    except StuckError:
        return
    assert profile(cf_to_term(cf)) == profile(t)


@given(term_strategy())
@settings(max_examples=60, deadline=None)
def test_reversal_involution_at_canonical_level(t):
    try:
        expected = canonicalize(t)
    except StuckError:
        return
    assert canonicalize(Reverse(Reverse(t))) == expected


# Generated terms whose canonical forms print as sums of thousands of
# summands; reading such output back used to exhaust the recursion limit.
LONG_FORM_TERMS = [
    "((Q[1])*(N + 8 + 3))*((9 + 8)*((3)*(N))) + 2 + (7 + 4)*(N + 4 + 7) + Q",
    "(((8)*((7)*(9)))*((Z)~))*(N)",
    "(((7)*(6))*(5) + 4)*(1 + 2 + (Z)*(4) + (1)*(3) + (N)*(9) + 3 + (5)*(6) + N)",
    "(5 + (Q)*(1) + (4)~ + (Z)*(Q) + 7 + 5 + (8)*(4))*((8)*((8)*(N)) + 3 + (3 + 6)~)",
    "(7)*((7)*((Z + 9)*((5)*(N))))",
]


@pytest.mark.parametrize("text", LONG_FORM_TERMS)
def test_norm_output_of_long_forms_reads_back(text):
    x = T(text)
    cf = canonicalize(x)
    out = print_term(cf_to_term(cf))
    assert out.count("+") > 500
    y = parse(out)
    assert profile(y) == profile(x)
    assert canonicalize(y) == cf


def test_norm_output_of_a_long_shuffle_block_reads_back():
    # The norm output holds a shuffle whose one block is a sum of 504
    # summands.  Reading it back must not compare that block with an
    # equal tree built apart: the dataclass __eq__ recurses once per
    # summand, past the recursion limit.
    x = T("(Q[(4 + N + 9)*(9)])*((((4)*(1))*(N~))*(1))")
    cf = canonicalize(x)
    out = print_term(cf_to_term(cf))
    assert out.count("+") > 500
    y = parse(out)
    assert profile(y) == profile(x)
    assert cf_equal(canonicalize(y), cf) is Equality.EQUAL


# --- forms: immutable, slotted, hashed once at construction ---


def _tame(cf: CanonicalForm) -> bool:
    # The recursive definition of the tame fragment, which CanonicalForm
    # computes once per form and stores.
    return all(
        all(not isinstance(a, Pow) for a in c.atoms)
        if isinstance(c, Scat)
        else all(_tame(b) for b in c.blocks)
        for c in cf.components
    )


@pytest.mark.parametrize("text, tame", [
    ("Q[Z] + N", True), ("N*(N + N~)", False), ("Q[1, N*(Z + 1)]", False),
    ("N + Q[Z, Q[N*N]]", False), ("0", True),
])
def test_stored_tame(text, tame):
    cf = canonicalize(T(text))
    assert cf.tame is tame is _tame(cf)


@given(term_strategy())
@settings(max_examples=60, deadline=None)
def test_stored_tame_matches_definition(t):
    try:
        cf = canonicalize(t)
    except StuckError:
        return
    for form in (cf, reverse_form(cf)):
        assert form.tame == _tame(form)


def test_forms_built_apart_hash_equal():
    pairs = [
        (canonicalize(T("N~ + 3 + N")), CanonicalForm((Scat((Zat(),)),))),
        (canonicalize(T("Q[Z, N, Z]")), canonicalize(T("Q[N, Z]"))),
        (canonicalize(T("N*(N + N~)")).components[0].atoms[1], Pow("N", (Zat(),))),
        (reverse_form(reverse_form(canonicalize(T("N + Q[Z, 1 + N~]")))),
         canonicalize(T("N + Q[1 + N~, Z]"))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("a, b", [
    (W(), Zat()), (W(), Wstar()), (Pow("N", (Zat(),)), Pow("Z", (Zat(),))),
    (Scat(()), Shuf(())), (CanonicalForm(()), Scat(())),
])
def test_atoms_and_forms_of_different_classes_hash_apart(a, b):
    assert a != b
    assert hash(a) != hash(b)


def test_forms_are_frozen():
    cf = canonicalize(T("N*(N + N~) + Q[Z]"))
    for obj, field in ((cf, "components"), (cf, "tame"), (cf.components[0], "atoms"),
                       (Pow("N", (Zat(),)), "kind")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, ())


PICKLED_TERM = "N*(N + N~) + Q[Z, 1 + N~] + 3"
_DUMP = ("import pickle, sys, ordercalc as oc; t = oc.parse(sys.argv[1]); "
         "sys.stdout.buffer.write(pickle.dumps((t, oc.canonicalize(t))))")
_LOAD = ("import pickle, sys, ordercalc as oc; t, cf = pickle.load(sys.stdin.buffer); "
         "u = oc.parse(sys.argv[1]); v = oc.canonicalize(u); "
         "print(t == u and hash(t) == hash(u), cf == v and hash(cf) == hash(v))")


def test_copy_and_pickle_keep_the_hash_of_forms():
    cf = canonicalize(T(PICKLED_TERM))
    for u in (copy.copy(cf), copy.deepcopy(cf), pickle.loads(pickle.dumps(cf))):
        assert u == cf and hash(u) == hash(cf) and u.tame == cf.tame


def test_unpickling_under_another_hash_seed_rehashes():
    # String hashes differ between the two processes (Pow.kind, and the
    # class names every node hash includes); an unpickled node must hash
    # like one built in the process that loads it.
    env = child_env()
    dumped = subprocess.run([sys.executable, "-c", _DUMP, PICKLED_TERM],
                            env=env | {"PYTHONHASHSEED": "1"}, capture_output=True,
                            check=True, timeout=60).stdout
    loaded = subprocess.run([sys.executable, "-c", _LOAD, PICKLED_TERM], input=dumped,
                            env=env | {"PYTHONHASHSEED": "2"}, capture_output=True,
                            check=True, timeout=60).stdout
    assert loaded.decode().split() == ["True", "True"]
