"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed (and of the run length,
which only sets how many inputs are made; a shorter run's inputs are a
prefix of a longer run's).  The program under test receives only the
term text produced here.
"""

from __future__ import annotations

import itertools
import random

# Left factors of the absorption suites (the A_TERMS of tests/conftest.py).
A_TERMS = ["1", "2", "3", "N", "N~", "Z", "1+Q", "Q+1", "1+Q+1", "N+N~"]

# Literals stay single-digit: products of two-digit literals materialize
# so many copies that a run never finishes; the n*X cost has its own
# scaling series in the traced run.
ATOMS = [str(i) for i in range(1, 10)] + ["N", "N~", "Z", "Q"]

SUBCOMMANDS = ["parse", "norm", "classify", "absorbs", "spectrum", "square",
               "square2", "selfsim", "enum", "check", "bnf", "dot"]

# Dense classes of the back-and-forth pairs, in the order queries cycle
# through them.  Pairs with a right endpoint fail within a few rounds at
# the time of writing, so query times have two modes; with those pairs at
# one query in three, the median falls inside the mode of pairs that run
# all their rounds instead of between the two modes.
DENSE_CYCLE = ["Q", "OneQ", "QOne", "Q", "OneQ", "OneQOne"]


def term(rng: random.Random, depth: int) -> str:
    """A term of nesting depth <= depth over sums, products, shuffles and ~."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    r = rng.random()
    if r < 0.35:
        return " + ".join(term(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    if r < 0.6:
        return f"({term(rng, depth - 1)})*({term(rng, depth - 1)})"
    if r < 0.85:
        return "Q[" + ",".join(term(rng, depth - 1) for _ in range(rng.randint(1, 3))) + "]"
    return f"({term(rng, depth - 1)})~"


def distinct_terms(rng: random.Random, count: int, depth: int = 4) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        t = term(rng, depth)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def decide_inputs(seed: int, seconds: int) -> list[str]:
    return distinct_terms(random.Random(seed), 1000 * seconds)


SESSION_POOL = 4000
SESSION_ZIPF_S = 0.3


def session_inputs(seed: int, seconds: int) -> tuple[list[str], list[int]]:
    """A pool of distinct terms and a Zipf-skewed stream of pool indices.

    Ranks are assigned to pool terms in generation order, which is
    already random.  With exponent 0.3 the most frequent term is asked
    ten times as often as the median one, yet carries about 0.2% of the
    stream, and the weights spread over the equivalent of about 3300
    equally frequent terms; so which terms a seed puts at the head does
    not decide the run.
    """
    rng = random.Random(seed)
    pool = distinct_terms(rng, SESSION_POOL)
    weights = [1.0 / (i + 1) ** SESSION_ZIPF_S for i in range(SESSION_POOL)]
    cum = list(itertools.accumulate(weights))
    stream = rng.choices(range(SESSION_POOL), cum_weights=cum, k=8000 * seconds)
    return pool, stream


def _dense_core(rng: random.Random, depth: int) -> str:
    # Dense and without endpoints when the blocks are dense or single
    # points; the profile check below is the arbiter.
    r = rng.random()
    if depth == 0 or r < 0.3:
        return "Q"
    if r < 0.55:
        blocks = [rng.choice(["1", "1 + Q", "Q + 1", "1 + Q + 1", _dense_core(rng, depth - 1)])
                  for _ in range(rng.randint(1, 3))]
        return "Q[" + ",".join(blocks) + "]"
    if r < 0.75:
        return f"{_dense_core(rng, depth - 1)} + {_dense_core(rng, depth - 1)}"
    if r < 0.9:
        fiber = rng.choice(["1", "1 + Q", "Q + 1", "1 + Q + 1", _dense_core(rng, depth - 1)])
        return f"({_dense_core(rng, depth - 1)})*({fiber})"
    return f"({_dense_core(rng, depth - 1)})~"


_DECORATE = {"Q": "{}", "OneQ": "1 + {}", "QOne": "{} + 1", "OneQOne": "1 + {} + 1"}


def dense_term(rng: random.Random, cls: str, profile_of) -> str:
    """Rejection-sample a term whose profile has dense class cls."""
    for _ in range(100):
        text = _DECORATE[cls].format(_dense_core(rng, 3))
        p = profile_of(text)
        if p.dense_class is not None and p.dense_class.value == cls:
            return text
    raise RuntimeError(f"no term of dense class {cls} found in 100 draws")


def oracle_inputs(seed: int, seconds: int, profile_of) -> list[dict]:
    """Per query: a term to cross-check, a same-class dense pair, and a
    shuffle with a block permutation of itself.  The dense class cycles
    through all four classes."""
    rng = random.Random(seed)
    out = []
    for i in range(60 * seconds):
        cls = DENSE_CYCLE[i % len(DENSE_CYCLE)]
        k = rng.randint(2, 3)
        blocks = []
        while len(blocks) < k:
            b = term(rng, 2)
            if b not in blocks:
                blocks.append(b)
        perm = list(range(k))
        while perm == sorted(perm):
            rng.shuffle(perm)
        shuffle = "Q[" + ",".join(blocks) + "]"
        out.append({
            "check": term(rng, 3),
            "pair": (dense_term(rng, cls, profile_of), dense_term(rng, cls, profile_of)),
            "dense_class": cls,
            "shuffle": (shuffle, "Q[" + ",".join(blocks[j] for j in perm) + "]"),
            "shuffle_dense": profile_of(shuffle).dense_class is not None,
            # block j of the permuted shuffle is block perm[j] of the original
            "block_map": {perm[j]: j for j in range(k)},
        })
    return out


def cli_inputs(seed: int, seconds: int) -> list[list[str]]:
    """Argument vectors; every run of 12 consecutive queries covers all
    12 subcommands once, in a seeded order, on short terms."""
    rng = random.Random(seed)
    out = []
    for _ in range(2 * seconds):
        order = SUBCOMMANDS[:]
        rng.shuffle(order)
        for sub in order:
            if sub == "absorbs":
                args = [rng.choice(A_TERMS), term(rng, 2)]
            elif sub == "bnf":
                args = [term(rng, 2), term(rng, 2)]
            else:
                args = [term(rng, 2)]
            out.append([sub, *args, "--json"])
    return out
