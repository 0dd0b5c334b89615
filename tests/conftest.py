import os
import random
import sys
from pathlib import Path

import hypothesis.strategies as st

import ordercalc
from ordercalc import (
    Finite,
    Omega,
    OmegaStar,
    Product,
    Reverse,
    Shuffle,
    Single,
    Sum,
    Zeta,
    parse,
)

# Worked examples: left products of the dense types, shuffle sums, and
# the collapse/no-collapse shuffle representations.
GOLDEN = [
    "Q",
    "1 + Q",
    "Q + 1",
    "1 + Q + 1",
    "Q[Z]",
    "Z + Q[Z]",
    "Q[Z] + Z",
    "Z + Q[Z] + Z",
    "N + Q[Z] + N~",
    "N + Q[Z]",
    "N + Q[Z,N]",
    "Q[N,Z]",
    "Q[1,Z]",
    "Q[1,1+Q]",
    "Q[N, Z + Q[N, Z]]",
    "Q[1 + Q[Z]]",
]

# Terms with a decided absorption class (criterion corpus for the
# normalizer/decider cross-validation).
CLASSIFIED = GOLDEN[:13]

# Left factors used in the absorption suites.
A_TERMS = ["1", "2", "3", "N", "N~", "Z", "1+Q", "Q+1", "1+Q+1", "N+N~"]


def T(s: str):
    return parse(s)


def child_env() -> dict[str, str]:
    """The environment of a child Python process: its PYTHONPATH is the
    directory of the ordercalc that the tests import, so the child tests
    this checkout too, with or without PYTHONPATH set, and never another
    copy that is installed."""
    return dict(os.environ, PYTHONPATH=str(Path(ordercalc.__file__).parents[1]))


_WORD_ATOMS = ["1", "2", "3", "N", "N~", "Z"]


def shaped_terms(seed: int, count: int) -> list[str]:
    """The first `count` distinct texts of a seeded stream of X = L + Q[blocks] + R,
    the paper's shape, which reaches all eight absorption cases.

    A word is 1-3 atoms from 1 2 3 N N~ Z.  The blocks are 1-3 words, or
    a word beside a Q[...] of words; L and R are each empty, one of the
    blocks or a word; 40% of the time the junction R + L is one more block.
    """
    rng = random.Random(seed)

    def word():
        return " + ".join(rng.choice(_WORD_ATOMS) for _ in range(rng.randint(1, 3)))

    def block():
        if rng.random() < 0.2:
            inner = f"Q[{', '.join(word() for _ in range(rng.randint(1, 2)))}]"
            return rng.choice([f"{word()} + {inner}", f"{inner} + {word()}"])
        return word()

    seen: set[str] = set()
    out = []
    while len(out) < count:
        blocks = [block() for _ in range(rng.randint(1, 3))]
        left, right = ("" if r < 1 / 3 else rng.choice(blocks) if r < 2 / 3 else word()
                       for r in (rng.random(), rng.random()))
        junction = " + ".join(p for p in (right, left) if p)
        if junction and rng.random() < 0.4:
            blocks.append(junction)
        x = " + ".join(p for p in (left, f"Q[{', '.join(blocks)}]", right) if p)
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


_ATOMS = st.sampled_from(
    [Single(), Finite(2), Finite(3), Omega(), OmegaStar(), Zeta()]
)


def term_strategy(max_leaves: int = 8, shuffles: bool = True):
    """Terms over the atoms by sum, product, reversal and, if shuffles, Q[...]."""
    return st.recursive(
        _ATOMS,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: Sum(ab[0], ab[1])),
            st.tuples(children, children).map(lambda ab: Product(ab[0], ab[1])),
            *([st.lists(children, min_size=1, max_size=3).map(lambda bs: Shuffle(tuple(bs)))]
              if shuffles else []),
            children.map(Reverse),
        ),
        max_leaves=max_leaves,
    )


class OverBudget(BaseException):
    """Raised into a call that makes more Python calls than its budget."""


def with_budget(calls: int, fn, *args):
    """fn(*args), stopped with OverBudget after `calls` Python function
    calls.  Counted calls, unlike time, do not depend on the machine."""
    left = calls

    def count(frame, event, arg):
        nonlocal left
        left -= 1
        if left < 0:
            raise OverBudget
        # no local trace function: only call events reach the hook

    sys.settrace(count)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)
