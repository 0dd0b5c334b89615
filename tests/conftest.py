import sys

import hypothesis.strategies as st

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
