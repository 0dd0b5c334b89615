"""The benchmark's view of the program's layers.

Every call the benchmark makes into the program goes through a
``Layers`` object.  Untraced, its attributes are the program's own
public functions, so the measured path has no wrapper at all.  Traced,
each attribute is a wrapper that records one span per call in memory:
name, start, end, query id and parent span.  Layers are measured from
outside, by timing the benchmark's own calls; the program is not
instrumented.
"""

from __future__ import annotations

import signal
import sys
import time
from dataclasses import dataclass

clock = time.perf_counter

# span name -> (module, function); "oracle.colored" is back_and_forth
# called with a block map, which takes the colour-respecting path.
TRACED = {
    "textio.parse": ("ordercalc.textio", "parse"),
    "textio.print_term": ("ordercalc.textio", "print_term"),
    "terms.desugar": ("ordercalc.terms", "desugar"),
    "profiles.profile": ("ordercalc.profiles", "profile"),
    "canon.canonicalize": ("ordercalc.canon", "canonicalize"),
    "canon.cf_to_term": ("ordercalc.canon", "cf_to_term"),
    "canon.cf_equal": ("ordercalc.canon", "cf_equal"),
    "classify.classify_absorption": ("ordercalc.classify", "classify_absorption"),
    "classify.spectrum_description": ("ordercalc.classify", "spectrum_description"),
    "classify.absorbs": ("ordercalc.classify", "absorbs"),
    "classify.is_square": ("ordercalc.classify", "is_square"),
    "classify.is_self_similar": ("ordercalc.classify", "is_self_similar"),
    "oracle.cross_check": ("ordercalc.oracle", "cross_check"),
    "oracle.back_and_forth": ("ordercalc.oracle", "back_and_forth"),
    "oracle.colored": ("ordercalc.oracle", "back_and_forth"),
    "cli.run": ("ordercalc.cli", "run"),
}

# hit-ratio metric prefix -> (module, attribute, entries metric) of the
# module-level functools caches
CACHES = {
    "terms.desugar": ("ordercalc.terms", "desugar", "terms.desugar.cache_entries"),
    "profiles.profile": ("ordercalc.profiles", "_profile", "profiles.profile.cache_entries"),
    "canon.canonicalize": ("ordercalc.canon", "_canon", "canon.cache_entries"),
    "oracle.codes": ("ordercalc.oracle", "_codes_of_weight", "oracle.codes.cache_entries"),
}


def _attr(modname: str, name: str):
    import importlib
    return getattr(importlib.import_module(modname), name, None)


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, query, parent)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.query: int | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (name, t0, clock(), self.query, parent)
                stack.pop()

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[4] is not None:
                child[s[4]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s is not None:
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child[i]
        return out


class Layers:
    """Public functions of the program, traced or not."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for name, (mod, fn) in TRACED.items():
            f = _attr(mod, fn)
            setattr(self, name.split(".", 1)[1], tracer.wrap(name, f) if tracer else f)


# --- caches -----------------------------------------------------------------


def caches() -> dict[str, object]:
    """Present caches by metric prefix; a cache a later version removes is absent."""
    out = {}
    for name, (mod, attr, _) in CACHES.items():
        f = _attr(mod, attr)
        if f is not None and hasattr(f, "cache_info") and hasattr(f, "cache_clear"):
            out[name] = f
    return out


def clear_caches(present: dict) -> None:
    for f in present.values():
        f.cache_clear()


@dataclass
class CacheTally:
    hits: int = 0
    misses: int = 0
    max_entries: int = 0

    def add(self, info, since=None) -> None:
        """Count info's hits and misses, less those of `since`."""
        self.hits += info.hits - (since.hits if since else 0)
        self.misses += info.misses - (since.misses if since else 0)
        self.max_entries = max(self.max_entries, info.currsize)


# --- per-call deadline --------------------------------------------------------


class OverDeadline(BaseException):
    """Raised into a call that outlives its deadline.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def _alarm(signum, frame):
    raise OverDeadline


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _alarm)


def with_deadline(seconds: float, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# --- per-call budget of work ----------------------------------------------------


class OverBudget(BaseException):
    """Raised into a call that makes more Python calls than its budget."""


# A call that has not ended after this many seconds is stopped as over
# budget, in case a RecursionError raised inside the counting hook has
# removed the hook; no call within its budget comes near it.
BUDGET_BACKSTOP_S = 30.0


def with_budget(calls: int, fn, *args):
    """fn(*args), stopped with OverBudget after `calls` Python function
    calls.  Counted work, unlike a deadline, does not depend on the
    speed of the machine, so the same inputs always end the same way."""
    left = calls

    def count(frame, event, arg):
        nonlocal left
        left -= 1
        if left < 0:
            raise OverBudget
        # no local trace function: only call events reach the hook

    signal.setitimer(signal.ITIMER_REAL, BUDGET_BACKSTOP_S)
    sys.settrace(count)
    try:
        return fn(*args)
    except OverDeadline:
        raise OverBudget from None
    finally:
        sys.settrace(None)
        signal.setitimer(signal.ITIMER_REAL, 0)
