"""Verdict corpus: pinned answers for a fixed prefix of generated terms.

``verdict_corpus.jsonl`` holds one JSON object per line for each of the
first 200 distinct terms that the benchmark's ``decide`` workload draws
at seed 1, in drawing order; no term was chosen by its outcome.  A line
holds the term and the answers it gets with cold caches, in this order,
stopping at the first that raises:

- ``profile``: the ``StructProfile`` fields in declaration order, the
  dense class by its value;
- ``norm``: the printed canonical form;
- ``class``: ``case n`` or the name of the non-absorbing class;
- ``spectrum``: the spectrum's value;
- ``absorbs``: ``absorbs(A, X)`` for each of the ten ``A_TERMS``;
- ``square`` and ``selfsim``.

A line that stopped carries ``stop``: ``Stuck``, ``Unsupported`` or
``OverBudget``, the last when the term made more Python calls than
``BUDGET_CALLS``.  Counted calls, unlike time, do not depend on the
machine, so every line ends the same way everywhere.

The test recomputes every line and requires it to match exactly.  When a
change moves a line that has a ``stop``, rewrite the file with

    PYTHONPATH=src python tests/test_verdict_corpus.py

which rewrites only such lines and refuses to write when a line without
``stop`` (a decided one) would change.  It prints each line it rewrites.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from conftest import A_TERMS, OverBudget, with_budget
from ordercalc import (
    StuckError,
    UnsupportedError,
    absorbs,
    canonicalize,
    cf_to_term,
    classify_absorption,
    desugar,
    is_self_similar,
    is_square,
    parse,
    print_term,
    profile,
    spectrum_description,
)
from ordercalc import canon, profiles, terms

CORPUS = Path(__file__).with_name("verdict_corpus.jsonl")
BUDGET_CALLS = 200_000


def _ask(text: str, line: dict) -> None:
    x = desugar(parse(text))
    line["profile"] = [getattr(v, "value", v) for v in vars(profile(x)).values()]
    line["norm"] = print_term(cf_to_term(canonicalize(x)))
    c = classify_absorption(x)
    line["class"] = f"case {c.case}" if hasattr(c, "case") else type(c).__name__
    line["spectrum"] = spectrum_description(x).value
    line["absorbs"] = [absorbs(parse(a), x) for a in A_TERMS]
    line["square"] = is_square(x)
    line["selfsim"] = bool(is_self_similar(x))


def answers(text: str) -> dict:
    """The corpus line of text, computed with cold caches."""
    for f in (terms.desugar, profiles._profile, canon._canon):
        f.cache_clear()
    line = {"term": text}
    try:
        with_budget(BUDGET_CALLS, _ask, text, line)
    except OverBudget:
        line["stop"] = "OverBudget"
    except StuckError:
        line["stop"] = "Stuck"
    except UnsupportedError:
        line["stop"] = "Unsupported"
    return line


def _lines() -> list[dict]:
    return [json.loads(s) for s in CORPUS.read_text().splitlines()]


def _dump(line: dict) -> str:
    return json.dumps(line, separators=(",", ":"))


def test_corpus_has_200_distinct_terms():
    texts = [line["term"] for line in _lines()]
    assert len(texts) == 200 and len(set(texts)) == 200


@pytest.mark.parametrize("line", [pytest.param(line, id=f"line{i + 1}")
                                  for i, line in enumerate(_lines())])
def test_corpus_line(line):
    assert _dump(answers(line["term"])) == _dump(line)


def regenerate() -> int:
    """Rewrite the lines that have a stop; refuse if a decided line changes."""
    old = _lines()
    new = [answers(line["term"]) for line in old]
    moved = [i for i, (a, b) in enumerate(zip(old, new)) if _dump(a) != _dump(b)]
    decided = [i + 1 for i in moved if "stop" not in old[i]]
    if decided:
        print(f"decided lines would change, not written: {decided}")
        return 1
    for i in moved:
        print(f"line {i + 1}: {_dump(old[i])}\n     -> {_dump(new[i])}")
    CORPUS.write_text("".join(_dump(line) + "\n" for line in new))
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
