"""What one query of each workload asks the program, and how the
answers are checked.

A query function fills ``ans`` with its answers as it goes, so that a
query stopped by ``Stuck``/``Unsupported`` still leaves the answers it
got, and returns a failure description or None.  Checks and reference
sets run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json

import ordercalc as oc

from layers import OverBudget, with_budget

# Python function calls allowed to each check of a decide answer: a
# little more than a typical query makes in 50 ms.
CHECK_BUDGET_CALLS = 200_000
REFERENCE_DEADLINE_S = 60.0

CROSS_CHECK_BUDGET = 100
BNF_ROUNDS = 64
COLORED_ROUNDS = 64

# A 60-character input whose canonicalization spends seconds in the
# bounded unrolling of untame equality.
UNTAME_TERM = "(Q[Q[Q[Z,N~],2,6],N~ + (6)*(8)])*((Z + 6 + 9)*(4 + 8 + N + 1))"


def profile_key(p) -> list:
    dense = p.dense_class.value if p.dense_class is not None else None
    return [p.is_empty, p.size, p.has_left_endpoint, p.has_right_endpoint,
            p.succ_pair_free, p.succ_complete, p.pred_complete, dense]


def class_key(c) -> str:
    case = getattr(c, "case", None)
    return type(c).__name__ if case is None else f"case {case}"


def match_key(r) -> list:
    if isinstance(r, oc.MatchFailure):
        return ["failure", r.round]
    return ["iso", len(r.pairs)]


def rounds_done(r) -> int:
    return r.round if isinstance(r, oc.MatchFailure) else len(r.pairs)


# --- decide and session -------------------------------------------------------


def decide_query(L, a_terms, text, ans, ctx):
    x = L.parse(text)
    d = L.desugar(x)
    ans.append(profile_key(L.profile(d)))
    cf = L.canonicalize(d)
    ctx["cf"] = cf
    ans.append(L.print_term(L.cf_to_term(cf)))
    ans.append(class_key(L.classify_absorption(d)))
    ans.append(L.spectrum_description(d).value)
    absorbed: list[bool] = []
    ans.append(absorbed)
    for a in a_terms:
        absorbed.append(L.absorbs(a, d))
    ans.append(L.is_square(d))
    ans.append(bool(L.is_self_similar(d)))
    return None


def form_size(cf) -> int:
    """Atoms plus components of a canonical form, blocks and bodies included."""
    n = 0
    stack = [cf]
    while stack:
        f = stack.pop()
        for comp in f.components:
            n += 1
            if isinstance(comp, oc.Shuf):
                stack.extend(comp.blocks)
            else:
                atoms = list(comp.atoms)
                while atoms:
                    a = atoms.pop()
                    n += 1
                    if isinstance(a, oc.Pow):
                        atoms.extend(a.body)
    return n


def check_decide_answers(L, a_terms, a_texts, text, ans, index) -> tuple[str | None, int]:
    """Cross-check one query's answers.

    The norm answer must re-parse to a term with the same profile whose
    canonical form is not NotEqual to the input's, and absorbs(A, X)
    must agree with cf_equal(canon(A*X), canon(X)) wherever both
    decide.  One left factor per query is cross-validated, rotating
    through A_TERMS, which keeps the check phase within the run budget.
    Returns (failure or None, number of checks stopped at the budget).
    """
    if len(ans) < 2:
        return None, 0
    cut = 0
    failure = None

    def norm_check():
        x = oc.parse(text)
        cf = oc.canonicalize(x)
        y = oc.parse(ans[1])
        if oc.profile(y) != oc.profile(x):
            return f"norm {ans[1]!r} re-parses to another profile"
        if L.cf_equal(oc.canonicalize(y), cf) is oc.Equality.NOT_EQUAL:
            return f"norm {ans[1]!r} is NotEqual to the input"
        return None

    j = index % len(a_terms)

    def absorbs_check():
        if len(ans) < 5 or len(ans[4]) <= j:
            return None
        x = oc.parse(text)
        try:
            eq = L.cf_equal(oc.canonicalize(oc.Product(a_terms[j], x)), oc.canonicalize(x))
        except (oc.StuckError, oc.UnsupportedError):
            return None
        if eq is oc.Equality.STRUCTURAL_ONLY:
            return None
        if (eq is oc.Equality.EQUAL) != ans[4][j]:
            return (f"absorbs({a_texts[j]}, X) is {ans[4][j]} but cf_equal(A*X, X) "
                    f"is {eq.value}")
        return None

    for check in (norm_check, absorbs_check):
        try:
            failure = failure or with_budget(CHECK_BUDGET_CALLS, check)
        except OverBudget:
            cut += 1
        except (oc.StuckError, oc.UnsupportedError):
            pass
        except Exception as e:  # any other exception is a failure of the program
            failure = failure or f"check raised {type(e).__name__}: {e}"[:300]
    return failure, cut


def _golden_norm(text, expected):
    got = oc.print_term(oc.cf_to_term(oc.canonicalize(oc.parse(text))))
    return got == expected, got


def _golden_case(text, expected):
    got = class_key(oc.classify_absorption(oc.parse(text)))
    return got == expected, got


def _golden_absorbs(a, x, expected):
    got = oc.absorbs(oc.parse(a), oc.parse(x))
    return got is expected, got


def _golden_not_absorbing():
    c = oc.classify_absorption(oc.parse("N + Q[Z]"))
    ss = bool(oc.is_self_similar(oc.parse("N + Q[Z]")))
    got = [class_key(c), ss]
    return got == ["SelfSimilarNotAbsorbing", True], got


def _untame():
    cf = oc.canonicalize(oc.parse(UNTAME_TERM))
    return True, form_size(cf)


def decide_reference(with_untame: bool) -> list:
    """Golden answers from the README and acceptance criteria 1-2.

    Each entry: (name, kind, thunk).  kind "verdict" means a mismatch is
    a wrong verdict.
    """
    refs = []
    for text, want in [("Q[1, 1+Q]", "Q"), ("Q[N, Z + Q[N, Z]]", "Q[N,Z]"),
                       ("Q[1 + Q[Z]]", "Q[1 + Q[Z]]"), ("N + Q[Z] + N~", "N + Q[Z] + N~")]:
        refs.append((f"norm {text}", "verdict", lambda t=text, w=want: _golden_norm(t, w)))
    for text, case in [("Q[Z]", 1), ("Z + Q[Z]", 2), ("N + Q[Z,N]", 2), ("Q[Z] + Z", 3),
                       ("Z + Q[Z] + Z", 4), ("N + Q[Z] + N~", 5)]:
        refs.append((f"classify {text}", "verdict",
                     lambda t=text, c=case: _golden_case(t, f"case {c}")))
    refs.append(("classify N + Q[Z]", "verdict", _golden_not_absorbing))
    for a, x, want in [("1+Q", "Z + Q[Z]", True), ("Q", "Q[Z]", True),
                       ("2", "N + Q[Z] + N~", True), ("1+Q+1", "Z + Q[Z] + Z", True),
                       ("N+N~", "N + Q[Z] + N~", True), ("Q", "Z + Q[Z]", False),
                       ("2", "N + Q[Z]", False), ("2", "Z + Q[Z] + Z", False),
                       ("1+Q+1", "N + Q[Z] + N~", False)]:
        refs.append((f"absorbs {a} | {x}", "verdict",
                     lambda a=a, x=x, w=want: _golden_absorbs(a, x, w)))
    refs.append(("spectrum Q[Z]", "verdict",
                 lambda: (oc.spectrum_description(oc.parse("Q[Z]")).value == "All",
                          oc.spectrum_description(oc.parse("Q[Z]")).value)))
    refs.append(("square Q[Z]", "verdict",
                 lambda: (oc.is_square(oc.parse("Q[Z]")) is True, True)))
    if with_untame:
        refs.append((f"canonicalize {UNTAME_TERM}", "untame", _untame))
    return refs


# --- oracle ---------------------------------------------------------------------


def oracle_query(L, item, ans, ctx):
    rep = L.cross_check(L.parse(item["check"]), CROSS_CHECK_BUDGET)
    ctx["points"] = rep.points_sampled
    ans.append([rep.failed, rep.points_sampled,
                [[o.predicate, o.status] for o in rep.outcomes]])
    x, y = item["pair"]
    r = L.back_and_forth(L.parse(x), L.parse(y), BNF_ROUNDS)
    ctx["rounds"] = rounds_done(r)
    ans.append(match_key(r))
    s, sp = item["shuffle"]
    c = L.colored(L.parse(s), L.parse(sp), COLORED_ROUNDS, item["block_map"])
    ans.append(match_key(c))
    failures = []
    if rep.failed:
        failures.append(f"cross_check({item['check']}) failed")
    if isinstance(r, oc.MatchFailure):
        failures.append(f"back_and_forth({x}, {y}) of dense class {item['dense_class']} "
                        f"failed at round {r.round}")
    if isinstance(c, oc.MatchFailure) and item["shuffle_dense"]:
        failures.append(f"coloured back_and_forth({s}, {sp}) failed at round {c.round}")
    return "; ".join(failures) or None


def _bnf_extends(x, y, rounds):
    r = oc.back_and_forth(oc.parse(x), oc.parse(y), rounds)
    return isinstance(r, oc.PartialIso), match_key(r)


def _cross_check_ok(text, budget):
    rep = oc.cross_check(oc.parse(text), budget)
    return not rep.failed, rep.failed


def oracle_reference() -> list:
    """Back-and-forth between two realizations of one dense type must
    extend; the Q+1 and 1+Q+1 self-pairs fail at this time of writing
    and are recorded as failures, not excluded."""
    refs = [("cross_check Q[N,Z]", "oracle", lambda: _cross_check_ok("Q[N,Z]", 500)),
            ("cross_check N + Q[Z]", "oracle", lambda: _cross_check_ok("N + Q[Z]", 500))]
    for x, y in [("Q", "Q[1,1+Q]"), ("1+Q", "1+Q"), ("Q+1", "Q+1"), ("1+Q+1", "1+Q+1"),
                 ("Q+1", "Q[1,1+Q] + 1")]:
        refs.append((f"back_and_forth {x} | {y}", "oracle",
                     lambda x=x, y=y: _bnf_extends(x, y, 64)))
    return refs


# --- cli --------------------------------------------------------------------------

# argv, expected exit code, expected result (None: any result).  The
# back-and-forth of Q+1 against itself exits 4 at the time of writing.
CLI_REFERENCE = [
    (["norm", "Q[1, 1+Q]", "--json"], 0, "Q"),
    (["classify", "N + Q[Z] + N~", "--json"], 0, 5),
    (["absorbs", "2", "N + Q[Z]", "--json"], 0, "false"),
    (["spectrum", "Q[Z]", "--json"], 0, "All"),
    (["selfsim", "N + Q[Z]", "--json"], 0, "true"),
    (["bnf", "Q+1", "Q+1", "--json"], 0, None),
]


def cli_in_process(L, argv) -> tuple[int, object]:
    """Exit code and JSON document of cli.run(argv) in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = L.run(list(argv))
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    text = buf.getvalue()
    return code, json.loads(text) if text.strip() else None


def cli_result_ok(doc, want) -> bool:
    if want is None:
        return True
    result = doc.get("result")
    if isinstance(result, dict):
        return result.get("case") == want
    return result == want
