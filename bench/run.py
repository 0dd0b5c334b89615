#!/usr/bin/env python3
"""The ordercalc benchmark.

    python3 bench/run.py --workload decide --seed 1 --seconds 15 --trace 0

runs one workload as a closed loop of one caller, in one process and
one thread, for --seconds of measurement.  A verdict pass then asks the
workload's first inputs again, under call budgets instead of deadlines,
and checks every answer.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it makes a separate traced run and prints the
per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record of the
run is written under bench/out/.  --workload all runs every workload in
turn and prints a table.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("decide", "session", "oracle", "cli")
# Timed runs: a query still running after its deadline is stopped and
# counted as over deadline: no verdict, and not completed.  Untame
# equality can otherwise spend seconds on one generated term and swamp a
# run; the deadlines sit well above each workload's 99th percentile
# (session: about 8 ms once its caches are warm).  The session warm-up
# fills the caches under the decide deadline.
QUERY_DEADLINE_S = {"decide": 0.05, "session": 0.02, "oracle": 2.0, "cli": 30.0}
# The verdict pass, outside the timed runs, asks this many first inputs
# of the workload again and checks every answer; its operations are the
# `attempted` and `failed` of the result line.  There a query is stopped
# after a budget of Python function calls instead of a deadline (about
# what the deadline allows on a typical machine), so that which queries
# end, and how, does not depend on the speed of the machine: runs of one
# seed attempt and fail the same operations, and two commits can be
# compared on `failed` and on the answer digest.
VERDICT_QUERIES = {"decide": 800, "session": 600, "oracle": 40, "cli": 24}
QUERY_BUDGET_CALLS = {"decide": 200_000, "session": 200_000, "oracle": 6_000_000,
                      "cli": 3_000_000}
# Above the 95th percentile the decide and session latencies depend on
# which rare term shapes a seed happens to draw, and runs with different
# seeds stop agreeing; the tail is taken no higher than that.
TAIL_CAP = 95
SETUP_REPEATS = 7
SCALING_REPEATS = 3
# Layers a query does not call itself are timed on up to this many
# calls each, with a deadline per call.
PROBED = ("canon.cf_equal", "cli.run")
PROBE_CALLS = 300
PROBE_DEADLINE_S = 5.0

clock = time.perf_counter


def import_program():
    """Import ordercalc from this checkout's src/, never from elsewhere.

    The benchmark's own modules that use the program (workloads) are
    imported inside functions, after this has run."""
    if not (SRC / "ordercalc" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ordercalc'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ordercalc
    if Path(ordercalc.__file__).resolve().parent != SRC / "ordercalc":
        sys.exit(f"error: imported ordercalc from {ordercalc.__file__}, not from {SRC}")
    return ordercalc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_inputs(workload: str, seed: int, seconds: int):
    if workload == "decide":
        return inputs.decide_inputs(seed, seconds)
    if workload == "session":
        return inputs.session_inputs(seed, seconds)
    if workload == "oracle":
        import ordercalc as oc
        return inputs.oracle_inputs(seed, seconds, lambda t: oc.profile(oc.parse(t)))
    return inputs.cli_inputs(seed, seconds)


# --- the query loop -------------------------------------------------------------


class NoVerdict(Exception):
    """A CLI child ended with exit code 2 or 3."""


class Stream:
    """Per-query records of one timed pass."""

    def __init__(self) -> None:
        self.keys: list = []
        self.latency: list[float] = []
        self.outcome: list[str] = []
        self.answers: list = []
        self.failures: dict[int, str] = {}
        self.elapsed = 0.0
        self.form_sizes: list[int] = []
        self.points = 0
        self.rounds = 0

    def __len__(self) -> int:
        return len(self.latency)


class Workload:
    """Binds a workload's inputs to its query function."""

    def __init__(self, name: str, data, L) -> None:
        import ordercalc as oc
        import workloads as wl
        self.name = name
        self.L = L
        self.clear = name in ("decide", "oracle")
        self.a_texts = inputs.A_TERMS
        self.a_terms = [oc.parse(a) for a in inputs.A_TERMS]
        self.warmup = None
        if name == "decide":
            self.items = data
            self.key = lambda item: item
            self.query = lambda item, ans, ctx: wl.decide_query(L, self.a_terms, item, ans, ctx)
        elif name == "session":
            # The timed stream starts once every pool term has been asked,
            # so it measures the caches serving hits, and what it measures
            # does not depend on how many queries a run gets through.
            self.pool, self.items = data
            self.warmup = range(len(self.pool))
            self.key = lambda item: self.pool[item]
            self.query = lambda item, ans, ctx: wl.decide_query(
                L, self.a_terms, self.pool[item], ans, ctx)
        elif name == "oracle":
            self.items = data
            self.key = lambda item: [item["check"], *item["pair"], *item["shuffle"]]
            self.query = lambda item, ans, ctx: wl.oracle_query(L, item, ans, ctx)
        else:
            self.items = data
            self.key = lambda item: item
            self.query = cli_query


def cli_query(argv, ans, ctx):
    p = subprocess.run([sys.executable, "-m", "ordercalc.cli", *argv], cwd=ROOT,
                       env=child_env(), capture_output=True, text=True,
                       timeout=QUERY_DEADLINE_S["cli"])
    ans.extend([p.returncode, p.stdout])
    if p.returncode in (2, 3):
        raise NoVerdict
    if p.returncode != 0:
        tail = (p.stderr.strip().splitlines() or ["no output"])[-1]
        return f"exit code {p.returncode}: {tail}"[:300]
    return None


def ask(query, item, limit):
    """One query under `limit` (a deadline or a call budget):
    (outcome, failure or None, answers, context)."""
    import ordercalc as oc
    ans: list = []
    ctx: dict = {}
    detail = None
    try:
        detail = limit(query, item, ans, ctx)
        outcome = "failed" if detail else "verdict"
    except (layers.OverDeadline, subprocess.TimeoutExpired):
        outcome = "over_deadline"
    except layers.OverBudget:
        outcome = "over_budget"
    except oc.StuckError:
        outcome = "stuck"
    except oc.UnsupportedError:
        outcome = "unsupported"
    except (oc.ParseError, oc.ValidationError, NoVerdict):
        outcome = "no_verdict"
    except Exception as e:  # any other exception is a failure of the program
        outcome, detail = "failed", f"{type(e).__name__}: {e}"[:300]
    return outcome, detail, ans, ctx


def deadline(seconds: float | None):
    if seconds is None:  # subprocess times out a CLI child
        return lambda fn, *args: fn(*args)
    return lambda fn, *args: layers.with_deadline(seconds, fn, *args)


def run_stream(w: Workload, seconds: float | None = None, count: int | None = None,
               tracer=None, tallies=None, warmup: bool = False) -> Stream:
    """Closed loop over w.items for `seconds` of measured time, or for
    `count` queries; with `warmup`, once over w.warmup."""
    import workloads as wl
    present = layers.caches()
    query = tracer.wrap("bench.query", w.query) if tracer else w.query
    limit = deadline(None if w.name == "cli" else
                     QUERY_DEADLINE_S["decide" if warmup else w.name])
    s = Stream()
    items = w.warmup if warmup else w.items
    if warmup:
        count = len(items)
    before = {name: f.cache_info() for name, f in present.items()}
    start = clock()
    i = 0
    while (count is None and clock() - start < seconds) or (count is not None and i < count):
        item = items[i % len(items)]
        if w.clear:
            layers.clear_caches(present)
        if tracer:
            tracer.query = i
        t0 = clock()
        outcome, detail, ans, ctx = ask(query, item, limit)
        s.latency.append(clock() - t0)
        s.keys.append(item)
        s.outcome.append(outcome)
        s.answers.append(ans)
        if detail:
            s.failures[i] = detail
        if tracer:
            if "cf" in ctx:
                s.form_sizes.append(wl.form_size(ctx["cf"]))
            s.points += ctx.get("points", 0)
            s.rounds += ctx.get("rounds", 0)
            if w.clear:
                for name, f in present.items():
                    tallies[name].add(f.cache_info())
        i += 1
    s.elapsed = clock() - start
    if tracer and not w.clear:
        for name, f in present.items():
            tallies[name].add(f.cache_info(), before[name])
    return s


def timed(w: Workload, seconds: float) -> Stream:
    """The timed stream, after the workload's warm-up if it has one."""
    if w.warmup is not None:
        run_stream(w, warmup=True)
    return run_stream(w, seconds=seconds)


# --- checks -----------------------------------------------------------------------


class Checks:
    """The verdict pass: answers and failures of the first inputs, found
    under call budgets, and the reference results."""

    def __init__(self) -> None:
        self.failed_queries: dict[int, str] = {}
        self.keys: list = []
        self.answers: list = []
        self.outcomes: dict[str, int] = {}
        self.checked = 0
        self.cut = 0
        self.references: list[dict] = []

    def fail(self, i: int, why: str) -> None:
        self.failed_queries.setdefault(i, why)


def verdict_pass(w: Workload, s: Stream) -> Checks:
    """Ask the first VERDICT_QUERIES inputs again under call budgets and
    check every answer.  decide: each term with cold caches.  session:
    the first queries of the stream in order, from empty caches that are
    never cleared; a repeated term must get the same answers every time.
    oracle: each query with cold caches.  cli: the children of the timed
    run (made here if it did not get that far) against cli.run in this
    process."""
    import workloads as wl
    checks = Checks()
    budget = QUERY_BUDGET_CALLS[w.name]
    limit = lambda fn, *args: layers.with_budget(budget, fn, *args)  # noqa: E731
    present = layers.caches()
    layers.clear_caches(present)
    first: dict = {}
    for i, item in enumerate(w.items[:VERDICT_QUERIES[w.name]]):
        if w.clear:
            layers.clear_caches(present)
        if w.name == "cli":
            outcome, detail, ans = cli_verdict(w, s, i, item, limit)
        else:
            outcome, detail, ans, _ = ask(w.query, item, limit)
        checks.keys.append(w.key(item))
        checks.answers.append([outcome, ans])
        checks.outcomes[outcome] = checks.outcomes.get(outcome, 0) + 1
        if detail:
            checks.fail(i, detail)
        if w.name not in ("decide", "session") or outcome == "over_budget":
            continue
        if w.name == "session":
            j = first.setdefault(item, i)
            if j != i:
                if checks.answers[j] != [outcome, ans]:
                    checks.fail(i, f"answers to {w.key(item)!r} changed on repeat")
                continue
        checks.checked += 1
        failure, cut = wl.check_decide_answers(w.L, w.a_terms, w.a_texts, w.key(item), ans, i)
        checks.cut += cut
        if failure:
            checks.fail(i, failure)
    return checks


def cli_verdict(w: Workload, s: Stream, i: int, argv, limit):
    """The child's answer to query i against cli.run(argv) in this process."""
    import workloads as wl
    if i < len(s) and s.outcome[i] != "over_deadline":
        outcome, detail, ans = s.outcome[i], s.failures.get(i), s.answers[i]
    else:
        outcome, detail, ans, _ = ask(cli_query, argv, lambda fn, *args: fn(*args))
    if outcome == "over_deadline" or detail:
        return outcome, detail, ans
    code, out = ans
    try:
        want = limit(wl.cli_in_process, w.L, argv)
    except layers.OverBudget:
        return "over_budget", None, [code]
    except Exception as e:  # any exception in the program is a failure
        return "failed", f"in-process cli.run raised {type(e).__name__}: {e}"[:300], [code]
    try:
        doc = json.loads(out)
    except ValueError:
        return outcome, f"exit code {code} with no JSON document", [code, out]
    if want != (code, doc):
        detail = f"child answered {(code, doc)!r}, in-process {want!r}"[:300]
    return outcome, detail, [code, doc]


def run_references(w: Workload, checks: Checks, with_untame: bool) -> dict:
    """Golden answers and known defects; returns timings by name."""
    import workloads as wl
    if w.name in ("decide", "session"):
        refs = wl.decide_reference(with_untame=w.name == "decide" and with_untame)
    elif w.name == "oracle":
        refs = wl.oracle_reference()
    else:
        refs = [(" ".join(argv), "oracle" if want is None else "verdict",
                 lambda a=argv, c=code, r=want: cli_reference(a, c, r))
                for argv, code, want in wl.CLI_REFERENCE]
    times = {}
    for name, kind, thunk in refs:
        t0 = clock()
        try:
            ok, got = layers.with_deadline(wl.REFERENCE_DEADLINE_S, thunk)
        except layers.OverDeadline:
            ok, got = False, "over deadline"
        except Exception as e:  # a reference that raises is a failure of the program
            ok, got = False, f"{type(e).__name__}: {e}"[:300]
        times[name] = clock() - t0
        checks.references.append({"name": name, "kind": kind, "ok": ok, "answer": repr(got),
                                  "seconds": round(times[name], 6)})
    return times


def cli_reference(argv, want_code, want_result):
    import workloads as wl
    p = subprocess.run([sys.executable, "-m", "ordercalc.cli", *argv], cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=60)
    try:
        doc = json.loads(p.stdout)
    except ValueError:
        doc = None
    ok = p.returncode == want_code and doc is not None and wl.cli_result_ok(doc, want_result)
    return ok, [p.returncode, doc]


# --- probes for the traced run -----------------------------------------------------


def median_ms(fn, repeats: int, before=None) -> float:
    ts = []
    for _ in range(repeats):
        if before:
            before()
        t0 = clock()
        fn()
        ts.append(clock() - t0)
    return statistics.median(ts) * 1e3


def scaling_series() -> dict:
    import ordercalc as oc
    present = layers.caches()
    cold = lambda: layers.clear_caches(present)  # noqa: E731
    out = {}
    q, q11q = oc.parse("Q"), oc.parse("Q[1,1+Q]")
    for r in (128, 256, 512):
        out[f"oracle.back_and_forth.ms_r{r}"] = median_ms(
            lambda: oc.back_and_forth(q, q11q, r), SCALING_REPEATS, cold)
    qnz = oc.parse("Q[N,Z]")
    for b in (500, 2000):
        out[f"oracle.cross_check.ms_b{b}"] = median_ms(
            lambda: oc.cross_check(qnz, b), SCALING_REPEATS, cold)
    for n in (100, 1000, 10000):
        t = oc.parse(f"{n}*(N+1+N~)")
        out[f"canon.canonicalize.ms_n{n}"] = median_ms(
            lambda: oc.canonicalize(t), SCALING_REPEATS, cold)
    return out


def cli_probes() -> dict:
    env = child_env()
    interp = median_ms(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True),
                       SETUP_REPEATS)
    code = ("import time; t = time.perf_counter(); import ordercalc.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
        imports.append(float(p.stdout))
    return {"cli.interpreter_ms": interp, "cli.import_ms": statistics.median(imports) * 1e3}


def call_probes(w: Workload, s: Stream) -> dict:
    """Layers that a query does not call itself, timed on the run's own
    inputs: cf_equal of each norm answer against its input (decide and
    session), and cli.run in this process (cli).  Milliseconds of self
    time per call, from a tracer of their own."""
    import ordercalc as oc
    import workloads as wl
    tracer = layers.Tracer()
    L = layers.Layers(tracer)

    def norm_equal(text, norm):
        return L.cf_equal(oc.canonicalize(oc.parse(norm)), oc.canonicalize(oc.parse(text)))

    calls: list = []
    if w.name in ("decide", "session"):
        done = set()
        for i, item in enumerate(s.keys):
            if s.outcome[i] == "verdict" and item not in done and len(done) < PROBE_CALLS:
                done.add(item)
                calls.append((norm_equal, w.key(item), s.answers[i][1]))
    elif w.name == "cli":
        calls = [(wl.cli_in_process, L, argv) for argv in w.items[:PROBE_CALLS]]
    for fn, *args in calls:
        try:
            layers.with_deadline(PROBE_DEADLINE_S, fn, *args)
        except (layers.OverDeadline, Exception):  # the verdict pass judges the answers
            pass
    self_s = tracer.self_times()
    out = {}
    for name in PROBED:
        n = sum(1 for span in tracer.spans if span is not None and span[0] == name)
        out[f"{name}.busy_ms"] = self_s.get(name, 0.0) * 1e3 / n if n else 0.0
    return out


def setup_seconds(workload: str, seed: int, seconds: int) -> list[float]:
    """Wall time of fresh processes that start, import and make the inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run(argv, cwd=ROOT, check=True)
        out.append(clock() - t0)
    return out


# --- metrics ------------------------------------------------------------------------


def tail(latency: list[float]) -> tuple[float, float, int]:
    """The highest percentile, up to TAIL_CAP, with at least ten samples
    beyond it: (value in seconds, percentile, samples beyond)."""
    lat = sorted(latency)
    n = len(lat)
    k = max(0, min(n - 11, math.ceil(TAIL_CAP / 100 * n) - 1))
    return lat[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(s: Stream, setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    value, pct, beyond = tail(s.latency)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(s.latency) * 1e3,
        "latency_tail_ms": value * 1e3,
        "throughput_qps": (len(s) - s.outcome.count("over_deadline")) / s.elapsed,
        "decided_share": s.outcome.count("verdict") / len(s),
        "peak_rss_mb": rss_mb,
    }
    notes = {"tail_percentile": round(pct, 4), "tail_samples_beyond": beyond,
             "samples": len(s), "setup_runs_s": setup}
    return metrics, notes


def per_layer(w: Workload, s: Stream, tracer, tallies: dict, overhead: float,
              checks: Checks, ref_times: dict, probes: dict) -> dict:
    import workloads as wl
    n = len(s)
    self_s = tracer.self_times()
    out = {}
    for name in layers.TRACED:
        if name not in PROBED:
            out[f"{name}.busy_ms"] = self_s.get(name, 0.0) * 1e3 / n
    for name, (_, _, entries) in layers.CACHES.items():
        t = tallies.get(name)
        total = t.hits + t.misses if t else 0
        out[f"{name}.hit_ratio"] = t.hits / total if total else 0.0
        out[entries] = t.max_entries if t else 0
    out["canon.form_size"] = statistics.mean(s.form_sizes) if s.form_sizes else 0.0
    out["canon.stuck_share"] = s.outcome.count("stuck") / n
    out["classify.unsupported_share"] = s.outcome.count("unsupported") / n
    cc = self_s.get("oracle.cross_check", 0.0)
    out["oracle.cross_check.points_per_s"] = s.points / cc if cc else 0.0
    bnf = self_s.get("oracle.back_and_forth", 0.0)
    out["oracle.back_and_forth.rounds_per_s"] = s.rounds / bnf if bnf else 0.0
    out["canon.canonicalize.ms_untame"] = ref_times.get(
        f"canonicalize {wl.UNTAME_TERM}", 0.0) * 1e3
    out["bench.trace_overhead_share"] = overhead
    out["bench.over_deadline_share"] = s.outcome.count("over_deadline") / n
    attempted, failed, _ = verdict_counts(checks)
    out["bench.failed_share"] = failed / attempted
    out.update(probes)
    return out


# --- run record ---------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(checks: Checks) -> str:
    """Of every answer of the verdict pass and of the reference checks."""
    h = hashlib.sha256()
    for key, answer in zip(checks.keys, checks.answers):
        h.update(json.dumps([key, answer], sort_keys=True, default=repr).encode())
    for r in checks.references:
        h.update(json.dumps([r["name"], r["answer"]]).encode())
    return h.hexdigest()


def counts(outcomes: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for o in outcomes:
        out[o] = out.get(o, 0) + 1
    return out


def record(args, w: Workload, s: Stream, checks: Checks, metrics: dict, notes: dict,
           start_load) -> dict:
    failures = sorted(checks.failed_queries.items())
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": start_load, "commit": git_commit(),
        "timed": {"query_deadline_s": QUERY_DEADLINE_S[w.name], "queries": len(s),
                  "elapsed_s": s.elapsed, "outcomes": counts(s.outcome),
                  "corpus_size": len(w.items), "corpus_cycles": len(s) // len(w.items),
                  "failed_queries": len(s.failures),
                  "failure_examples": [{"query": i, "input": w.key(s.keys[i]), "why": why}
                                       for i, why in sorted(s.failures.items())[:10]]},
        "verdict_pass": {"queries": len(checks.answers),
                         "budget_calls": QUERY_BUDGET_CALLS[w.name],
                         "outcomes": checks.outcomes, "checked": checks.checked,
                         "checks_over_budget": checks.cut,
                         "failed_queries": len(failures),
                         "failure_examples": [{"query": i, "input": checks.keys[i], "why": why}
                                              for i, why in failures[:25]],
                         "answer_digest": digest(checks)},
        "references": checks.references,
        "caches_absent": sorted(set(layers.CACHES) - set(layers.caches())),
        **notes,
        "metrics": metrics,
    }


def units() -> dict[str, str]:
    """Metric units, as BENCHMARK.json at the root of the checkout declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def emit(rec: dict, checks: Checks, metrics: dict) -> None:
    unit = units()
    attempted, failed, correct = verdict_counts(checks)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    path.write_text(json.dumps(rec, indent=1, default=repr) + "\n")
    print(f"{rec['workload']} seed {rec['seed']}: {rec['timed']['queries']} timed queries in "
          f"{rec['timed']['elapsed_s']:.2f} s; verdict pass: {failed} of {attempted} "
          f"operations failed; record {path}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}))


# --- modes ----------------------------------------------------------------------------


def main_one(args) -> None:
    start_load = os.getloadavg()
    import_program()
    data = make_inputs(args.workload, args.seed, args.seconds)
    if args.setup_only:
        return
    layers.install_deadline_handler()
    if args.trace:
        traced(args, data, start_load)
    else:
        untraced(args, data, start_load)


def verdict_counts(checks: Checks) -> tuple[int, int, bool]:
    """attempted, failed and correct of the result line: the verdict pass
    and the reference checks."""
    attempted = len(checks.answers) + len(checks.references)
    failed = len(checks.failed_queries) + sum(not r["ok"] for r in checks.references)
    correct = all(r["ok"] for r in checks.references if r["kind"] == "verdict")
    return attempted, failed, correct


def untraced(args, data, start_load) -> None:
    w = Workload(args.workload, data, layers.Layers())
    phases = [clock()]
    s = timed(w, seconds=args.seconds)
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    phases.append(clock())
    checks = verdict_pass(w, s)
    run_references(w, checks, with_untame=False)
    phases.append(clock())
    setup = setup_seconds(args.workload, args.seed, args.seconds)
    phases.append(clock())
    metrics, notes = end_to_end(s, setup, rss_mb)
    notes["phase_s"] = dict(zip(["warmup_and_timed", "verdict_and_references", "setup_runs"],
                                (b - a for a, b in zip(phases, phases[1:]))))
    emit(record(args, w, s, checks, metrics, notes, start_load), checks, metrics)


def traced(args, data, start_load) -> None:
    """Untraced and traced passes over the same queries; the per-layer
    numbers come from the traced one, the overhead from the pair."""
    w = Workload(args.workload, data, layers.Layers())
    first = timed(w, seconds=args.seconds / 2)
    layers.clear_caches(layers.caches())
    tracer = layers.Tracer()
    tw = Workload(args.workload, data, layers.Layers(tracer))
    tallies = {name: layers.CacheTally() for name in layers.caches()}
    if w.warmup is not None:
        run_stream(w, warmup=True)
    s = run_stream(tw, count=len(first), tracer=tracer, tallies=tallies)
    overhead = s.elapsed / first.elapsed - 1
    tracer.query = None
    checks = verdict_pass(w, s)
    ref_times = run_references(w, checks, with_untame=True)
    probes = {**scaling_series(), **cli_probes(), **call_probes(w, s)}
    metrics = per_layer(w, s, tracer, tallies, overhead, checks, ref_times, probes)
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{w.name}-seed{args.seed}-spans.json.gz", "wt") as f:
        json.dump({"fields": ["name", "start", "end", "query", "parent"],
                   "spans": tracer.spans}, f)
    notes = {"untraced_pass_s": first.elapsed, "traced_pass_s": s.elapsed}
    emit(record(args, w, s, checks, metrics, notes, start_load), checks, metrics)


def main_all(args) -> None:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            sys.exit(f"error: workload {name} exited with code {p.returncode}")
        results[name] = json.loads(p.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<44}" + "".join(f"{n:>14}" for n in WORKLOADS) + "  unit")
    for m in names:
        row = "".join(f"{results[n]['metrics'][m]['value']:>14.6g}" for n in WORKLOADS)
        print(f"{m:<44}{row}  {results[WORKLOADS[0]]['metrics'][m]['unit']}")
    print("failed/attempted  " + "  ".join(
        f"{n} {r['failed']}/{r['attempted']}" for n, r in results.items()))
    print(json.dumps({"workloads": results}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only start, import and make the inputs (times set-up)")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        main_all(args)
    else:
        main_one(args)


if __name__ == "__main__":
    main()
