"""Command-line front end.

Exit codes: 0 a verdict was computed (false is a verdict), 2 parse or
validation error, 3 no verdict available (stuck product or untame
input), 4 internal invariant violation.

Imports: at module level this file imports only ``terms`` and ``textio``,
which every subcommand needs to parse its operands and report errors.
Each row of ``_COMMANDS`` names the one module its handler runs; ``run``
imports that module and passes it to the handler, so a one-shot process
loads only what its subcommand uses.  ``json`` is imported only under
``--json``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from importlib import import_module
from typing import NamedTuple

from .terms import InternalInvariantError, StuckError, UnsupportedError, ValidationError
from .textio import ParseError, parse, print_term

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _decomposition_fields(d):
    from .canon import cf_to_term  # loaded already, by classify

    return {
        "L": print_term(cf_to_term(d.left)),
        "blocks": [print_term(cf_to_term(b)) for b in d.blocks],
        "R": print_term(cf_to_term(d.right)),
    }


_WORD = {True: "true", False: "false", None: "not applicable"}


# Handlers take the module their row names, then the parsed operands (and
# the -n/-r value, if any).  A one-string result is both the text line
# and the JSON result; the others return (text, JSON payload, exit code).
def _classify(classify, t):
    match classify.classify_absorption(t):
        case classify.AbsorptionCase(n, d):
            f = _decomposition_fields(d)
            text = f"case {n}\nL: {f['L']}\nblocks: [{', '.join(f['blocks'])}]\nR: {f['R']}"
            return text, {"verdict": f"case {n}", "case": n} | f, EXIT_OK
        case classify.SelfSimilarNotAbsorbing(reason, d):
            verdict, fields = "self-similar, not left-absorbing", _decomposition_fields(d)
        case classify.NotSelfSimilar(reason):
            verdict, fields = "not self-similar", {}
    return f"{verdict} ({reason})", {"verdict": verdict, "reason": reason} | fields, EXIT_OK


def _selfsim(classify, t):
    ss = classify.is_self_similar(t)
    return "true" if ss else f"false ({ss.reason})", _WORD[bool(ss)], EXIT_OK


def _enum(oracle, t, count):
    pts = oracle.enumerate_points(t, count)
    return "\n".join(str(c) for c in pts), {"points": pts}, EXIT_OK


def _check(oracle, t, count):
    report = oracle.cross_check(t, count)
    code = EXIT_INTERNAL if report.failed else EXIT_OK
    return report.to_text().rstrip("\n"), report.to_json_dict(), code


def _bnf(oracle, x, y, rounds):
    from .profiles import profile  # loaded already, by oracle

    result = oracle.back_and_forth(x, y, rounds)
    if isinstance(result, oracle.MatchFailure):
        px, py = profile(x), profile(y)
        bug = px.dense_class is not None and px.dense_class is py.dense_class
        text = f"failure at round {result.round}: {result.reason}"
        return (text, {"pairs": [], "failed_round": result.round},
                EXIT_INTERNAL if bug else EXIT_OK)
    lines = [f"round {i}: {a} <-> {b}" for i, (a, b) in enumerate(result.pairs, start=1)]
    lines.append(f"partial isomorphism with {len(result.pairs)} pairs")
    return "\n".join(lines), {"pairs": result.pairs, "failed_round": None}, EXIT_OK


class _Command(NamedTuple):
    help: str
    operands: tuple[str, ...]
    module: str  # the one ordercalc module the handler runs, imported by run
    handler: Callable
    option: tuple[str, str, int] | None = None  # flag, name and default of -n/-r


# One row per subcommand; `ordercalc -h` lists them in this order.
_COMMANDS = {
    "parse": _Command("echo the validated syntax tree", ("expr",), "textio",
                      lambda textio, t: textio.ast_repr(t)),
    "norm": _Command("canonical form, in expression syntax", ("expr",), "canon",
                     lambda canon, t: print_term(canon.cf_to_term(canon.canonicalize(t)))),
    "classify": _Command("absorption class with witness decomposition", ("expr",), "classify",
                         _classify),
    "absorbs": _Command("does A*X denote the same order as X", ("a", "x"), "classify",
                        lambda classify, a, x: _WORD[classify.absorbs(a, x)]),
    "spectrum": _Command("description of the absorbed orders", ("expr",), "classify",
                         lambda classify, t: classify.spectrum_description(t).value),
    "square": _Command("is X isomorphic to X*X", ("expr",), "classify",
                       lambda classify, t: _WORD[classify.is_square(t)]),
    "square2": _Command("square test for orders with both endpoints", ("expr",), "classify",
                        lambda classify, t: _WORD[classify.square_two_endpoints(t)]),
    "selfsim": _Command("does X contain two disjoint convex copies of itself", ("expr",),
                        "classify", _selfsim),
    "enum": _Command("first points of the concrete realization", ("expr",), "oracle", _enum,
                     ("-n", "count", 10)),
    "check": _Command("cross-check symbolic facts against sampled points", ("expr",), "oracle",
                      _check, ("-n", "count", 100)),
    "bnf": _Command("back-and-forth matching transcript", ("x", "y"), "oracle", _bnf,
                    ("-r", "rounds", 6)),
    "dot": _Command("canonical form as a DOT digraph", ("expr",), "canon",
                    lambda canon, t: canon.to_dot(canon.canonicalize(t)).rstrip("\n")),
}

# Errors whose JSON kind and exit code do not depend on the instance.
_FIXED_KINDS = {
    StuckError: ("Stuck", EXIT_UNSUPPORTED),
    UnsupportedError: ("Unsupported", EXIT_UNSUPPORTED),
    InternalInvariantError: ("Internal", EXIT_INTERNAL),
}


def _natural(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer 0 or more, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordercalc",
                                 description="symbolic calculator for countable order types")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for operand in row.operands:
            p.add_argument(operand)
        if row.option is not None:
            flag, dest, default = row.option
            p.add_argument(flag, dest=dest, type=_natural, default=default)
        p.add_argument("--json", action="store_true")
    return ap


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    row = _COMMANDS[args.command]
    inputs = [getattr(args, operand) for operand in row.operands]
    doc = {"command": args.command, "input": inputs[0] if len(inputs) == 1 else inputs}
    extra = [] if row.option is None else [getattr(args, row.option[1])]
    module = import_module(f".{row.module}", __package__)
    try:
        out = row.handler(module, *map(parse, inputs), *extra)
        text, doc["result"], code = (out, out, EXIT_OK) if isinstance(out, str) else out
    except ParseError as e:
        doc["error"] = {"kind": "ParseError", "message": e.message,
                        "span": [e.span.start, e.span.end]}
        code = EXIT_PARSE
    except ValidationError as e:
        doc["error"] = {"kind": e.kind, "message": str(e)}
        code = EXIT_PARSE
    except tuple(_FIXED_KINDS) as e:
        kind, code = _FIXED_KINDS[type(e)]
        doc["error"] = {"kind": kind, "message": str(e)}
    if args.json:
        import json

        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    elif "error" in doc:
        sys.stderr.write(f"error: {doc['error']['kind']}: {doc['error']['message']}\n")
    else:
        sys.stdout.write(text + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
