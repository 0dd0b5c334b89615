"""Command-line front end.

Exit codes: 0 a verdict was computed (false is a verdict), 2 parse or
validation error, 3 no verdict available (stuck product or untame
input), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canon import (
    InternalInvariantError,
    StuckError,
    UnsupportedError,
    canonicalize,
    cf_to_term,
    to_dot,
)
from .classify import (
    AbsorptionCase,
    NotSelfSimilar,
    SelfSimilarNotAbsorbing,
    absorbs,
    classify_absorption,
    is_self_similar,
    is_square,
    spectrum_description,
    square_two_endpoints,
)
from .oracle import MatchFailure, back_and_forth, cross_check, enumerate_points
from .profiles import profile
from .terms import ValidationError
from .textio import ParseError, ast_repr, parse, print_term

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _decomposition_fields(d):
    return {
        "L": print_term(cf_to_term(d.left)),
        "blocks": [print_term(cf_to_term(b)) for b in d.blocks],
        "R": print_term(cf_to_term(d.right)),
    }


def _json_code(c):
    if isinstance(c, tuple):
        return [_json_code(p) for p in c]
    return c


# Each command returns (text, JSON payload, exit code).
def _cmd_parse(args):
    t = parse(args.expr)
    return ast_repr(t), ast_repr(t), EXIT_OK


def _cmd_norm(args):
    cf = canonicalize(parse(args.expr))
    text = print_term(cf_to_term(cf))
    return text, text, EXIT_OK


def _cmd_classify(args):
    verdict = classify_absorption(parse(args.expr))
    match verdict:
        case AbsorptionCase(n, d):
            fields = _decomposition_fields(d)
            text = "\n".join(
                [f"case {n}", f"L: {fields['L']}",
                 f"blocks: [{', '.join(fields['blocks'])}]", f"R: {fields['R']}"]
            )
            return text, {"verdict": f"case {n}", "case": n} | fields, EXIT_OK
        case SelfSimilarNotAbsorbing(reason, d):
            fields = _decomposition_fields(d)
            return (
                f"self-similar, not left-absorbing ({reason})",
                {"verdict": "self-similar, not left-absorbing", "reason": reason} | fields,
                EXIT_OK,
            )
        case NotSelfSimilar(reason):
            return (
                f"not self-similar ({reason})",
                {"verdict": "not self-similar", "reason": reason},
                EXIT_OK,
            )
    raise AssertionError


def _cmd_absorbs(args):
    verdict = absorbs(parse(args.a), parse(args.x))
    s = "true" if verdict else "false"
    return s, s, EXIT_OK


def _cmd_spectrum(args):
    s = spectrum_description(parse(args.expr)).value
    return s, s, EXIT_OK


def _cmd_square(args):
    s = "true" if is_square(parse(args.expr)) else "false"
    return s, s, EXIT_OK


def _cmd_square2(args):
    verdict = square_two_endpoints(parse(args.expr))
    s = "not applicable" if verdict is None else ("true" if verdict else "false")
    return s, s, EXIT_OK


def _cmd_selfsim(args):
    ss = is_self_similar(parse(args.expr))
    s = "true" if ss else f"false ({ss.reason})"
    return s, "true" if ss else "false", EXIT_OK


def _cmd_enum(args):
    pts = enumerate_points(parse(args.expr), args.count)
    text = "\n".join(str(c) for c in pts)
    return text, {"points": [_json_code(c) for c in pts]}, EXIT_OK


def _cmd_check(args):
    report = cross_check(parse(args.expr), args.count)
    code = EXIT_INTERNAL if report.failed else EXIT_OK
    return report.to_text().rstrip("\n"), report.to_json_dict(), code


def _cmd_bnf(args):
    x, y = parse(args.x), parse(args.y)
    result = back_and_forth(x, y, args.rounds)
    if isinstance(result, MatchFailure):
        px, py = profile(x), profile(y)
        bug = px.dense_class is not None and px.dense_class is py.dense_class
        text = f"failure at round {result.round}: {result.reason}"
        return (text, {"pairs": [], "failed_round": result.round},
                EXIT_INTERNAL if bug else EXIT_OK)
    lines = [
        f"round {i}: {a} <-> {b}" for i, (a, b) in enumerate(result.pairs, start=1)
    ]
    lines.append(f"partial isomorphism with {len(result.pairs)} pairs")
    return (
        "\n".join(lines),
        {"pairs": [[_json_code(a), _json_code(b)] for a, b in result.pairs],
         "failed_round": None},
        EXIT_OK,
    )


def _cmd_dot(args):
    text = to_dot(canonicalize(parse(args.expr))).rstrip("\n")
    return text, text, EXIT_OK


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

    def add(name, fn, doc, *fields, count=None, rounds=None):
        p = sub.add_parser(name, help=doc)
        for f in fields:
            p.add_argument(f)
        if count is not None:
            p.add_argument("-n", dest="count", type=_natural, default=count)
        if rounds is not None:
            p.add_argument("-r", dest="rounds", type=_natural, default=rounds)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)

    add("parse", _cmd_parse, "echo the validated syntax tree", "expr")
    add("norm", _cmd_norm, "canonical form, in expression syntax", "expr")
    add("classify", _cmd_classify, "absorption class with witness decomposition", "expr")
    add("absorbs", _cmd_absorbs, "does A*X denote the same order as X", "a", "x")
    add("spectrum", _cmd_spectrum, "description of the absorbed orders", "expr")
    add("square", _cmd_square, "is X isomorphic to X*X", "expr")
    add("square2", _cmd_square2, "square test for orders with both endpoints", "expr")
    add("selfsim", _cmd_selfsim, "does X contain two disjoint convex copies of itself", "expr")
    add("enum", _cmd_enum, "first points of the concrete realization", "expr", count=10)
    add("check", _cmd_check, "cross-check symbolic facts against sampled points", "expr",
        count=100)
    add("bnf", _cmd_bnf, "back-and-forth matching transcript", "x", "y", rounds=6)
    add("dot", _cmd_dot, "canonical form as a DOT digraph", "expr")
    return ap


def _inputs(args) -> list[str]:
    out = []
    for name in ("expr", "a", "x", "y"):
        value = getattr(args, name, None)
        if value is not None:
            out.append(value)
    return out


def _emit_json(command: str, inputs: list[str], payload: dict) -> None:
    doc = {"command": command, "input": inputs[0] if len(inputs) == 1 else inputs}
    doc |= payload
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    inputs = _inputs(args)
    try:
        text, payload, code = args.fn(args)
        if args.json:
            _emit_json(args.command, inputs, {"result": payload})
        else:
            sys.stdout.write(text + "\n")
        return code
    except ParseError as e:
        error = {"kind": "ParseError", "message": e.message,
                 "span": [e.span.start, e.span.end]}
        code = EXIT_PARSE
    except ValidationError as e:
        error = {"kind": e.kind, "message": str(e)}
        code = EXIT_PARSE
    except StuckError as e:
        error = {"kind": "Stuck", "message": str(e)}
        code = EXIT_UNSUPPORTED
    except UnsupportedError as e:
        error = {"kind": "Unsupported", "message": str(e)}
        code = EXIT_UNSUPPORTED
    except InternalInvariantError as e:
        error = {"kind": "Internal", "message": str(e)}
        code = EXIT_INTERNAL
    if args.json:
        _emit_json(args.command, inputs, {"error": error})
    else:
        sys.stderr.write(f"error: {error['kind']}: {error['message']}\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
