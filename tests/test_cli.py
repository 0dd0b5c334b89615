import json
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import HealthCheck, given, seed, settings

from conftest import child_env
from ordercalc.cli import _COMMANDS, MAX_COUNT, run
from ordercalc.textio import MAX_DEPTH

RESULT_SCHEMA = {
    "type": "object",
    "required": ["command", "input"],
    "properties": {
        "command": {"type": "string"},
        "input": {
            "oneOf": [
                {"type": "string"},
                {"type": "array", "items": {"type": "string"}},
            ]
        },
        "result": {
            "oneOf": [
                {"type": "string"},
                {"type": "object"},
            ]
        },
        "error": {
            "type": "object",
            "required": ["kind", "message"],
            "properties": {
                "kind": {"type": "string"},
                "message": {"type": "string"},
                "span": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
    "additionalProperties": False,
}


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_parse_echoes_ast(capsys):
    assert run(["parse", "Z + Q[Z]"]) == 0
    out, _ = _out(capsys)
    assert out == "Sum(Zeta, Shuffle([Zeta]))\n"


def test_norm_collapse(capsys):
    assert run(["norm", "Q[1, 1+Q]"]) == 0
    out, _ = _out(capsys)
    assert out == "Q\n"


def test_classify_case_five(capsys):
    assert run(["classify", "N + Q[Z] + N~"]) == 0
    out, _ = _out(capsys)
    assert out.splitlines()[0] == "case 5"
    assert "blocks: [Z]" in out


def test_absorbs_false_is_exit_zero(capsys):
    assert run(["absorbs", "2", "N + Q[Z]"]) == 0
    out, _ = _out(capsys)
    assert out == "false\n"


def test_spectrum(capsys):
    assert run(["spectrum", "Q[Z]"]) == 0
    out, _ = _out(capsys)
    assert out == "All\n"


def test_square_commands(capsys):
    assert run(["square", "Q[Z]"]) == 0
    assert _out(capsys)[0] == "true\n"
    assert run(["square2", "1 + Q[Z] + 1"]) == 0
    assert _out(capsys)[0] == "false\n"
    assert run(["square2", "Z"]) == 0
    assert _out(capsys)[0] == "not applicable\n"


def test_selfsim(capsys):
    assert run(["selfsim", "N + Q[Z]"]) == 0
    assert _out(capsys)[0] == "true\n"


def test_enum(capsys):
    assert run(["enum", "Z", "-n", "3"]) == 0
    out, _ = _out(capsys)
    assert out == "0\n-1\n1\n"


def test_check_passes(capsys):
    assert run(["check", "N + Q[Z]", "-n", "100"]) == 0
    out, _ = _out(capsys)
    assert "result: ok" in out


def test_bnf(capsys):
    assert run(["bnf", "Q[1,1+Q]", "Q", "-r", "4"]) == 0
    out, _ = _out(capsys)
    assert "partial isomorphism with 4 pairs" in out


@pytest.mark.parametrize("x", ["1", "Q", "N"])
def test_bnf_into_the_empty_order_fails_at_round_one(x, capsys):
    assert run(["bnf", x, "0"]) == 0
    assert _out(capsys)[0].startswith("failure at round 1:")
    assert run(["bnf", x, "0", "--json"]) == 0
    assert json.loads(_out(capsys)[0])["result"]["failed_round"] == 1


def test_dot(capsys):
    assert run(["dot", "N + Q[Z]"]) == 0
    out, _ = _out(capsys)
    assert out.startswith("digraph")


# Oracle transcripts pinned as literals: any change to the point codes,
# the enumeration order or the choice of images shows up here.
BNF_Q_JSON = (
    '{"command": "bnf", "input": ["Q", "Q[1,1+Q]"], "result": {"failed_round": null, '
    '"pairs": [[["", 0], ["", 0]], [["L", 0], ["L", [0, 0]]], [["R", 0], ["R", [0, 0]]], '
    '[["LR", 0], ["L", [1, ["", 0]]]], [["LL", 0], ["LL", 0]], [["RR", 0], ["R", [1, '
    '["", 0]]]], [["RL", 0], ["RL", 0]], [["LRR", 0], ["LR", 0]], [["LLL", 0], ["LLL", '
    '[0, 0]]], [["RRR", 0], ["RR", 0]], [["LLR", 0], ["LLR", [0, 0]]], [["LRL", 0], '
    '["L", [1, ["L", 0]]]]]}}'
)

ENUM_JSON = (
    '{"command": "enum", "input": "N + Q[Z] + N~", "result": {"points": [[0, 0], [0, 1], '
    '[1, ["", 0]], [2, 0], [0, 2], [1, ["", -1]], [1, ["", 1]], [1, ["L", 0]], [1, ["R", '
    '0]], [2, 1], [0, 3], [1, ["", -2]], [1, ["", 2]], [1, ["L", -1]], [1, ["L", 1]], [1,'
    ' ["R", -1]], [1, ["R", 1]], [1, ["LL", 0]], [1, ["LR", 0]], [1, ["RL", 0]], [1, ["RR'
    '", 0]], [2, 2], [0, 4], [1, ["", -3]], [1, ["", 3]], [1, ["L", -2]], [1, ["L", 2]], '
    '[1, ["R", -2]], [1, ["R", 2]], [1, ["LL", -1]]]}}'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bnf", "Q", "Q[1,1+Q]", "-r", "12", "--json"], BNF_Q_JSON),
        (["enum", "N + Q[Z] + N~", "-n", "30", "--json"], ENUM_JSON),
    ],
)
def test_oracle_transcripts_are_pinned(argv, expected, capsys):
    assert run(argv) == 0
    assert _out(capsys)[0] == expected + "\n"


@pytest.mark.parametrize(
    "argv",
    [["enum", "Q", "-n", "-5"], ["check", "Q", "-n", "-4"], ["bnf", "Q", "Q", "-r", "-3"]]
    # Counts are ASCII digits, as numerals in terms are; int() alone reads these too.
    + [[*argv, text] for argv in (["enum", "Q", "-n"], ["check", "Q", "-n"], ["bnf", "Q", "Q", "-r"])
       for text in ("\u0663", "\uff11", "1_0", " 3")],
)
def test_negative_count_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected an integer 0 or more" in _out(capsys)[1]


@pytest.mark.parametrize(
    "argv",
    [[*argv, text] for argv in (["enum", "Q", "-n"], ["check", "Q", "-n"], ["bnf", "Q", "Q", "-r"])
     for text in ("10001", "100000000")],
)
def test_count_above_the_cap_exits_two(argv, capsys):
    # The answer is built in memory before it prints: without the cap,
    # enum Q -n 100000000 ran out of memory.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"expected at most {MAX_COUNT}" in _out(capsys)[1]


def test_count_at_the_cap_is_answered(capsys):
    assert run(["enum", "Q", "-n", str(MAX_COUNT)]) == 0
    assert len(_out(capsys)[0].splitlines()) == MAX_COUNT


def test_norm_of_long_sum(capsys):
    assert run(["norm", "1500*(N+1+N~)"]) == 0
    out = _out(capsys)[0]
    assert out == "N + " + "1 + Z + " * 1499 + "1 + N~\n"
    # Reading the long output back walks its sum spine without recursion.
    assert run(["norm", out]) == 0
    assert _out(capsys)[0] == out


LONG_SUM = " + ".join(["1"] * 3000)


def test_norm_of_flat_sum_of_3000_terms(capsys):
    assert run(["norm", LONG_SUM]) == 0
    assert _out(capsys)[0] == "3000\n"


@pytest.mark.parametrize("argv, expected", [
    (["absorbs", "2", LONG_SUM], "false"),
    (["spectrum", LONG_SUM], "TrivialOnly"),
    (["square", LONG_SUM], "false"),
    (["parse", LONG_SUM], "Sum(" * 2999 + "Single" + ", Single)" * 2999),
    (["norm", f"({LONG_SUM})*N"], " + ".join(["N"] * 3000)),
    (["norm", f"({LONG_SUM})~"], "3000"),
    (["norm", f"(({LONG_SUM})~ + N)~"], "N~"),
    (["norm", f"({LONG_SUM})~*N"], " + ".join(["N"] * 3000)),
    (["norm", "N" + "~" * 500], "N"),
    (["norm", "N" + "~" * 501], "N~"),
    (["norm", "(N + 1)" + "~" * 501], "1 + N~"),
    (["square", f"({LONG_SUM})~"], "false"),
    (["square2", f"({LONG_SUM})~"], "false"),
], ids=["absorbs", "spectrum", "square", "parse", "norm-product", "norm-reversed",
        "norm-reversed-twice", "norm-reversed-product", "norm-tildes-500", "norm-tildes-501",
        "norm-tildes-sum", "square-reversed", "square2-reversed"])
def test_commands_on_flat_sum_of_3000_terms(argv, expected):
    # One process per command, as the CLI runs.  desugar hands the parsed
    # sum back as it is, so no cache lookup compares it with an equal
    # 3000-deep tree built apart (which would recurse once per summand).
    # Reversing a long sum, cancelling a long chain of ~ and profiling a
    # sum, however it nests, are loops too.
    proc = subprocess.run([sys.executable, "-m", "ordercalc.cli", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected + "\n"


NOT_SELF_SIMILAR = "not self-similar (canonical form is not scattered + shuffle + scattered)"
CHAINS = {
    **{f"product-{n}": "*".join(["1"] * n) for n in (300, 3000)},
    **{f"reversed-product-{n}": "(" + "*".join(["1"] * n) + ")~" for n in (300, 3000)},
    "tildes-3000": "N" + "~" * 3000,
    "two-products-3000": "2" + "*1" * 2999 + " + 3" + "*1" * 2999,
}
CHAIN_ROWS = [
    *((["parse", f"product-{n}"], "Product(" * (n - 1) + "Single" + ", Single)" * (n - 1))
      for n in (300, 3000)),
    *(([command, f"product-{n}"], out) for n in (300, 3000) for command, out in
      [("norm", "1"), ("classify", NOT_SELF_SIMILAR), ("absorbs 2", "false"), ("square", "true")]),
    *(([command, f"reversed-product-{n}"], out) for n in (300, 3000) for command, out in
      [("norm", "1"), ("classify", NOT_SELF_SIMILAR)]),
    (["parse", "tildes-3000"], "Reverse(" * 3000 + "Omega" + ")" * 3000),
    (["norm", "tildes-3000"], "N"),
    (["classify", "tildes-3000"], NOT_SELF_SIMILAR),
    (["absorbs 2", "reversed-product-3000"], "false"),
    (["square", "reversed-product-3000"], "true"),
    (["norm", "two-products-3000"], "5"),
    (["classify", "two-products-3000"], NOT_SELF_SIMILAR),
]


@pytest.mark.parametrize("command, chain, expected", [(*row, out) for row, out in CHAIN_ROWS],
                         ids=[" ".join(row) for row, _ in CHAIN_ROWS])
def test_commands_on_long_product_and_reversal_chains(command, chain, expected):
    # Product spines are walked with loops, as sum spines are, and so are
    # chains of ~: no layer recurses once per factor or once per ~.
    proc = subprocess.run([sys.executable, "-m", "ordercalc.cli", *command.split(), CHAINS[chain]],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected + "\n"


ORACLE_CHAINS = {"sum-3000": LONG_SUM, "reversed-sum-3000": f"({LONG_SUM})~",
                 "product-3000": CHAINS["product-3000"],
                 "product-of-2s-3000": "*".join(["2"] * 3000)}
ORACLE_ROWS = [
    *((["enum", chain], "(9, 0)") for chain in ("sum-3000", "reversed-sum-3000")),
    (["enum", "product-3000"], "(" + ", ".join(["0"] * 3000) + ")"),
    # Point 10 is the ninth of weight 1, whose 1 sits in the ninth factor
    # from the end; enumeration costs the points asked for, not the class.
    (["enum -n 10", "product-of-2s-3000"],
     "(" + ", ".join(["0"] * 2991 + ["1"] + ["0"] * 8) + ")"),
    *((["check", chain], "result: ok")
      for chain in ("sum-3000", "reversed-sum-3000", "product-3000")),
    *((["bnf -r 3", chain], f"partial isomorphism with {n} pairs")
      for chain, n in [("sum-3000", 3), ("reversed-sum-3000", 3), ("product-3000", 1)]),
]


@pytest.mark.parametrize("command, chain, expected", [(*row, out) for row, out in ORACLE_ROWS],
                         ids=[" ".join(row) for row, _ in ORACLE_ROWS])
def test_oracle_commands_on_3000_part_chains(command, chain, expected):
    # A sum or product is one node with one flat point code, however many
    # parts it has, so the oracle's walks over codes do not recurse once
    # per part; nor does the mirror of a long sum, which is one node too.
    text = ORACLE_CHAINS[chain]
    operands = [text, text] if command.startswith("bnf") else [text]
    proc = subprocess.run([sys.executable, "-m", "ordercalc.cli", *command.split(), *operands],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == expected


@pytest.mark.parametrize("command, expected", [
    ("bnf -r 3", "partial isomorphism with 3 pairs"), ("absorbs", "false"),
])
def test_commands_on_two_runs_of_3000_tildes(command, expected):
    # The second run, parsed apart, meets the first in the desugar cache;
    # == unwinds both runs with a loop.
    chain = CHAINS["tildes-3000"]
    proc = subprocess.run([sys.executable, "-m", "ordercalc.cli", *command.split(), chain, chain],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == expected


COMMANDS = [["parse"], ["norm"], ["classify"], ["absorbs", "2"], ["spectrum"], ["square"],
            ["square2"], ["selfsim"], ["enum"], ["check"], ["bnf"], ["dot"]]
# Shapes that recurse most per level of nesting among those tried: reversed
# shuffles whose blocks are sums.
AT_LIMIT = {
    "parentheses": "(1 + " * MAX_DEPTH + "N" + ")" * MAX_DEPTH,
    "reversed shuffles": "Q[Z, 1 + " * MAX_DEPTH + "N" + " + 1]~" * MAX_DEPTH,
    "reversed shuffle sums": "Q[N + " * MAX_DEPTH + "N" + " + N~]~" * MAX_DEPTH,
}


@pytest.mark.parametrize("shape", AT_LIMIT)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_every_command_answers_at_the_nesting_limit(command, shape, capsys):
    text = AT_LIMIT[shape]
    argv = [*command, text, text] if command == ["bnf"] else [*command, text]
    assert run(argv) == 0
    assert run([*argv[:-1], "(" + argv[-1] + ")"]) == 2
    assert "nesting deeper than" in _out(capsys)[1]


@pytest.mark.parametrize("small, large, failed_round",
                         [("2", "3", 3), ("0", "1", 1), ("1", "2", 2)])
def test_bnf_of_finite_orders_does_not_depend_on_argument_order(small, large, failed_round,
                                                                 capsys):
    for argv in (["bnf", small, large], ["bnf", large, small]):
        assert run(argv) == 0
        assert _out(capsys)[0].startswith(f"failure at round {failed_round}:")


def test_parse_error_exit_two(capsys):
    assert run(["parse", "2 + + 3"]) == 2
    _, err = _out(capsys)
    assert "ParseError" in err


def test_validation_error_exit_two(capsys):
    assert run(["norm", "Q[0]"]) == 2


def test_stuck_exit_three(capsys):
    assert run(["norm", "N*(Z + Q[Z] + Z)"]) == 3
    _, err = _out(capsys)
    assert "Stuck" in err


def test_unsupported_exit_three(capsys):
    assert run(["classify", "N*N + Q[Z]"]) == 3


def test_norm_keeps_a_z_power_and_its_unrolling_apart(capsys):
    # N + Z*N has a least point and Z*N has none: two blocks, not one.
    assert run(["norm", "Q[Z*N,N+Z*N]"]) == 0
    assert _out(capsys)[0] == "Q[N + Z*N,Z*N]\n"
    # So the junction N + Z*N of the fiber is no block, and the product
    # has no sound rewrite.
    assert run(["norm", "N*(Z*N + Q[N + Z*N])"]) == 3
    assert "Stuck" in _out(capsys)[1]


SINGLE_TERM_COMMANDS = ["parse", "norm", "classify", "spectrum", "square", "square2",
                        "selfsim", "enum", "check", "dot"]
CORPUS = ["0", "1", "2", "N~", "Q+1", "0*Q", "Q[0,1]", "Q[1]~", "N*Q[1,2]", "1+Q+1"]
PAIR_TERMS = ["0", "1", "Q", "Q+1"]


# Numerals: only ASCII digits are read, and a long literal is refused
# before int() meets its digit limit, unless it is all leading zeros.
NUMERALS = [("\u00b2", 2), ("1\u00b2", 2), ("\u0663", 2), ("\uff11", 2),
            ("9" * 5000, 2), ("0" * 5000 + "1", 0)]


@pytest.mark.parametrize(
    "argv",
    [[cmd, t] for cmd in SINGLE_TERM_COMMANDS for t in CORPUS]
    + [[cmd, a, b] for cmd in ("absorbs", "bnf") for a in PAIR_TERMS for b in PAIR_TERMS]
    + [["norm", t] for t, _ in NUMERALS],
)
def test_every_command_ends_in_a_documented_exit_code(argv, capsys):
    assert run(argv) in (0, 2, 3, 4)


# Fuzz gate (a): random strings as terms.  A numeral is one token that
# ends in a space, so no run of digits asks for millions of copies.
_FUZZ_TOKENS = ["0 ", "1 ", "2 ", "7 ", "12 ", "007 ", "N", "Z", "Q", "+", "*", "~", "(", ")",
                "[", "]", ",", " ", "-", "\u0663", "\u00a0", "x"]
_FUZZ_TERM = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14).map("".join)


@pytest.mark.parametrize("command", list(_COMMANDS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(20261020)
@given(terms=st.lists(_FUZZ_TERM, min_size=2, max_size=2))
def test_random_terms_end_in_a_documented_exit_code(command, terms, capsys):
    operands = terms[:len(_COMMANDS[command].operands)]
    try:
        code = run([command, *operands])
    except SystemExit as e:  # argparse takes a leading "-" for an option
        code = e.code
    capsys.readouterr()
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("text, code", NUMERALS, ids=["sup2", "1sup2", "arabic3", "fullwidth1",
                                                      "5000 nines", "5000 zeros then 1"])
def test_numerals_are_ascii_and_bounded(text, code, capsys):
    assert run(["norm", "--json", text]) == code
    doc = json.loads(_out(capsys)[0])
    if code == 0:
        assert doc["result"] == "1"
    else:
        assert doc["error"]["kind"] == "ParseError"
    if text == "9" * 5000:
        assert doc["error"]["span"] == [0, 5000]
        assert doc["error"]["message"] == "number literal exceeds 2147483647"


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--json", "N + Q[Z]"],
        ["norm", "--json", "Q[1, 1+Q]"],
        ["classify", "--json", "N + Q[Z] + N~"],
        ["classify", "--json", "N + Q[Z]"],
        ["absorbs", "--json", "2", "N + Q[Z] + N~"],
        ["spectrum", "--json", "Q[Z] + Z"],
        ["square", "--json", "Z"],
        ["square2", "--json", "1 + Q + 1"],
        ["selfsim", "--json", "1 + Q[Z]"],
        ["enum", "--json", "Q[Z]", "-n", "5"],
        ["check", "--json", "Q", "-n", "40"],
        ["bnf", "--json", "Q", "Q", "-r", "3"],
        ["dot", "--json", "Q"],
        ["parse", "--json", "2 + + 3"],
        ["norm", "--json", "N*(Z + Q[Z] + Z)"],
    ],
)
def test_json_documents_validate(argv, capsys):
    run(argv)
    out, _ = _out(capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert ("result" in doc) != ("error" in doc)


def test_json_classify_payload(capsys):
    assert run(["classify", "--json", "N + Q[Z] + N~"]) == 0
    doc = json.loads(_out(capsys)[0])
    assert doc["result"]["case"] == 5
    assert doc["result"]["L"] == "N"
    assert doc["result"]["blocks"] == ["Z"]
    assert doc["result"]["R"] == "N~"


def test_deterministic_output(capsys):
    for argv in (
        ["classify", "N + Q[Z] + N~"],
        ["check", "--json", "Q[Z]", "-n", "120"],
        ["enum", "Q[N,Z]", "-n", "25"],
        ["bnf", "Q", "Q[1,1+Q]", "-r", "6"],
    ):
        run(argv)
        first = _out(capsys)[0]
        run(argv)
        second = _out(capsys)[0]
        assert first == second


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ordercalc.cli", "norm", "Q[N, Z + Q[N, Z]]"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Q[N,Z]\n"


# Outputs pinned as literals: every byte of text and JSON, and the exit
# code, for verdicts and errors no other test fixes.
PINNED = [
    (["classify", "N"], 0,
     "not self-similar (canonical form is not scattered + shuffle + scattered)"),
    (["classify", "--json", "N"], 0,
     '{"command": "classify", "input": "N", "result": {"reason": "canonical form is not '
     'scattered + shuffle + scattered", "verdict": "not self-similar"}}'),
    (["classify", "N+Q[Z]"], 0, "self-similar, not left-absorbing (left part is not a block)"),
    (["classify", "--json", "N+Q[Z]"], 0,
     '{"command": "classify", "input": "N+Q[Z]", "result": {"L": "N", "R": "0", "blocks": '
     '["Z"], "reason": "left part is not a block", "verdict": "self-similar, not '
     'left-absorbing"}}'),
    (["selfsim", "Z"], 0, "false (canonical form is not scattered + shuffle + scattered)"),
    (["square2", "--json", "Z"], 0,
     '{"command": "square2", "input": "Z", "result": "not applicable"}'),
    (["check", "--json", "Q", "-n", "40"], 0,
     '{"command": "check", "input": "Q", "result": {"budget": 40, "failed": false, '
     '"outcomes": [{"predicate": "left_endpoint", "status": "consistent"}, {"predicate": '
     '"right_endpoint", "status": "consistent"}, {"predicate": "successor_pairs", "status": '
     '"consistent"}, {"predicate": "density_between", "status": "consistent"}, '
     '{"predicate": "successor_complete", "status": "witness_found", "witness": "(\'\', '
     '0)"}, {"predicate": "predecessor_complete", "status": "witness_found", "witness": '
     '"(\'\', 0)"}, {"predicate": "size", "status": "consistent"}], "term": "Q"}}'),
    (["parse", "--json", "2++3"], 2,
     '{"command": "parse", "error": {"kind": "ParseError", "message": "expected an order '
     'expression, found \'+\'", "span": [2, 3]}, "input": "2++3"}'),
    (["norm", "--json", "Q[0]"], 2,
     '{"command": "norm", "error": {"kind": "EmptyShuffleBlock", "message": "shuffle blocks '
     'must be non-empty orders"}, "input": "Q[0]"}'),
    (["norm", "--json", "N*(Z+Q[Z]+Z)"], 3,
     '{"command": "norm", "error": {"kind": "Stuck", "message": "no rewrite applies to '
     'Product(parts=(Omega(), Sum(parts=(Zeta(), Shuffle(blocks=(Zeta(),)), Zeta()))))"}, '
     '"input": "N*(Z+Q[Z]+Z)"}'),
    (["classify", "--json", "N*N+Q[Z]"], 3,
     '{"command": "classify", "error": {"kind": "Unsupported", "message": "canonical form '
     'has scattered parts outside the tame fragment"}, "input": "N*N+Q[Z]"}'),
    # Q[1+Q,Q] is Q: these answer as Q, Q + 1 and 1 + Q do.
    (["classify", "Q+Q[1+Q,Q]"], 0, "case 1\nL: 0\nblocks: [1]\nR: 0"),
    (["absorbs", "N", "Q+Q[1+Q,Q]"], 0, "true"),
    (["absorbs", "2", "Q[1+Q,Q]+1"], 0, "true"),
    (["spectrum", "1+Q[1+Q,Q]"], 0, "HasLeft"),
    # Shuffles that do not flatten: some interval of each misses a colour.
    (["norm", "Q[1+Q,2]"], 0, "Q[1 + Q,2]"),
    (["norm", "Q[Q[1,2]+Q]"], 0, "Q[Q[1,2] + Q]"),
    (["norm", "Q[Q[1,2]+3,1,2]"], 0, "Q[1,2,Q[1,2] + 3]"),
    (["norm", "Q[1+Q[Z]]"], 0, "Q[1 + Q[Z]]"),
    # Block order: Fin, then N, N~, Z, then powers by kind N, N~, Z.
    (["norm", "Q[N~*(1+Z), Z*(1+Z), N*(1+Z)]"], 0, "Q[N*(1 + Z),N~*(1 + Z),Z*(1 + Z)]"),
    (["norm", "Q[Z, N~, N, 2]"], 0, "Q[2,N,N~,Z]"),
]


@pytest.mark.parametrize("argv, code, expected", PINNED)
def test_outputs_are_pinned(argv, code, expected, capsys):
    assert run(argv) == code
    assert _out(capsys) == (expected + "\n", "")


ONE_STRING = [["parse"], ["norm"], ["absorbs", "2"], ["absorbs", "N"], ["spectrum"],
              ["square"], ["square2"], ["dot"]]


@pytest.mark.parametrize("term", ["1", "Q", "N + Q[Z] + N~", "1 + Q[1, 2] + 1", "Q[N, Z] + 1"])
@pytest.mark.parametrize("command", ONE_STRING, ids=" ".join)
def test_one_string_commands_print_their_json_result(command, term, capsys):
    code = run([*command, term])
    text = _out(capsys)[0]
    assert run([*command, term, "--json"]) == code == 0
    assert text == json.loads(_out(capsys)[0])["result"] + "\n"


def test_readme_command_block_lists_the_command_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^ordercalc (\w+)", block, re.M) == list(_COMMANDS)
