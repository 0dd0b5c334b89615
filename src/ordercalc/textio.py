"""Parser and pretty-printer for the expression language.

Grammar::

    term := sum
    sum  := prod ("+" prod)*
    prod := post ("*" post)*
    post := atom ("~")*
    atom := "0" | "1" | NAT | "N" | "Z" | "Q"
          | "Q" "[" term ("," term)* "]" | "(" term ")"

"*" is left-associative and binds tighter than "+"; "~" binds tightest.
"A * X" denotes A-many copies of X.  "Q" alone is sugar for the trivial
shuffle Q[1].  Whitespace is insignificant.
"""

from __future__ import annotations

import re

from .terms import (
    Empty,
    Finite,
    Omega,
    OmegaStar,
    OrderTerm,
    Product,
    Reverse,
    Shuffle,
    Single,
    Sum,
    ValidationError,
    Zeta,
    join,
    node,
)

MAX_NAT = 2**31 - 1
_NAT_WIDTH = len(str(MAX_NAT))
# Deepest nesting of parentheses and shuffle brackets that parse accepts.
# A chain of one operator is one node, so a parsed term is only this deep
# plus its runs of ~, which are walked with loops.  Every layer recurses
# once per level; at this depth every command fits in the recursion limit.
MAX_DEPTH = 50


@node
class SourceSpan:
    __slots__ = ("start", "end", "_hash")

    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


# A token: an ASCII numeral or one other character, after any spaces.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\S))")
_GRAMMAR = frozenset("NZQ+*~()[],")
_NAMES = {"N": Omega(), "Z": Zeta(), "Q": Shuffle((Single(),))}
# The token expected after a complete sum, by the bracket it is in.
_CLOSE = {None: "EOF", ")": "RPAREN", "]": "RBRACK"}


def _nat(m) -> int:
    # The value of the numeral m; its length is checked first, because
    # int() refuses very long literals.
    num = m.group(1)
    digits = num.lstrip("0") or "0" if len(num) > _NAT_WIDTH else num
    if len(digits) > _NAT_WIDTH or int(digits) > MAX_NAT:
        raise ParseError(f"number literal exceeds {MAX_NAT}", SourceSpan(*m.span(1)))
    return int(digits)


def _bad_char(m):
    return ParseError(f"unexpected character {m.group(2)!r}", SourceSpan(*m.span(2)))


def _syntax_error(message: str, span: tuple, rest) -> ParseError:
    # A bad character or literal among the tokens not yet read is
    # reported first, as a tokenizer that ran before the parser would.
    for m in rest:
        if m.group(1) is not None:
            _nat(m)
        elif m.group(2) not in _GRAMMAR:
            return _bad_char(m)
    return ParseError(message, SourceSpan(*span))


def parse(text: str) -> OrderTerm:
    """Parse an expression; the returned tree is validated.

    One pass over the tokens, with the open brackets on a stack.  Errors
    are reported as separate passes would find them: the first bad
    character or literal, else the first syntax error, else the first
    shuffle, in pre-order, with an empty block.
    """
    toks = _TOKEN.finditer(text)
    stack = []  # per open bracket: the closer, blocks, summands and factors outside it
    close, blocks, summands, factors = None, None, [], []
    cur = None  # the operand just read; None where one is expected
    q = None  # a Q just read, whose blocks a "[" opens
    empty = None  # the first shuffle, or its open blocks, with a block 0
    for m in toks:
        ch = m.group(2)
        if ch is None:
            n = _nat(m)
            if cur is not None:
                raise _syntax_error(f"expected {_CLOSE[close]}, found {m.group(1)!r}", m.span(1), toks)
            cur = Empty() if n == 0 else Single() if n == 1 else Finite(n)
        elif ch not in _GRAMMAR:
            raise _bad_char(m)
        elif cur is None:
            if ch in _NAMES:
                cur = _NAMES[ch]
                if ch == "Q":
                    q = m
                    continue
            elif ch == "(":
                if len(stack) == MAX_DEPTH:
                    raise _syntax_error(f"nesting deeper than {MAX_DEPTH} levels", m.span(2), toks)
                stack.append((close, blocks, summands, factors))
                close, blocks, summands, factors = ")", None, [], []
            else:
                raise _syntax_error(f"expected an order expression, found {ch!r}", m.span(2), toks)
        elif ch == "~":
            cur = Reverse(cur)
        elif ch == "*":
            factors.append(cur)
            cur = None
        elif ch == "+":
            factors.append(cur)
            summands.append(join(Product, factors))
            factors, cur = [], None
        elif ch == "[" and q is not None:
            if len(stack) == MAX_DEPTH:
                raise _syntax_error(f"nesting deeper than {MAX_DEPTH} levels", q.span(2), toks)
            stack.append((close, blocks, summands, factors))
            close, blocks, summands, factors, cur = "]", [], [], [], None
        elif ch == close or (ch == "," and close == "]"):
            factors.append(cur)
            summands.append(join(Product, factors))
            cur = join(Sum, summands)
            if close == "]":
                if empty is None and cur == Empty():
                    empty = blocks
                blocks.append(cur)
                if ch == ",":
                    summands, factors, cur = [], [], None
                    continue
                cur = Shuffle(tuple(blocks))
                if empty is blocks:
                    empty = cur
            close, blocks, summands, factors = stack.pop()
        else:
            raise _syntax_error(f"expected {_CLOSE[close]}, found {ch!r}", m.span(2), toks)
        q = None
    end = len(text), len(text)
    if cur is None:
        raise ParseError("expected an order expression, found 'end of input'", SourceSpan(*end))
    if close is not None:
        raise ParseError(f"expected {_CLOSE[close]}, found 'end of input'", SourceSpan(*end))
    factors.append(cur)
    summands.append(join(Product, factors))
    if empty is not None:
        raise ValidationError("EmptyShuffleBlock", empty, "shuffle blocks must be non-empty orders")
    return join(Sum, summands)


_SUM, _PROD, _POST, _ATOM = 0, 1, 2, 3
# Each chain operator: its text, its precedence, and its later parts' one.
_OPS = {Sum: (" + ", _SUM, _PROD), Product: ("*", _PROD, _POST)}


def _pr(t: OrderTerm, need: int) -> str:
    match t:
        case Empty():
            s, prec = "0", _ATOM
        case Single():
            s, prec = "1", _ATOM
        case Finite(n):
            s, prec = str(n), _ATOM
        case Omega():
            s, prec = "N", _ATOM
        case OmegaStar():
            s, prec = "N~", _POST
        case Zeta():
            s, prec = "Z", _ATOM
        case Shuffle(blocks):
            if blocks == (Single(),):
                s = "Q"
            else:
                s = "Q[" + ",".join(_pr(b, _SUM) for b in blocks) + "]"
            prec = _ATOM
        case Reverse():
            n = 0
            while isinstance(t, Reverse):
                t, n = t.body, n + 1
            s, prec = _pr(t, _POST) + "~" * n, _POST
        case Sum(parts) | Product(parts):
            text, prec, later = _OPS[type(t)]
            first, *rest = parts
            s = text.join([_pr(first, prec), *(_pr(r, later) for r in rest)])
        case _:
            raise TypeError(f"not an OrderTerm: {t!r}")
    return f"({s})" if prec < need else s


def print_term(t: OrderTerm) -> str:
    """Render a term with minimal parentheses; inverse of parse.

    The surface syntax cannot tell the N* atom from Reverse(N) (both
    print as "N~"), so the round trip identifies those two spellings;
    they desugar to the same term.
    """
    return _pr(t, _SUM)


def ast_repr(t: OrderTerm) -> str:
    """Structural rendering of the tree, one constructor per node."""
    match t:
        case Empty() | Single() | Omega() | OmegaStar() | Zeta():
            return type(t).__name__
        case Finite(n):
            return f"Finite({n})"
        case Sum(parts) | Product(parts):
            # a + b + c prints as Sum(Sum(a, b), c): the chain read as
            # left-nested binary nodes.
            first, *rest = parts
            tail = "".join(f", {ast_repr(r)})" for r in rest)
            return f"{type(t).__name__}(" * len(rest) + ast_repr(first) + tail
        case Shuffle(blocks):
            return "Shuffle([" + ", ".join(ast_repr(b) for b in blocks) + "])"
        case Reverse():
            n = 0
            while isinstance(t, Reverse):
                t, n = t.body, n + 1
            return "Reverse(" * n + ast_repr(t) + ")" * n
    raise TypeError(f"not an OrderTerm: {t!r}")
