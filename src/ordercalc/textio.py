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
    Zeta,
    node,
    operands,
    validate,
)

MAX_NAT = 2**31 - 1
# Deepest nesting of parentheses and shuffle brackets that parse
# accepts.  The parser and several layers after it recurse once per
# level; at this depth every command still fits in the recursion limit.
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


_PUNCT = {"+": "PLUS", "*": "STAR", "~": "TILDE", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACK", "]": "RBRACK", ",": "COMMA"}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append((_PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            value = int(text[i:j])
            if value > MAX_NAT:
                raise ParseError(f"number literal exceeds {MAX_NAT}", SourceSpan(i, j))
            toks.append(("NAT", text[i:j], i, j))
            i = j
            continue
        if c in "NZQ":
            toks.append(("NAME", c, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", SourceSpan(i, i + 1))
    toks.append(("EOF", "", n, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind: str):
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}",
                             SourceSpan(tok[2], tok[3]))
        self.pos += 1
        return tok

    def sum(self) -> OrderTerm:
        t = self.prod()
        while self.peek()[0] == "PLUS":
            self.take("PLUS")
            t = Sum(t, self.prod())
        return t

    def prod(self) -> OrderTerm:
        t = self.post()
        while self.peek()[0] == "STAR":
            self.take("STAR")
            t = Product(t, self.post())
        return t

    def post(self) -> OrderTerm:
        t = self.atom()
        while self.peek()[0] == "TILDE":
            self.take("TILDE")
            t = Reverse(t)
        return t

    def nested(self, start: int, end: int) -> OrderTerm:
        # A sum one bracket level deeper than the current one.
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", SourceSpan(start, end))
        self.depth += 1
        t = self.sum()
        self.depth -= 1
        return t

    def atom(self) -> OrderTerm:
        kind, value, start, end = self.peek()
        if kind == "NAT":
            self.pos += 1
            n = int(value)
            if n == 0:
                return Empty()
            if n == 1:
                return Single()
            return Finite(n)
        if kind == "NAME":
            self.pos += 1
            if value == "N":
                return Omega()
            if value == "Z":
                return Zeta()
            if self.peek()[0] != "LBRACK":
                return Shuffle((Single(),))
            self.take("LBRACK")
            blocks = [self.nested(start, end)]
            while self.peek()[0] == "COMMA":
                self.take("COMMA")
                blocks.append(self.nested(start, end))
            self.take("RBRACK")
            return Shuffle(tuple(blocks))
        if kind == "LPAREN":
            self.take("LPAREN")
            t = self.nested(start, end)
            self.take("RPAREN")
            return t
        raise ParseError(f"expected an order expression, found {value or 'end of input'!r}",
                         SourceSpan(start, end))


def parse(text: str) -> OrderTerm:
    """Parse an expression; the returned tree is validated."""
    p = _Parser(text)
    t = p.sum()
    p.take("EOF")
    validate(t)
    return t


_SUM, _PROD, _POST, _ATOM = 0, 1, 2, 3
# Each spine operator: its text, its precedence, and its later operands' one.
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
        case Sum() | Product():
            text, prec, later = _OPS[type(t)]
            first, *rest = operands(t)
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
        case Empty():
            return "Empty"
        case Single():
            return "Single"
        case Finite(n):
            return f"Finite({n})"
        case Omega():
            return "Omega"
        case OmegaStar():
            return "OmegaStar"
        case Zeta():
            return "Zeta"
        case Sum() | Product():
            # Sum(Sum(a, b), c) for a + b + c, built from the spine's parts
            # without recursing once per operand.
            first, *rest = operands(t)
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
