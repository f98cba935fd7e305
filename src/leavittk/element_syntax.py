"""Text syntax for algebra elements.

Grammar (whitespace separates tokens, juxtaposition multiplies)::

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (['.'] factor)*
    factor  := primary '*'*
    primary := scalar | arrow-id | 'e' '(' vertex-id ')' | '(' expr ')'

Scalars are integers or fractions like ``2/3``.  Example input:
``2/3 a b* - e(v1)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Element, LeavittAlgebra


class ElementSyntaxError(ValueError):
    """Bad element expression; `position` is a 0-based character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


_SYMBOLS = {"+", "-", ".", "*", "(", ")"}
# A number with an optional '/denominator', a name, or one other
# character; whitespace is skipped.  For str patterns \d, \w and \s are
# exactly str.isdecimal(), str.isalnum() or '_', and str.isspace().
_TOKEN = re.compile(r"(\d+)(/\d*)?|(\w+)|\S")
# Four parser frames per parenthesis: this keeps clear of the
# interpreter's recursion limit.
_MAX_NESTING = 100


def _integer(text: str, i: int, j: int) -> int:
    """int(text[i:j]), or a syntax error when it has more digits than
    int() accepts (sys.get_int_max_str_digits())."""
    try:
        return int(text[i:j])
    except ValueError:
        raise ElementSyntaxError(i, f"a number of {j - i} digits is too long")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        i, word = match.start(), match.group()
        digits, fraction, name = match.groups()
        if digits is None:
            if name is None and word not in _SYMBOLS:
                raise ElementSyntaxError(i, f"unexpected character {word!r}")
            tokens.append(("id" if name else word, word, i, word))
            continue
        j = match.end(1)
        denominator = 1
        if fraction is not None:
            if fraction == "/":
                raise ElementSyntaxError(j, "expected digits after '/'")
            denominator = _integer(text, j + 1, match.end())
            if denominator == 0:
                raise ElementSyntaxError(j, "division by zero")
        tokens.append(("num", Fraction(_integer(text, i, j), denominator), i,
                       word))
    tokens.append(("end", None, len(text), ""))
    return tokens


class _Parser:
    def __init__(self, alg: LeavittAlgebra, text: str):
        self.alg = alg
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ElementSyntaxError(tok[2], f"expected {kind!r}")
        return tok

    def parse(self) -> Element:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ElementSyntaxError(tok[2], "trailing input")
        return self._as_element(value)

    def expr(self):
        if self.peek()[0] == "-":
            self.advance()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            if op == "-":
                rhs = -rhs
            acc = self._add(acc, rhs)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == ".":
                self.advance()
            elif kind not in ("num", "id", "("):
                return acc
            acc = acc * self.factor()

    def factor(self):
        value = self.primary()
        while self.peek()[0] == "*":
            tok = self.advance()
            if isinstance(value, Fraction):
                raise ElementSyntaxError(tok[2], "cannot star a scalar")
            value = value.star()
        return value

    def primary(self):
        tok = self.advance()
        kind, value, pos = tok[0], tok[1], tok[2]
        if kind == "num":
            return value
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ElementSyntaxError(
                    pos, f"more than {_MAX_NESTING} nested parentheses")
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "id":
            if value == "e" and self.peek()[0] == "(":
                self.advance()
                vtok = self.advance()
                if vtok[0] not in ("id", "num"):
                    raise ElementSyntaxError(vtok[2], "expected a vertex id")
                self.expect(")")
                name = vtok[3]
                if name not in self.alg.vertices:
                    raise ElementSyntaxError(vtok[2], f"unknown vertex {name!r}")
                return self.alg.vertex(name)
            if value not in self.alg._src:
                raise ElementSyntaxError(pos, f"unknown arrow {value!r}")
            return self.alg.arrow(value)
        raise ElementSyntaxError(pos, "expected a scalar, arrow, e(vertex) or '('")

    # Scalars stay plain Fractions until they meet an element, so a bare
    # number denotes that multiple of the identity.

    def _as_element(self, value) -> Element:
        if isinstance(value, Fraction):
            return self.alg.one() * value
        return value

    def _add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        return self._as_element(a) + self._as_element(b)


def parse_element(alg: LeavittAlgebra, text: str) -> Element:
    """Parse and normalize an element expression.

    >>> from .quiver import parse_quiver
    >>> from .algebra import render_element
    >>> alg = LeavittAlgebra(parse_quiver("vertices w\\narrow x w w\\narrow y w w"))
    >>> render_element(parse_element(alg, "x* . x"))
    '1'
    """
    return _Parser(alg, text).parse()
