"""Parser for the element grammar used by the CLI and the fixtures.

The grammar (whitespace-insensitive) is the one `gca.format_terms` emits:

    element     = [ "-" ] term { ( "+" | "-" ) term } ;
    term        = coefficient [ "*" monomial ] | monomial ;
    coefficient = integer [ "/" integer ] ;
    monomial    = factor { "*" factor } ;
    factor      = identifier [ "^" integer ] ;

so parsing and printing round-trip exactly.

An expression is parsed in one pass: each term's factors are multiplied as
monomials (`gca.monomial_product`), the terms are summed into one
``{Monomial: Fraction}`` dict in order of first appearance with zero sums
dropped, and a single `Element` is built at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import ParseError
from .gca import Element, Generator, Monomial, monomial_product

_ONE = Fraction(1)

_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^]))")

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# an optionally signed run of ASCII digits, as numbers in job text and flags are
INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(digits: str, line: int | None = None, column: int | None = None) -> int:
    """The value of a run of ASCII digits.

    Python refuses to convert a run longer than its limit for integer string
    conversion (4300 digits by default); that is a `ParseError` here.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits)} digits is too long", line, column) from None


def _tokenize(text: str, line: int | None = None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stray = text[pos:].strip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r}", line, pos + 1)
        number, ident, op = m.groups()
        kind = "num" if number else ("ident" if ident else "op")
        tokens.append((kind, m.group(1) or m.group(2) or m.group(3), m.start(1) if number else m.start(2) if ident else m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, generators: Mapping[str, Generator], line=None):
        self.tokens = tokens
        self.i = 0
        self.generators = generators
        self.line = line

    def error(self, message, column=None):
        if column is None:
            column = self.tokens[self.i][2] + 1 if self.i < len(self.tokens) else None
        raise ParseError(message, self.line, column)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self, kind=None, value=None):
        k, v, col = self.peek()
        if k is None:
            self.error("unexpected end of expression")
        if kind is not None and k != kind:
            self.error(f"expected {kind}, found {v!r}")
        if value is not None and v != value:
            self.error(f"expected {value!r}, found {v!r}")
        self.i += 1
        return v, col

    def parse(self) -> Element:
        """The whole expression, its terms summed into one dict as they are read."""
        terms: dict[Monomial, Fraction] = {}
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        while True:
            coeff, mon_sign, mon = self.term()
            if mon is not None and coeff:
                c = coeff if sign * mon_sign > 0 else -coeff
                old = terms.get(mon)
                if old is not None:
                    c += old
                if c:
                    terms[mon] = c
                else:
                    del terms[mon]
            if self.peek()[0] is None:
                return Element(terms)
            op, _ = self.take("op")
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                self.error(f"expected '+' or '-', found {op!r}")

    def term(self) -> tuple[Fraction, int, Monomial | None]:
        """A term as (coefficient, sign, monomial); the monomial is None when it is zero."""
        kind, _, _ = self.peek()
        if kind == "num":
            coeff = self.rational()
            if self.peek()[1] != "*":
                return coeff, 1, Monomial.unit()
            self.take()
        elif kind == "ident":
            coeff = _ONE
        else:
            self.error("expected a coefficient or a generator name")
        return (coeff, *self.monomial())

    def rational(self) -> Fraction:
        digits, col = self.take("num")
        num = parse_integer(digits, self.line, col + 1)
        if self.peek()[1] == "/":
            self.take()
            digits, col = self.take("num")
            den = parse_integer(digits, self.line, col + 1)
            if den == 0:
                self.error("zero denominator", col + 1)
            return Fraction(num, den)
        return Fraction(num)

    def monomial(self) -> tuple[int, Monomial | None]:
        """The product of the factors as (sign, monomial); the monomial is None when it is zero."""
        sign, out = 1, self.factor()
        while self.peek()[1] == "*":
            self.take()
            right = self.factor()
            if out is not None and right is not None:
                s, out = monomial_product(out, right)
                sign *= s
            else:
                out = None
        return sign, out

    def factor(self) -> Monomial | None:
        name, col = self.take("ident")
        gen = self.generators.get(name)
        if gen is None:
            self.error(f"unknown generator {name!r}", col + 1)
        exponent = 1
        if self.peek()[1] == "^":
            self.take()
            e, ecol = self.take("num")
            exponent = parse_integer(e, self.line, ecol + 1)
            if exponent < 1:
                self.error("exponents must be >= 1", ecol + 1)
        if gen.is_odd and exponent > 1:
            return None
        return Monomial.of(gen, exponent)


def parse_element(text: str, generators: Mapping[str, Generator], line: int | None = None) -> Element:
    """Parse an element expression against a name -> generator table."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _Parser(tokens, generators, line).parse()


def parse_rational(text: str, line: int | None = None) -> Fraction:
    """Parse a rational literal with optional sign, e.g. ``-3/2``."""
    s = text.strip()
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    elif s.startswith("+"):
        s = s[1:]
    m = re.fullmatch(r"([0-9]+)(?:\s*/\s*([0-9]+))?", s.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}", line)
    num = parse_integer(m.group(1), line)
    den = parse_integer(m.group(2), line) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", line)
    return Fraction(sign * num, den)
