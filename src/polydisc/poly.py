"""Exact integer polynomials in one variable: parsing, printing, evaluation.

A polynomial is stored as an ascending coefficient tuple with no trailing
zeros, so structural equality is value equality. All arithmetic is on
Python ints and therefore exact at any size.
"""

from __future__ import annotations

import math
import re
from itertools import zip_longest
from typing import Iterable, Optional


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Dense integer polynomial; coeffs[i] multiplies x**i. Immutable; equal and hashed by coeffs."""

    __slots__ = ("coeffs",)  # a plain class: a dataclass would import `dataclasses` on every CLI start

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, not the refused __setattr__
        return Polynomial, (self.coeffs,)

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "Polynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def values(self, n: int) -> list[int]:
        """The exact values [f(1), ..., f(n)]."""
        return [self.evaluate(i) for i in range(1, n + 1)]

    def evaluate_mod(self, x: int, m: int) -> int:
        """Value mod m, reduced per Horner step; result in [0, m)."""
        if m < 1:
            raise ValueError("modulus must be >= 1")
        x %= m
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def scale(self, c: int) -> "Polynomial":
        """Multiply every coefficient by a nonzero constant."""
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return Polynomial(tuple(c * a for a in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # square only while bits remain: the last square would be thrown away
                base = base * base
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            try:
                mag = str(abs(c))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ValueError(f"coefficient of x^{i} exceeds the interpreter's digit limit for str()") from None
            if i == 0:
                body = mag
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == "1" else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


# --- recursive-descent parser ---------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := '-'* power
# power  := primary ('^' INT)?
# primary:= INT | 'x' | '(' expr ')'
#
# Exponents must be literal nonnegative integers; implicit multiplication
# is rejected so the grammar stays unambiguous. Expansion is dense, so the
# exponent literal, and the degree and size of every product and power, are
# capped and checked before expanding: text like x^99999999 is rejected at
# once instead of building a hundred-million-term polynomial, and text like
# ((2^1000)^1000)^1000 instead of building a 10^9-bit coefficient. The size
# is degree + 1 coefficients times a bound on their bits from the l1 norm
# (`_log2_norm`), so at most MAX_BITS (512 KiB); the largest admitted power
# of x + c is (x+17)^1000. Parentheses nest at most MAX_NESTING deep, so no
# input exhausts Python's recursion limit.
#
# The caps above bound each expansion, not their number, so every admitted
# product and power is also charged its work before it expands, against one
# cap for the whole input, MAX_WORK (`_Parser.admit`). No expansion the size
# caps admit passes MAX_WORK alone, so only a sum of them is refused:
# (x+17)^1000*2 parses, and (x+17)^1000+(x+17)^1000 is refused at its second
# power, before expanding it.

MAX_EXPONENT = 1000
MAX_DEGREE = 1000
MAX_NESTING = 100
MAX_BITS = 2 ** 22
MAX_WORK = 2 ** 30


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """One re.finditer pass: each decimal run, symbol or x is a token, any other non-space an error.

    The pattern goes to re.finditer as a string, so re's cache compiles it at
    the first parse, not at import, and a run that parses no text skips it."""
    tokens = []
    # \d matches what str.isdecimal accepts and \S what str.isspace refuses,
    # so whitespace matches no group and finditer's search steps over it
    for match in re.finditer(r"(\d+)|([-+*^()x])|(\S)", text):
        digits, symbol, other = match.groups()
        pos = match.start()
        if other is None:
            tokens.append(("int", digits, pos) if digits else (symbol, symbol, pos))
        elif other.isalpha():
            raise PolynomialSyntaxError(f"unknown variable {other!r}, only x is allowed", pos)
        else:
            raise PolynomialSyntaxError(f"unexpected character {other!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # parentheses open at the current token
        self.work = 0  # charged by the expansions admitted so far

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            pairs = sum(map(bool, acc.coeffs)) * len(rhs.coeffs)  # as Polynomial.__mul__ skips acc's zeros
            self.admit((acc.degree or 0) + (rhs.degree or 0), _log2_norm(acc) + _log2_norm(rhs), pairs, pos)
            acc = acc * rhs
        return acc

    def factor(self) -> Polynomial:
        """A run of unary minus, such as ---x, is counted in a loop, not read by
        recursion, so no length of it raises RecursionError."""
        start = self.i
        while self.peek()[0] == "-":
            self.i += 1
        return -self.power() if (self.i - start) % 2 else self.power()

    def power(self) -> Polynomial:
        base = self.primary()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise PolynomialSyntaxError("exponent must be a nonnegative integer literal", pos)
            # compare lengths first: int() refuses literals of 4300+ digits
            if len(value.lstrip("0")) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
                raise PolynomialSyntaxError(f"exponent exceeds the cap {MAX_EXPONENT}", pos)
            exponent = int(value)
            # square-and-multiply's last product, about P^ceil(e/2) * P^floor(e/2),
            # dominates its work; a monomial's powers stay monomials
            d, half = base.degree or 0, exponent // 2
            left = d * (exponent - half) + 1 if sum(map(bool, base.coeffs)) > 1 else 1
            self.admit(d * exponent, exponent * _log2_norm(base), left * (d * half + 1), pos)
            base = base ** exponent
        return base

    def primary(self) -> Polynomial:
        kind, value, pos = self.take()
        if kind == "int":
            try:
                return Polynomial.from_coeffs([int(value)])
            except ValueError:  # a literal longer than sys.get_int_max_str_digits()
                raise _too_long(value, pos) from None
        if kind == "x":
            return Polynomial((0, 1))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialSyntaxError(f"parentheses nest deeper than the cap {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise PolynomialSyntaxError("expected ')'", pos2)
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def admit(self, degree: int, log2_norm: float, pairs: int, pos: int) -> None:
        """Refuse a product or power of degree above MAX_DEGREE, or one whose
        degree + 1 coefficients, each below 2^log2_norm, could take more than
        MAX_BITS bits in all. Otherwise charge its work, `pairs` coefficient
        products of up to that many bits, and refuse the input once its
        expansions' work passes MAX_WORK. A product of b bits is charged b,
        times (b / 8192)^0.585 from 8192 bits on, where CPython's Karatsuba
        multiplication makes its cost grow as b^1.585, plus 64 for its fixed
        cost."""
        if degree > MAX_DEGREE:
            raise PolynomialSyntaxError(f"degree {degree} exceeds the cap {MAX_DEGREE}", pos)
        bits = int(log2_norm) + 1
        size = (degree + 1) * bits
        if size > MAX_BITS:
            raise PolynomialSyntaxError(f"expansion of up to {size} bits exceeds the cap {MAX_BITS}", pos)
        self.work += int(pairs * (bits * max(1, bits / 8192) ** 0.585 + 64))
        if self.work > MAX_WORK:
            raise PolynomialSyntaxError(
                f"expansions take about {self.work} bit operations, over the cap {MAX_WORK}", pos
            )


def _too_long(digits: str, pos: int) -> PolynomialSyntaxError:
    return PolynomialSyntaxError(
        f"integer literal of {len(digits)} digits exceeds the interpreter's limit for int()", pos
    )


def _log2_norm(poly: Polynomial) -> float:
    """log2 of the l1 norm, the sum of the coefficients' magnitudes (0 for the
    zero polynomial). No coefficient of P*Q exceeds |P|_1 |Q|_1, and none of
    P^e exceeds |P|_1^e."""
    return math.log2(max(1, sum(map(abs, poly.coeffs))))


def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression over integers, x, + - * ^ and parentheses."""
    parser = _Parser(_tokenize(text))
    poly = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise PolynomialSyntaxError(f"unexpected trailing token {value!r}", pos)
    return poly


def parse_poly_input(text: str) -> Polynomial:
    """Parse either expression text or the `coeffs:a,b,c` ascending list form."""
    stripped = text.strip()
    if stripped.startswith("coeffs:"):
        body = stripped[len("coeffs:"):]
        coeffs, pos = [], len("coeffs:")  # pos: where the current entry starts
        for part in body.split(",") if body.strip() else []:
            entry = part.strip()
            digits = entry[1:] if entry[:1] in ("+", "-") else entry
            if not digits.isdecimal():  # int() would also take underscores
                raise PolynomialSyntaxError(
                    f"bad coefficient list: invalid literal for int() with base 10: {entry!r}", len("coeffs:")
                )
            try:
                coeffs.append(int(entry))
            except ValueError:  # int() refuses signed decimal digits only for their length
                raise _too_long(digits, pos + part.index(digits)) from None
            pos += len(part) + 1
        return Polynomial.from_coeffs(coeffs)
    return parse_polynomial(stripped)
