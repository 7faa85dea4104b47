import copy
import math
import pickle
import sys

import pytest
from hypothesis import example, given, strategies as st

from polydisc.poly import (
    MAX_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_WORK,
    Polynomial,
    PolynomialSyntaxError,
    _Parser,
    _tokenize,
    parse_poly_input,
    parse_polynomial,
)


def P(*coeffs):
    return Polynomial.from_coeffs(coeffs)


def reference_add(f, g):
    """f + g by an index loop over the shorter coefficient tuple."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return Polynomial.from_coeffs(out)


COEFFS = st.lists(st.integers(-10**30, 10**30), max_size=8)


@st.composite
def addends(draw):
    """Two coefficient lists. In about half the draws b's top k terms are minus
    a's, so a + b cancels from the top, down to the zero polynomial at k = len(a)."""
    a, b = draw(COEFFS), draw(COEFFS)
    if draw(st.booleans()):
        low = len(a) - draw(st.integers(0, len(a)))
        b = (b + [0] * low)[:low] + [-c for c in a[low:]]
    return a, b


@given(addends())
@example(([1, 2, 3], [-1, -2, -3]))
@example(([5, 0, -7], [0, 4, 7]))
def test_add_and_sub_match_the_reference(pair):
    a, b = pair
    expected = reference_add(P(*a), P(*b))
    assert P(*a) + P(*b) == expected
    assert P(*a) - P(*(-c for c in b)) == expected


class TestParse:
    def test_family_quadratic(self):
        assert parse_polynomial("x*(27*x-1)") == P(0, -1, 27)

    def test_zero(self):
        assert parse_polynomial("0") == P()
        assert parse_polynomial("0") == Polynomial(())

    @pytest.mark.parametrize("text", ["0*x", "x*0", "(x-x)*(x+1)", "(x-x)^2"])
    def test_zero_products(self, text):
        f = parse_polynomial(text)
        assert f == P() and f == Polynomial(())
        assert str(f) == "0"

    def test_expansion_identity(self):
        assert parse_polynomial("(x-1)*(x+1) + 1") == P(0, 0, 1)

    def test_precedence_power_over_unary_minus(self):
        assert parse_polynomial("-x^2") == P(0, 0, -1)

    def test_precedence_times_over_plus(self):
        assert parse_polynomial("1 + 2*x") == P(1, 2)

    def test_integer_power(self):
        assert parse_polynomial("2^3") == P(8)

    def test_whitespace_ignored(self):
        assert parse_polynomial("  x ^ 2  -  x ") == P(0, -1, 1)

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("x + ")
        assert exc.value.position == 4

    # str.isdigit() is true for superscripts and circled digits, which int()
    # refuses; only decimal digits make an integer token
    @pytest.mark.parametrize("text,char,position", [("x^²", "²", 2), ("²", "²", 0), ("3²", "²", 1), ("①*x", "①", 0)])
    def test_rejects_non_decimal_digits(self, text, char, position):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text)
        assert exc.value.position == position and f"unexpected character {char!r}" in str(exc.value)

    def test_other_decimal_digits_parse(self):
        assert parse_polynomial("\u0663*x^\u0662") == P(0, 0, 3)  # Arabic-Indic 3 and 2

    def test_integer_literal_beyond_the_int_digit_limit(self, int_digit_limit):
        long, longest = "7" * 5000, "7" * 4300
        int_digit_limit(4300)
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(f"x + {long}")
        assert exc.value.position == 4
        assert "integer literal of 5000 digits exceeds the interpreter's limit for int()" in str(exc.value)
        assert parse_polynomial(f"{longest}*x") == P(0, int(longest))  # at the limit
        int_digit_limit(0)  # no limit: every literal parses
        assert parse_polynomial(f"x + {long}") == P(int(long), 1)

    def test_rejects_other_variables(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("y + 1")

    def test_rejects_negative_exponent(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^-2")

    def test_rejects_parenthesized_exponent(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^(2)")

    def test_rejects_implicit_multiplication(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("2x")

    def test_exponent_cap(self):
        assert parse_polynomial(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
        assert parse_polynomial("x^0002") == P(0, 0, 1)
        for exponent in (str(MAX_EXPONENT + 1), "99999999", "9" * 5000):
            with pytest.raises(PolynomialSyntaxError) as exc:
                parse_polynomial("2^" + exponent)
            assert exc.value.position == 2

    def test_degree_cap(self):
        assert parse_polynomial("(x^2+x+41)^4").degree == 8
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(f"(x^100)^{MAX_DEGREE // 100 + 1}")
        assert exc.value.position == 8
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(f"x^{MAX_DEGREE} * x")
        assert exc.value.position == len(f"x^{MAX_DEGREE} ")

    def test_size_cap(self):
        # |P^e|_1 <= |P|_1^e and |P*Q|_1 <= |P|_1 |Q|_1 bound every coefficient
        # before expanding; each refused text parses in seconds without the cap
        assert MAX_BITS == 2 ** 22
        assert parse_polynomial("((2^1000)^1000)^4") == P(2 ** 4_000_000)  # 4,000,001 bits
        assert parse_polynomial("(10^1000)^5*x") == P(0, 10 ** 5000)
        product = "*".join(["(2^1000)^1000"] * 5)
        for text, position, bits in [
            ("((2^1000)^1000)^5", 16, 5_000_001),
            (product, product.index("*", 50), 5_000_001),
            ("(x+18)^1000", 7, 1001 * 4248),  # log2(19) * 1000 = 4247.9
        ]:
            with pytest.raises(PolynomialSyntaxError) as exc:
                parse_polynomial(text)
            assert exc.value.position == position
            assert str(exc.value) == f"expansion of up to {bits} bits exceeds the cap {MAX_BITS} (at position {position})"

    def test_work_cap(self):
        # the size caps bound each expansion and MAX_WORK their sum, charged
        # before each expands: the second power here is refused unexpanded;
        # without the work cap all five expand, in about 3.3 s
        assert MAX_WORK == 2 ** 30
        assert parse_polynomial("(x+17)^1000*2").coeffs[0] == 2 * 17 ** 1000
        found = "+".join(["(x+17)^1000"] * 5)
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(found)
        work = 2 * 501 * 501 * (4170 + 64)  # 1000 log2(18) = 4169.9
        assert str(exc.value) == f"expansions take about {work} bit operations, over the cap {MAX_WORK} (at position 19)"
        # a monomial's powers are charged as monomials, so x^1000 + ... + x + 1 parses
        assert parse_polynomial("+".join(f"x^{k}" for k in range(1001))) == P(*[1] * 1001)
        # Karatsuba's cost grows as b^1.585, and so does the charge from 8192
        # bits on: six products of MAX_BITS bits fill the cap, not 256
        parser, admitted = _Parser([]), 0
        with pytest.raises(PolynomialSyntaxError, match="over the cap"):
            while True:
                parser.admit(0, MAX_BITS - 1, 1, 0)
                admitted += 1
        assert admitted == 6

    def test_nesting_cap(self):
        deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_polynomial(deepest) == P(0, 1)
        for depth in (MAX_NESTING + 1, 200, 5000):
            with pytest.raises(PolynomialSyntaxError) as exc:
                parse_polynomial("(" * depth + "x" + ")" * depth)
            assert exc.value.position == MAX_NESTING
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("-(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
        assert exc.value.position == 2 * MAX_NESTING + 1

    def test_unary_minus_runs_are_not_recursive(self):
        assert parse_polynomial("-" * 1200 + "x") == P(0, 1)
        assert parse_polynomial("-" * 1201 + "x^2") == P(0, 0, -1)
        assert parse_polynomial("1 - -" + "-" * 5000 + "x") == P(1, 1)

    def test_coeffs_form(self):
        assert parse_poly_input("coeffs:0,-1,27") == P(0, -1, 27)
        assert parse_poly_input("coeffs:0,-1,27") == parse_polynomial("x*(27*x-1)")

    def test_coeffs_literal_beyond_the_int_digit_limit(self, int_digit_limit):
        long, longest = "7" * 5000, "7" * 4300
        int_digit_limit(4300)
        for text, position in [(f"coeffs:{long}", 7), (f"coeffs:1, -{long},2", 11), (f"  coeffs:0,+{long}", 10)]:
            with pytest.raises(PolynomialSyntaxError) as exc:
                parse_poly_input(text)
            assert exc.value.position == position, text
            assert "integer literal of 5000 digits exceeds the interpreter's limit for int()" in str(exc.value)
        assert parse_poly_input(f"coeffs:0,-{longest}") == P(0, -int(longest))  # at the limit
        int_digit_limit(0)  # no limit: every literal parses
        assert parse_poly_input(f"coeffs:1, -{long},2") == P(1, -int(long), 2)

    @pytest.mark.parametrize("text,entry", [
        ("coeffs:1,a", "a"), ("coeffs:1, a", "a"), ("coeffs:--5", "--5"), ("coeffs:1,,2", ""),
        # int() takes underscores, the expression form does not; an entry is a
        # sign and decimal digits, however long
        ("coeffs:1_0", "1_0"),
        pytest.param("coeffs:1_" + "7" * 5000, "1_" + "7" * 5000, id="coeffs:1_<5000 sevens>"),
    ])
    def test_coeffs_other_bad_entries(self, text, entry):
        # refused at the list's start, in int()'s words
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_poly_input(text)
        assert str(exc.value) == (
            f"bad coefficient list: invalid literal for int() with base 10: {entry!r} (at position 7)"
        )


class TestPrint:
    def test_coefficient_beyond_the_int_digit_limit(self, int_digit_limit):
        int_digit_limit(4300)
        f = P(1, 10 ** 5000, 3)
        with pytest.raises(ValueError) as exc:
            str(f)
        assert str(exc.value) == "coefficient of x^1 exceeds the interpreter's digit limit for str()"
        with pytest.raises(ValueError) as exc:
            str(P(-(10 ** 5000)))
        assert str(exc.value) == "coefficient of x^0 exceeds the interpreter's digit limit for str()"
        assert str(P(1, 10 ** 4299, 3)) == f"3*x^2 + {10 ** 4299}*x + 1"  # 4,300 digits: at the limit
        assert sys.get_int_max_str_digits() == 4300  # the limit itself is left alone


class TestEvaluate:
    def test_hand_values(self):
        assert P(0, -1, 4).evaluate(5) == 95
        assert P(0, -1, 29).evaluate(5) == 720

    def test_zero_polynomial(self):
        assert P().evaluate(1000) == 0

    def test_big_input_exact(self):
        # arbitrary precision: no overflow at any size
        x = 10 ** 30
        assert P(0, -1, 27).evaluate(x) == 27 * x * x - x


class TestEvaluateMod:
    def test_hand_value(self):
        assert P(0, -1, 4).evaluate_mod(5, 8) == 7

    def test_mod_one(self):
        assert P(3, 1, 9).evaluate_mod(123, 1) == 0

    def test_agrees_with_plain_evaluation(self):
        f = P(0, -1, 27)
        assert f.evaluate_mod(97, 223) == f.evaluate(97) % 223

    def test_negative_values_canonical(self):
        f = P(0, -1)  # -x
        assert f.evaluate_mod(3, 7) == 4

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            P(1).evaluate_mod(1, 0)


class TestScaleCompose:
    def test_scale_paper_example(self):
        assert P(0, -1, 1).scale(2) == P(0, -2, 2)

    def test_scale_identity(self):
        f = P(3, -2, 5)
        assert f.scale(1) == f

    def test_scale_negative(self):
        assert P(0, 0, 1).scale(-3) == P(0, 0, -3)

    def test_scale_rejects_zero(self):
        with pytest.raises(ValueError):
            P(1, 1).scale(0)

    def test_power_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError) as exc:
            P(0, 1) ** -1
        assert str(exc.value) == "negative exponent"

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # a square after the exponent's top bit is thrown away: at e = 1000
        # it would build a polynomial of degree 1,024
        degrees = []
        multiply = Polynomial.__mul__

        def recording(f, g):
            product = multiply(f, g)
            degrees.append(product.degree)
            return product

        monkeypatch.setattr(Polynomial, "__mul__", recording)
        assert P(1, 1) ** 1000 == P(*(math.comb(1000, k) for k in range(1001)))
        assert max(degrees) == 1000
        assert P(1, 1) ** 0 == P(1) and P(1, 1) ** 1 == P(1, 1)


class TestRecord:
    def test_equal_coefficients_are_equal_and_hash_alike(self):
        f, g = Polynomial((0, 1)), parse_polynomial("x")
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert f != P(0, 2) and f != (0, 1)

    def test_repr(self):
        assert repr(Polynomial((0, 1))) == "Polynomial(coeffs=(0, 1))"

    def test_coeffs_cannot_be_assigned_or_deleted(self):
        f = P(0, 1)
        with pytest.raises(AttributeError):
            f.coeffs = (1,)
        with pytest.raises(AttributeError):
            del f.coeffs
        with pytest.raises(AttributeError):
            f.other = 1
        assert f.coeffs == (0, 1)

    def test_int_times_polynomial_raises(self):
        with pytest.raises(TypeError):
            2 * P(0, 1)

    def test_copy_and_pickle_round_trip(self):
        f = P(3, -2, 5)
        assert copy.copy(f) == f and copy.deepcopy(f) == f
        assert pickle.loads(pickle.dumps(f)) == f


def reference_tokenize(text):
    """The character loop _tokenize replaced, kept as the reference it must equal."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            if ch != "x":
                raise PolynomialSyntaxError(f"unknown variable {ch!r}, only x is allowed", i)
            tokens.append(("x", ch, i))
            i += 1
        else:
            raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except PolynomialSyntaxError as exc:
        return str(exc), exc.position


# letters, decimal digits (ASCII, Arabic-Indic, Devanagari), numerics that are
# not decimal, the grammar's symbols and two control characters
TOKEN_CHARS = "xXyλé0123456789٣७²①½+-*^()\x00\x7f"
# each is str.isspace(), the file separator \x1c and the line separator \u2028 too
SPACES = " \t\n\r\x0b\x1c\u00a0\u2028\u3000"
spaced_text = st.tuples(
    st.text(SPACES, max_size=4), st.text(TOKEN_CHARS + SPACES, max_size=30), st.text(SPACES, max_size=4)
).map("".join)


class TestTokenizer:
    @given(spaced_text)
    @example("x ")  # a catch-all that took whitespace would reject the trailing space
    @example(" \u3000y\t")
    @example("\n² ")
    @example("12\u00a0٣७*x\x0b")
    def test_equals_the_character_loop(self, text):
        assert tokens_or_error(_tokenize, text) == tokens_or_error(reference_tokenize, text)


coeff = st.integers(min_value=-9, max_value=9)
small_poly = st.lists(coeff, min_size=0, max_size=5).map(Polynomial.from_coeffs)


class TestProperties:
    @given(small_poly)
    def test_print_parse_round_trip(self, f):
        assert parse_polynomial(str(f)) == f

    @given(small_poly, st.integers(min_value=-50, max_value=50),
           st.integers(min_value=1, max_value=1000))
    def test_evaluate_mod_consistency(self, f, x, m):
        assert f.evaluate_mod(x, m) == f.evaluate(x) % m

    @given(small_poly, st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
           st.integers(min_value=-10, max_value=10))
    def test_scale_evaluation(self, f, c, x):
        assert f.scale(c).evaluate(x) == c * f.evaluate(x)

    @given(small_poly, st.integers(min_value=0, max_value=30))
    def test_values_are_evaluations(self, f, n):
        assert f.values(n) == [f.evaluate(i) for i in range(1, n + 1)]

    @given(small_poly)
    def test_normalization_no_trailing_zero(self, f):
        assert not f.coeffs or f.coeffs[-1] != 0
