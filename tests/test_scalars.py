import math
import operator
import random
import time
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest
import sympy as sp

from tmfkit import scalars as sc
from tmfkit.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRational,
    NoSquareRoot,
    Scalar,
    ScalarParseError,
    format_scalar,
    parse_scalar,
    try_sqrt,
)


def S(text):
    return parse_scalar(text)


def poly(terms):
    """sum c*t^e over (e, c) pairs, through the public constructors."""
    return sum((Scalar.from_gauss(c) * Scalar.t_power(e) for e, c in terms), sc.ZERO)


def from_parts(v, n, d):
    """t^v * N/D rebuilt from sparse parts by field operations."""
    return Scalar.t_power(v) * poly(n) / poly(d)


def test_gaussian_norm():
    # (1+i)(1-i) = 2
    assert S("(1+i)*(1-i)") == Scalar.from_int(2)


def test_polynomial_cancellation():
    # (t^2-1)/(t-1) = t+1
    assert S("(t^2-1)/(t-1)") == S("t+1")


def test_q_p_exponent_arithmetic():
    # q = t^2, p = t^(-n^2) with n = 2: q*p^2 = t^-6
    q = Scalar.t_power(2)
    p = Scalar.t_power(-4)
    assert q * p * p == Scalar.t_power(-6)
    assert p * p == q ** -4


def test_sqrt_examples():
    assert try_sqrt(S("4*t^2")) == S("2*t")
    assert try_sqrt(S("-1")) == sc.I
    with pytest.raises(NoSquareRoot):
        try_sqrt(sc.T)


def test_sqrt_general():
    for text in ["t^4", "9", "-4*t^2", "(t^2+1)^2", "t^2/(t^4+2*t^2+1)", "1/4*t^6"]:
        a = S(text)
        s = try_sqrt(a)
        assert s * s == a
    for text in ["t^3", "2", "i", "t^2+1"]:
        with pytest.raises(NoSquareRoot):
            try_sqrt(S(text))


def test_field_axioms_randomized():
    rng = random.Random(20240811)

    def rand_scalar():
        num = [GaussRational(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        den = [GaussRational(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
        try:
            return poly(enumerate(num)) / poly(enumerate(den))
        except ZeroDivisionError:
            return sc.ONE

    for _ in range(60):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == sc.ZERO
        if not a.is_zero():
            assert a * a.inverse() == sc.ONE


def test_canonicalization_idempotent():
    a = S("(2*t^2-2)/(4*t-4)")
    again = from_parts(a.v, a.n, a.d)
    assert again == a
    # denominator is monic, fraction reduced
    assert a == S("(t+1)/2")
    # values come only from the canonical constructors and operations
    with pytest.raises(TypeError):
        Scalar()


def test_foreign_operands_raise_type_error():
    two = S("2")
    for other in (1, 0.5, "t", None):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(two, other)
            with pytest.raises(TypeError):
                op(other, two)
    assert two + two == S("4") and two / two == sc.ONE


def test_parse_print_roundtrip():
    texts = [
        "0",
        "1",
        "-1",
        "i",
        "t^2 - 1",
        "(1/2)*t + 3",
        "(t^2+1)/(t^3)",
        "(1+2*i)*t^4 - i",
        "2*i",
        "(-3/7)*t",
    ]
    for text in texts:
        a = S(text)
        assert parse_scalar(format_scalar(a)) == a
    # stability: printing a canonical form re-parses to itself repeatedly
    a = S("(-2*i*t^5 + t)/(3*t^2 - 6)")
    s1 = format_scalar(a)
    s2 = format_scalar(parse_scalar(s1))
    assert s1 == s2


def test_parse_errors():
    with pytest.raises(ScalarParseError):
        parse_scalar("t +* 2")
    with pytest.raises(ScalarParseError):
        parse_scalar("(t")
    with pytest.raises(ScalarParseError):
        parse_scalar("x + 1")
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


def test_negative_t_power_literal():
    assert S("t^-2") == Scalar.t_power(-2)
    assert S("t^-2") * S("t^2") == sc.ONE


def test_gauss_rational_canonical_form():
    half = GaussRational(Fraction(2, 4))
    assert half == GaussRational(Fraction(1, 2))
    assert hash(half) == hash(GaussRational(Fraction(1, 2)))
    c = GaussRational(Fraction(-3, 6), Fraction(4, 3))
    assert isinstance(c.re, Fraction) and isinstance(c.im, Fraction)
    assert (c.re, c.im) == (Fraction(-1, 2), Fraction(4, 3))
    assert c * c.inverse() == GR_ONE
    with pytest.raises(ZeroDivisionError):
        GR_ZERO.inverse()


def test_large_t_exponents_cost_nothing():
    start = time.perf_counter()
    big = parse_scalar("t^1000000")
    assert big == Scalar.t_power(1000000)
    assert S("t^20000*t^-19999") == sc.T
    assert format_scalar(Scalar.t_power(-1000000)) == "(1)/(t^1000000)"
    assert format_scalar(big * S("2*i")) == "(2*i)*t^1000000"
    assert time.perf_counter() - start < 0.5


def test_power_squares_no_further_than_the_top_bit():
    # 13 = 0b1101: three multiplies into the accumulator, three squarings
    calls = []

    class Word(str):
        def __mul__(self, other):
            calls.append(other)
            return Word(str(self) + other)

    assert sc._power(Word("x"), 13, Word("")) == "x" * 13
    assert len(calls) == 6
    assert sc._power(Word("x"), 0, Word("1")) == "1"


def test_dense_literal_powers_are_capped():
    cap = sc.MAX_DENSE_POWER
    assert cap == 256
    assert S(f"(t+1)^{cap}") == S("t+1") ** cap
    assert S(f"(1/(t+1))^-{cap}") == S("t+1") ** cap
    for text in (f"(t+1)^{cap + 1}", f"(t+1)^-{cap + 1}", "(1/(1+t))^3000", "2*(t^2 - i)^600"):
        with pytest.raises(ScalarParseError, match="multi-term"):
            parse_scalar(text)
    # a single-term base stays exempt, however large the exponent
    start = time.perf_counter()
    assert S("(2*t^-3)^1000") == Scalar.from_int(2) ** 1000 * Scalar.t_power(-3000)
    assert S("t^10000000") == Scalar.t_power(10000000)
    assert time.perf_counter() - start < 0.5


def test_literal_nesting_is_capped():
    cap = sc.MAX_LITERAL_NESTING
    assert cap == 64
    assert S("(" * cap + "t+1" + ")" * cap) == S("t+1")
    # only the depth counts: siblings at the cap are fine
    assert S("+".join(["(" * cap + "t" + ")" * cap] * 3)) == S("3*t")
    for text in ("(" * (cap + 1) + "t" + ")" * (cap + 1), "(" * 5000 + "1" + ")" * 5000):
        with pytest.raises(ScalarParseError, match=f"nested deeper than {cap}"):
            parse_scalar(text)


# -- sympy as an independent oracle over Q(i)(t) ------------------------------

t_sym = sp.Symbol("t")
ORACLE = hypothesis.settings(max_examples=40, derandomize=True, deadline=None)

gauss = st.builds(
    lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(1, 3),
)
sparse_poly = st.dictionaries(st.integers(0, 4), gauss, min_size=1, max_size=3)


@st.composite
def scalars(draw):
    """t^v * N/D with small Gaussian coefficients and a general D."""
    num = poly(draw(sparse_poly).items())
    den = poly(draw(sparse_poly).items()) if draw(st.booleans()) else sc.ONE
    hypothesis.assume(not den.is_zero())
    return num / den * Scalar.t_power(draw(st.integers(-4, 4)))


def sympy_gauss(c):
    return sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
        c.im.numerator, c.im.denominator
    )


def sympy_poly(terms):
    return sum(sympy_gauss(c) * t_sym**e for e, c in terms)


def to_sympy(a):
    return t_sym**a.v * sympy_poly(a.n) / sympy_poly(a.d)


def assert_canonical(a):
    v, n, d = a.v, a.n, a.d
    for terms in (n, d):
        assert all(not c.is_zero() for _, c in terms)
        assert [e for e, _ in terms] == sorted({e for e, _ in terms})
    assert d and d[-1][1] == GR_ONE  # D monic
    assert d[0][0] == 0  # D(0) != 0
    if not n:
        assert v == 0 and d == ((0, GR_ONE),)
    else:
        assert n[0][0] == 0  # N(0) != 0
        gcd = sp.gcd(sp.Poly(sympy_poly(n), t_sym, domain="QQ_I"),
                     sp.Poly(sympy_poly(d), t_sym, domain="QQ_I"))
        assert gcd.degree() == 0
    assert from_parts(v, n, d) == a


@ORACLE
@hypothesis.given(scalars(), scalars())
def test_field_operations_agree_with_sympy(a, b):
    assert_canonical(a)
    x, y = to_sympy(a), to_sympy(b)
    for got, want in [(a + b, x + y), (a - b, x - y), (a * b, x * y)]:
        assert_canonical(got)
        assert sp.cancel(to_sympy(got) - want) == 0
    if not b.is_zero():
        assert_canonical(a / b)
        assert sp.cancel(to_sympy(a / b) - x / y) == 0
        assert (a * b) / b == a


# The catalog's parameters are Laurent monomials c*t^k; their sums and
# products take a short path, checked here against sympy.
nonzero_gauss = gauss.filter(lambda c: not c.is_zero())
monomials = st.builds(
    lambda c, k: Scalar.from_gauss(c) * Scalar.t_power(k), nonzero_gauss, st.integers(-40, 40)
)


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None)
@hypothesis.given(monomials, monomials, st.sampled_from(["any", "same valuation", "negated"]))
def test_monomial_lane_agrees_with_sympy(a, b, relation):
    if relation == "same valuation":
        b = Scalar.from_gauss(b.n[0][1]) * Scalar.t_power(a.v)
    elif relation == "negated":
        b = -a
    x, y = to_sympy(a), to_sympy(b)
    for got, want in [(a + b, x + y), (a - b, x - y), (b - a, y - x), (a * b, x * y)]:
        assert_canonical(got)
        assert got.d is sc.D_ONE
        assert sp.expand(to_sympy(got) - want) == 0
    if relation == "negated":
        for zero in (a + b, b + a, a - a):
            assert (zero.v, zero.n) == (0, ()) and zero.d is sc.D_ONE


def test_monomial_sums_that_cancel_are_the_canonical_zero():
    for k in (-40, 0, 7, 40):
        for c in (GR_ONE, GR_I, GaussRational(Fraction(-3, 2), Fraction(1, 3))):
            a = Scalar.from_gauss(c) * Scalar.t_power(k)
            minus = Scalar.from_gauss(-c) * Scalar.t_power(k)
            for zero in (a + minus, minus + a, a - a):
                assert zero == sc.ZERO
                assert (zero.v, zero.n) == (0, ()) and zero.d is sc.D_ONE
                assert format_scalar(zero) == "0"


@ORACLE
@hypothesis.given(scalars())
def test_sqrt_and_printing_round_trip(a):
    square = a * a
    root = try_sqrt(square)
    assert root * root == square
    assert parse_scalar(format_scalar(a)) == a


# -- the integer printer and square root against Fraction references ---------


def ref_fraction(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def ref_gauss(c, need_atom):
    """The printer of a Gaussian rational, written on Fraction parts."""
    re, im = c.re, c.im
    if im == 0:
        s = ref_fraction(re)
        return f"({s})" if need_atom and (re < 0 or re.denominator != 1) else s
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "(-i)" if need_atom else "-i"
        s = f"{ref_fraction(im)}*i"
        return f"({s})" if need_atom else s
    op = "+" if im > 0 else "-"
    im_s = "i" if abs(im) == 1 else f"{ref_fraction(abs(im))}*i"
    return f"({ref_fraction(re)}{op}{im_s})"


def ref_poly(terms, shift):
    parts = []
    for e, c in reversed(terms):
        e += shift
        mono = None if e == 0 else "t" if e == 1 else f"t^{e}"
        if mono is None:
            term = ref_gauss(c, False)
        elif (c.re, c.im) == (1, 0):
            term = mono
        elif (c.re, c.im) == (-1, 0):
            term = f"-{mono}"
        else:
            term = f"{ref_gauss(c, True)}*{mono}"
        if not parts:
            parts.append(term)
        else:
            parts.append(f" - {term[1:]}" if term.startswith("-") else f" + {term}")
    return "".join(parts) or "0"


def ref_format_scalar(a):
    num = ref_poly(a.n, max(a.v, 0))
    if a.d == ((0, GR_ONE),) and a.v >= 0:
        return num
    return f"({num})/({ref_poly(a.d, max(-a.v, 0))})"


def ref_gauss_sqrt(c):
    """Square root in Q(i) on Fraction parts, or None."""

    def frac_sqrt(x):
        if x < 0:
            return None
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None

    if c.is_zero():
        return GR_ZERO
    if c.im == 0:
        r = frac_sqrt(c.re)
        if r is not None:
            return GaussRational(r)
        r = frac_sqrt(-c.re)
        return None if r is None else GaussRational(0, r)
    norm = frac_sqrt(c.re * c.re + c.im * c.im)
    u = None if norm is None else frac_sqrt((c.re + norm) / 2)
    if not u:
        return None
    cand = GaussRational(u, c.im / (2 * u))
    return cand if cand * cand == c else None


PRINTER = hypothesis.settings(max_examples=300, derandomize=True, deadline=None)

# zero, +-1 and +-i, then pure imaginary, real and mixed values whose parts
# may be negative and need not be integers
printed_gauss = st.one_of(
    st.sampled_from([GR_ZERO, GR_ONE, -GR_ONE, GR_I, -GR_I]),
    st.builds(
        lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(1, 6),
    ),
)


@PRINTER
@hypothesis.given(printed_gauss, st.booleans())
def test_gauss_printer_matches_the_fraction_reference(c, need_atom):
    assert sc._format_gauss(c, need_atom) == ref_gauss(c, need_atom)


@PRINTER
@hypothesis.given(
    st.dictionaries(st.integers(0, 3), printed_gauss, min_size=1, max_size=3),
    st.one_of(st.none(), st.dictionaries(st.integers(0, 2), printed_gauss, min_size=1, max_size=2)),
    st.integers(-3, 3),
)
def test_format_scalar_matches_the_fraction_reference(num, den, v):
    a = poly(num.items())
    if den is not None:
        d = poly(den.items())
        hypothesis.assume(not d.is_zero())
        a = a / d
    a = a * Scalar.t_power(v)
    assert format_scalar(a) == ref_format_scalar(a)


@PRINTER
@hypothesis.given(printed_gauss)
def test_gauss_sqrt_matches_the_fraction_reference(c):
    assert sc._gauss_sqrt(c) == ref_gauss_sqrt(c)
    assert sc._gauss_sqrt(c * c) == ref_gauss_sqrt(c * c)


def test_rational_constructor_reduces_and_signs():
    assert Scalar.rational(2, -4) == S("-1/2")
    assert Scalar.rational(-6, 3) == Scalar.from_int(-2)
    assert format_scalar(Scalar.rational(3, 9)) == "1/3"
    with pytest.raises(ZeroDivisionError):
        Scalar.rational(1, 0)
