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
    PoleAtPoint,
    Scalar,
    ScalarParseError,
    evaluate,
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


def test_evaluate_examples():
    assert evaluate(S("t^2+1"), 1) == GaussRational(2)
    with pytest.raises(PoleAtPoint):
        evaluate(S("1/(t-1)"), 1)
    assert evaluate(S("i*t"), 2) == GaussRational(0, 2)


def test_evaluate_is_homomorphism():
    rng = random.Random(7)
    elems = [S(x) for x in ["t+1", "(t^2-i)/(t+2)", "3/5*t^3-i*t", "1/(t^2+3)"]]
    for _ in range(25):
        a, b = rng.choice(elems), rng.choice(elems)
        t0 = GaussRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        try:
            lhs = evaluate(a * b, t0)
            rhs = evaluate(a, t0) * evaluate(b, t0)
        except PoleAtPoint:
            continue
        assert lhs == rhs


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


@ORACLE
@hypothesis.given(scalars())
def test_sqrt_and_printing_round_trip(a):
    square = a * a
    root = try_sqrt(square)
    assert root * root == square
    assert parse_scalar(format_scalar(a)) == a


POINTS = (GaussRational(0), GaussRational(1), GaussRational(2), GR_I)


def assert_evaluate_matches_subs(a):
    """evaluate(a, t0) against sympy's reduced fraction at each point;
    returns the (sign of v, pole or value) kinds it met."""
    num, den = sp.fraction(sp.cancel(to_sympy(a)))
    kinds = set()
    for t0 in POINTS:
        at = {t_sym: sympy_gauss(t0)}
        sign = (a.v > 0) - (a.v < 0)
        if sp.expand(den.subs(at)) == 0:
            with pytest.raises(PoleAtPoint):
                evaluate(a, t0)
            kinds.add((sign, "pole"))
        else:
            assert sp.simplify(sympy_gauss(evaluate(a, t0)) - num.subs(at) / den.subs(at)) == 0
            kinds.add((sign, "value"))
    return kinds


def test_evaluate_agrees_with_sympy_subs():
    kinds = set()
    for text in ["1/t", "(t+2)/(t^3 - t^2)", "t^-2*(t^2+1)", "(t^2-4)/(t-1)", "i/(t^2+1)",
                 "3/5", "t^3", "t^2/(t-2)", "t*(t+i)/(t^2+1)"]:
        kinds |= assert_evaluate_matches_subs(S(text))
    assert kinds == {(s, k) for s in (-1, 0, 1) for k in ("pole", "value")}


@ORACLE
@hypothesis.given(scalars())
def test_evaluate_agrees_with_sympy_subs_random(a):
    assert_evaluate_matches_subs(a)
