"""Exact arithmetic in the coefficient field k = Q(i)(t).

A Scalar is t^v * N/D: v is an integer, and N and D are sparse polynomials
in t, tuples of (exponent, coefficient) pairs in ascending exponent order
with nonzero Gaussian rational coefficients.  Canonical form: N(0) != 0 and
D(0) != 0, so the whole t-content sits in v; D is monic and gcd(N, D) = 1;
zero is the empty N with v = 0 and D = 1.  The catalog's parameters are
Laurent monomials c*t^k, whose products and sums never need a polynomial
gcd: one runs only when a denominator D != 1 takes part.  Monomials take a
short lane: two of them multiply, and two with the same k add, on their
coefficients alone, without building or sorting a polynomial.

A GaussRational is (a + b*i)/d over the integers with d > 0 and
gcd(a, b, d) = 1, so each operation costs at most one integer gcd.

Equality of canonical forms is structural equality, and a Scalar's hash
agrees with it.  The polynomial layer above keys its terms by exponent
vectors, with Scalars as the values, so it does not hash them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


class NoSquareRoot(ValueError):
    """The element has no square root inside Q(i)(t)."""


class ScalarParseError(ValueError):
    """Malformed scalar literal; carries a position attribute."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class GaussRational:
    """Element of Q(i): (a + b*i)/d with integers a, b, d, d > 0 and
    gcd(a, b, d) = 1; built from exact rational parts re + im*i (ints or
    Fractions).  Arithmetic stays on the integer triple; only .re and .im
    hand out Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0) -> None:
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.b, self.d)

    def __add__(self, other: GaussRational) -> GaussRational:
        d, e = self.d, other.d
        return _gauss(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: GaussRational) -> GaussRational:
        d, e = self.d, other.d
        return _gauss(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> GaussRational:
        return _gauss(-self.a, -self.b, self.d)

    def __mul__(self, other: GaussRational) -> GaussRational:
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gauss(a * c - b * e, a * e + b * c, self.d * other.d)

    def inverse(self) -> GaussRational:
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _gauss(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other: GaussRational) -> GaussRational:
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"


def _gauss(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d in lowest terms, for d > 0."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    c = object.__new__(GaussRational)
    c.a, c.b, c.d = a, b, d
    return c


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)
GR_HALF = _gauss(1, 0, 2)


def _isqrt_exact(n: int) -> int | None:
    """The square root of an integer that is a perfect square, or None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _gauss_sqrt(c: GaussRational) -> GaussRational | None:
    """Square root of a Gaussian rational inside Q(i), or None.

    A rational p/q >= 0 is a square exactly when the integer p*q is, and
    then sqrt(p/q) = sqrt(p*q)/q; so every root below is an integer isqrt.
    The root returned has a positive real part, or is i times a positive
    rational when c is a negative rational."""
    a, b, d = c.a, c.b, c.d
    if a == 0 and b == 0:
        return GR_ZERO
    if b == 0:
        r = _isqrt_exact(a * d)
        if r is not None:
            return _gauss(r, 0, d)
        r = _isqrt_exact(-a * d)
        if r is not None:
            return _gauss(0, r, d)
        return None
    # |c| = n/d, u = Re(sqrt c) = sqrt((a + n)/(2d)) = r/(2d), Im = (b/d)/(2u) = b/r
    n = _isqrt_exact(a * a + b * b)
    if n is None:
        return None
    r = _isqrt_exact((a + n) * 2 * d)
    if not r:
        return None
    cand = _gauss(r * r, 2 * b * d, 2 * d * r)
    return cand if cand * cand == c else None


# ---------------------------------------------------------------------------
# sparse polynomials over Q(i): ascending (exponent, coefficient) pairs with
# nonzero coefficients; the empty tuple is zero
# ---------------------------------------------------------------------------

Terms = tuple  # tuple[tuple[int, GaussRational], ...]

D_ONE: Terms = ((0, GR_ONE),)  # the one denominator of every D = 1 Scalar


def _shift(p: Terms, k: int) -> Terms:
    """t^k * p."""
    return tuple((e + k, c) for e, c in p) if k else p


def _sadd(p: Terms, q: Terms) -> Terms:
    acc = dict(p)
    for e, c in q:
        acc[e] = acc[e] + c if e in acc else c
    return tuple((e, c) for e, c in sorted(acc.items()) if not c.is_zero())


def _smul(p: Terms, q: Terms) -> Terms:
    if q is D_ONE:
        return p
    if p is D_ONE:
        return q
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        ((e, c),) = p
        if len(q) == 1:
            ((f, x),) = q
            return ((e + f, c * x),)
        return tuple((e + f, c * x) for f, x in q)
    acc: dict = {}
    for e, c in p:
        for f, x in q:
            k = e + f
            acc[k] = acc[k] + c * x if k in acc else c * x
    return tuple((k, c) for k, c in sorted(acc.items()) if not c.is_zero())


def _sdivmod(p: Terms, q: Terms) -> tuple[Terms, Terms]:
    """Quotient and remainder of a nonzero p by a nonzero q."""
    top, lead = q[-1]
    lead_inv = lead.inverse()
    rem = dict(p)
    quot = []
    for k in range(p[-1][0] - top, -1, -1):
        c = rem.pop(k + top, None)
        if c is None:
            continue
        c = c * lead_inv
        quot.append((k, c))
        for e, x in q[:-1]:
            y = rem.pop(k + e, GR_ZERO) - c * x
            if not y.is_zero():
                rem[k + e] = y
    return tuple(reversed(quot)), tuple(sorted(rem.items()))


def _sgcd(p: Terms, q: Terms) -> Terms:
    """A gcd of p and q, up to a unit."""
    while q:
        p, q = q, _sdivmod(p, q)[1]
    return p


def _ssqrt(p: Terms) -> Terms | None:
    """Exact square root of a nonzero polynomial over Q(i), or None."""
    deg, lc = p[-1]
    lead = _gauss_sqrt(lc)
    if deg % 2 or lead is None:
        return None
    monic = dict(_smul(p, ((0, lc.inverse()),)))
    k = deg // 2
    root = [GR_ZERO] * k + [GR_ONE]
    # determine coefficients from the top down; each is linear in the unknown
    for i in range(k - 1, -1, -1):
        known = GR_ZERO
        for s in range(i + 1, k):
            known = known + root[s] * root[k + i - s]
        root[i] = (monic.get(k + i, GR_ZERO) - known) * GR_HALF
    candidate = tuple((e, c * lead) for e, c in enumerate(root) if not c.is_zero())
    return candidate if _smul(candidate, candidate) == p else None


def _power(x, k: int, one):
    """x^k for k >= 0 (x^0 = one), by repeated squaring: the one power
    routine of every ring here (Scalar, NCPoly)."""
    acc = one
    while k:
        if k & 1:
            acc = acc * x
        k >>= 1
        if k:
            x = x * x
    return acc


# ---------------------------------------------------------------------------
# the field Q(i)(t)
# ---------------------------------------------------------------------------


class Scalar:
    """Canonical t^v * N/D with sparse N, D over the Gaussian rationals."""

    __slots__ = ("v", "n", "d")

    def __init__(self) -> None:
        raise TypeError("build a Scalar with from_int, rational, from_gauss or t_power")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> Scalar:
        return Scalar.from_gauss(_gauss(n, 0, 1))

    @staticmethod
    def rational(p: int, q: int = 1) -> Scalar:
        if q == 0:
            raise ZeroDivisionError(f"rational {p}/0")
        return Scalar.from_gauss(_gauss(-p, 0, -q) if q < 0 else _gauss(p, 0, q))

    @staticmethod
    def from_gauss(c: GaussRational) -> Scalar:
        if c.is_zero():
            return ZERO
        return _make(0, ((0, c),), D_ONE)

    @staticmethod
    def t_power(k: int) -> Scalar:
        """t^k for any integer k."""
        return _make(k, D_ONE, D_ONE)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        return _add(self, other)

    def __sub__(self, other: Scalar) -> Scalar:
        try:
            if not other.n:
                return self
        except AttributeError:
            return NotImplemented
        return _add(self, -other)

    def __neg__(self) -> Scalar:
        return _make(self.v, tuple((e, -c) for e, c in self.n), self.d)

    def __mul__(self, other: Scalar) -> Scalar:
        try:
            if not other.n or not self.n:
                return ZERO
        except AttributeError:
            return NotImplemented
        if self.d is D_ONE and other.d is D_ONE:
            # N1*N2 keeps a nonzero constant term, so the form stays canonical;
            # a unit factor returns the other one as it is
            if self.n is D_ONE and not self.v:
                return other
            if other.n is D_ONE and not other.v:
                return self
            return _make(self.v + other.v, _smul(self.n, other.n), D_ONE)
        return _reduce(self.v + other.v, _smul(self.n, other.n), _smul(self.d, other.d))

    def __truediv__(self, other: Scalar) -> Scalar:
        try:
            if not other.n:
                raise ZeroDivisionError("division by zero in Q(i)(t)")
        except AttributeError:
            return NotImplemented
        if not self.n:
            return ZERO
        return _reduce(self.v - other.v, _smul(self.n, other.d), _smul(self.d, other.n))

    def inverse(self) -> Scalar:
        return ONE / self

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            return ONE / _power(self, -k, ONE)
        return _power(self, k, ONE)

    def is_zero(self) -> bool:
        return not self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.v == other.v and self.n == other.n and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.v, self.n, self.d))

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def _make(v: int, n: Terms, d: Terms) -> Scalar:
    """A Scalar from parts already in canonical form."""
    s = object.__new__(Scalar)
    s.v, s.n, s.d = v, n, D_ONE if len(d) == 1 else d
    return s


def _reduce(v: int, n: Terms, d: Terms) -> Scalar:
    """The canonical form of t^v * n/d for nonzero n and d.

    Moves the t-content of n and d into v, cancels gcd(n, d) (only when d
    is not a constant) and makes d monic."""
    if n[0][0]:
        v += n[0][0]
        n = _shift(n, -n[0][0])
    if d[0][0]:
        v -= d[0][0]
        d = _shift(d, -d[0][0])
    if len(d) > 1:
        g = _sgcd(n, d)
        if len(g) > 1:
            n, d = _sdivmod(n, g)[0], _sdivmod(d, g)[0]
    if d is not D_ONE and d[-1][1] != GR_ONE:
        unit = ((0, d[-1][1].inverse()),)
        n, d = _smul(n, unit), _smul(d, unit)
    return _make(v, n, d)


def _add(a: Scalar, b: Scalar) -> Scalar:
    try:
        if not b.n:
            return a
    except AttributeError:
        return NotImplemented
    if not a.n:
        return b
    if a.v == b.v and a.d is D_ONE and b.d is D_ONE and len(a.n) == 1 and len(b.n) == 1:
        # the monomial lane: c1*t^k + c2*t^k = (c1 + c2)*t^k
        c = a.n[0][1] + b.n[0][1]
        return ZERO if c.is_zero() else _make(a.v, ((0, c),), D_ONE)
    v = min(a.v, b.v)
    n = _sadd(_smul(_shift(a.n, a.v - v), b.d), _smul(_shift(b.n, b.v - v), a.d))
    if not n:
        return ZERO
    return _reduce(v, n, _smul(a.d, b.d))


ZERO = _make(0, (), D_ONE)
ONE = _make(0, D_ONE, D_ONE)
MINUS_ONE = Scalar.from_int(-1)
I = Scalar.from_gauss(GR_I)
T = Scalar.t_power(1)
HALF = Scalar.rational(1, 2)


def try_sqrt(a: Scalar) -> Scalar:
    """Return s with s*s == a, raising NoSquareRoot when s is not in Q(i)(t).

    Uses sqrt(t^v * N/D) = t^(v/2) * sqrt(N*D)/D so only one polynomial
    square root is needed.
    """
    if a.is_zero():
        return ZERO
    root = None if a.v % 2 else _ssqrt(_smul(a.n, a.d))
    if root is None:
        raise NoSquareRoot(f"no square root in Q(i)(t): {format_scalar(a)}")
    return _reduce(a.v // 2, root, a.d)


# ---------------------------------------------------------------------------
# literal grammar
#
#   sum    := ('+'|'-')? term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('-')* atom ('^' '-'? integer)?
#   atom   := integer | name | '(' sum ')'
#
# One parser reads the literals of every ring over k.  For scalars a name is
# 'i' or 't'; polynomial literals add generator names (ncalgebra.parse_poly).
# '/' and negative powers need operands that are scalars.  This accepts a
# superset of the spec grammar ('*' and '/' associate left to right); the
# printer stays inside the spec grammar so round trips are stable.
# ---------------------------------------------------------------------------

# Largest |exponent| a literal may put on a scalar with more than one term in
# N or D, alone or as the coefficient of a single-term polynomial such as
# (t+1)*a1: such a power is dense, and its size and cost grow with the
# exponent.  A single-term coefficient, as in t^1000000 or (2*t*a1)^1000, is
# exempt.
MAX_DENSE_POWER = 256

# Largest exponent a polynomial literal may put on a non-scalar base with
# more than one term, such as (a1+a2+a3)^7: every factor multiplies out and
# rewrites.  The costliest catalog presentation, the second cover of case
# (h), takes about 0.3 s for the sum of its generators to the 7th and 1.2 s
# to the 8th.  A single-term base, such as a2^5, is exempt.
MAX_POLY_POWER = 7

# Deepest nesting of parentheses a literal may use: each level is one more
# round of the recursive descent below, and Python's own recursion limit
# would end a much deeper literal in a RecursionError.
MAX_LITERAL_NESTING = 64


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[k:j]), k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[k:j], k))
            k = j
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, k))
            k += 1
            continue
        raise ScalarParseError(f"unexpected character {ch!r}", k)
    toks.append(_Tok("end", None, n))
    return toks


class _LiteralParser:
    """Recursive descent over one ring's literals.

    ``atom`` turns an int or name token into a ring value, ``as_scalar``
    returns a ring value as a Scalar (None when it is not one), and ``unit``
    is the ring's one, which lifts a Scalar into the ring.
    """

    def __init__(self, text: str, atom, as_scalar, unit) -> None:
        self.toks = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.atom_rule = atom
        self.as_scalar = as_scalar
        self.unit = unit

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def take(self) -> _Tok:
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def parse(self):
        val = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ScalarParseError(f"trailing input {tok.value!r}", tok.pos)
        return val

    def scalar(self, val, what: str, pos: int) -> Scalar:
        s = self.as_scalar(val)
        if s is None:
            raise ScalarParseError(f"{what} a non-scalar factor", pos)
        return s

    def sum(self):
        tok = self.peek()
        neg = False
        if tok.kind in "+-":
            self.take()
            neg = tok.kind == "-"
        val = self.term()
        if neg:
            val = -val
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            val = val - rhs if op == "-" else val + rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek().kind in "*/":
            op = self.take()
            rhs = self.factor()
            if op.kind == "/":
                divisor = self.scalar(rhs, "division by", op.pos)
                if divisor.is_zero():
                    raise ZeroDivisionError("division by zero in scalar literal")
                val = val * divisor.inverse()
            else:
                val = val * rhs
        return val

    def factor(self):
        neg = False
        while self.peek().kind == "-":
            self.take()
            neg = not neg
        val = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok.kind != "int":
                raise ScalarParseError("exponent must be an integer", tok.pos)
            e = sign * tok.value
            base = self.as_scalar(val)
            if base is None and len(val.terms) > 1:
                what, limit, dense = "polynomial", MAX_POLY_POWER, True
            else:
                # a single-term polynomial is as dense as its coefficient
                what = "scalar" if base is not None else "coefficient"
                if base is None:
                    (base,) = val.terms.values()
                limit, dense = MAX_DENSE_POWER, len(base.n) > 1 or len(base.d) > 1
            if dense and abs(e) > limit:
                raise ScalarParseError(
                    f"power {e} of a multi-term {what} exceeds {limit}", caret.pos
                )
            if e < 0:
                val = self.unit * self.scalar(val, "negative power of", caret.pos) ** e
            else:
                val = val ** e
        return -val if neg else val

    def atom(self):
        tok = self.take()
        if tok.kind in ("int", "name"):
            return self.atom_rule(tok)
        if tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_LITERAL_NESTING:
                raise ScalarParseError(
                    f"parentheses nested deeper than {MAX_LITERAL_NESTING}", tok.pos
                )
            val = self.sum()
            close = self.take()
            if close.kind != ")":
                raise ScalarParseError("expected ')'", close.pos)
            self.depth -= 1
            return val
        raise ScalarParseError(f"unexpected token {tok.value!r}", tok.pos)


def _scalar_atom(tok: _Tok) -> Scalar:
    if tok.kind == "int":
        return Scalar.from_int(tok.value)
    if tok.value == "i":
        return I
    if tok.value == "t":
        return T
    raise ScalarParseError(f"unknown symbol {tok.value!r}", tok.pos)


def parse_scalar(text: str) -> Scalar:
    return _LiteralParser(text, _scalar_atom, lambda s: s, ONE).parse()


def _format_ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _format_gauss(c: GaussRational, need_atom: bool) -> str:
    """Render a Gaussian rational; parenthesize unless it is a plain factor."""
    a, b, d = c.a, c.b, c.d
    if b == 0:
        s = _format_ratio(a, d)
        if need_atom and (a < 0 or a % d):
            return f"({s})"
        return s
    if a == 0:
        if b == d:
            return "i"
        if b == -d:
            return "-i" if not need_atom else "(-i)"
        s = f"{_format_ratio(b, d)}*i"
        return f"({s})" if need_atom else s
    op = "+" if b > 0 else "-"
    im_s = "i" if abs(b) == d else f"{_format_ratio(abs(b), d)}*i"
    return f"({_format_ratio(a, d)}{op}{im_s})"


def _format_poly(p: Terms, shift: int) -> str:
    """Render t^shift * p, highest exponent first."""
    if not p:
        return "0"
    parts: list[str] = []
    for e, c in reversed(p):
        e += shift
        if e == 0:
            mono = None
        elif e == 1:
            mono = "t"
        else:
            mono = f"t^{e}"
        if mono is None:
            term = _format_gauss(c, need_atom=False)
        elif c == GR_ONE:
            term = mono
        elif c == -GR_ONE:
            term = f"-{mono}"
        else:
            term = f"{_format_gauss(c, need_atom=True)}*{mono}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts)


def format_scalar(a: Scalar) -> str:
    num = _format_poly(a.n, max(a.v, 0))
    if a.d is D_ONE and a.v >= 0:
        return num
    return f"({num})/({_format_poly(a.d, max(-a.v, 0))})"
