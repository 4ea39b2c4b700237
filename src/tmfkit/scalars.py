"""Exact arithmetic in the coefficient field k = Q(i)(t).

A Scalar is a reduced fraction of polynomials in one variable t whose
coefficients are Gaussian rationals.  Canonical form: gcd(num, den) = 1,
den monic, zero polynomial is the empty coefficient tuple.  Equality of
canonical forms is structural equality, so Scalars are hashable and can
be used as dict keys by the polynomial layer above.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NoSquareRoot(ValueError):
    """The element has no square root inside Q(i)(t)."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation point is a pole (denominator vanishes)."""


class ScalarParseError(ValueError):
    """Malformed scalar literal; carries a position attribute."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class GaussRational:
    """Element of Q(i): re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: GaussRational) -> GaussRational:
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> GaussRational:
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussRational(self.re / n, -self.im / n)

    def __truediv__(self, other: GaussRational) -> GaussRational:
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def _frac_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn != pn or rd * rd != pd:
        return None
    return Fraction(rn, rd)


def _gauss_sqrt(c: GaussRational) -> GaussRational | None:
    """Square root of a Gaussian rational inside Q(i), or None."""
    if c.is_zero():
        return GR_ZERO
    if c.im == 0:
        r = _frac_sqrt(c.re)
        if r is not None:
            return GaussRational(r)
        r = _frac_sqrt(-c.re)
        if r is not None:
            return GaussRational(0, r)
        return None
    norm = _frac_sqrt(c.re * c.re + c.im * c.im)
    if norm is None:
        return None
    u2 = (c.re + norm) / 2
    u = _frac_sqrt(u2)
    if u is None or u == 0:
        return None
    v = c.im / (2 * u)
    cand = GaussRational(u, v)
    return cand if cand * cand == c else None


# ---------------------------------------------------------------------------
# dense polynomials over Q(i), ascending coefficients, no trailing zeros
# ---------------------------------------------------------------------------

Poly = tuple  # tuple[GaussRational, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (GR_ONE,)


def _pstrip(cs: list) -> Poly:
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _pstrip(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)

def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _pstrip(out)


def _pscale(a: Poly, c: GaussRational) -> Poly:
    if c.is_zero():
        return P_ZERO
    return _pstrip([x * c for x in a])


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return P_ZERO, a
    rem = list(a)
    lead_inv = b[-1].inverse()
    q = [GR_ZERO] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * lead_inv
        if c.is_zero():
            continue
        q[k] = c
        for j, cb in enumerate(b):
            rem[k + j] = rem[k + j] - c * cb
    return _pstrip(q), _pstrip(rem)


def _pmonic(a: Poly) -> Poly:
    if not a:
        return a
    lc = a[-1]
    if lc == GR_ONE:
        return a
    return _pscale(a, lc.inverse())


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _peval(a: Poly, t0: GaussRational) -> GaussRational:
    acc = GR_ZERO
    for c in reversed(a):
        acc = acc * t0 + c
    return acc


def _psqrt(a: Poly) -> Poly | None:
    """Exact square root of a polynomial over Q(i), or None."""
    if not a:
        return P_ZERO
    deg = len(a) - 1
    if deg % 2 != 0:
        return None
    lead = _gauss_sqrt(a[-1])
    if lead is None:
        return None
    monic = _pmonic(a)
    k = deg // 2
    half = Fraction(1, 2)
    root = [GR_ZERO] * (k + 1)
    root[k] = GR_ONE
    # determine coefficients from the top down; each is linear in the unknown
    for i in range(k - 1, -1, -1):
        known = GR_ZERO
        for s in range(i + 1, k):
            u = k + i - s
            if i < u <= k:
                known = known + root[s] * root[u]
        target = monic[k + i] if k + i < len(monic) else GR_ZERO
        root[i] = (target - known) * GaussRational(half)
    candidate = _pstrip([c * lead for c in root])
    return candidate if _pmul(candidate, candidate) == a else None


# ---------------------------------------------------------------------------
# the field Q(i)(t)
# ---------------------------------------------------------------------------


class Scalar:
    """Canonical fraction of t-polynomials with Gaussian rational coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE, _canonical: bool = False) -> None:
        if _canonical:
            self.num = num
            self.den = den
            return
        # the polynomial helpers return stripped tuples; callers' tuples may not be
        if den and den[-1].is_zero():
            den = _pstrip(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator in Q(i)(t)")
        if num and num[-1].is_zero():
            num = _pstrip(list(num))
        if not num:
            self.num, self.den = P_ZERO, P_ONE
            return
        g = _pgcd(num, den)
        if len(g) > 1 or g[0] != GR_ONE:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lc = den[-1]
        if lc != GR_ONE:
            inv = lc.inverse()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> Scalar:
        if n == 0:
            return ZERO
        return Scalar((GaussRational(n),), P_ONE, _canonical=True)

    @staticmethod
    def rational(p: int, q: int = 1) -> Scalar:
        return Scalar.from_gauss(GaussRational(Fraction(p, q)))

    @staticmethod
    def from_gauss(c: GaussRational) -> Scalar:
        if c.is_zero():
            return ZERO
        return Scalar((c,), P_ONE, _canonical=True)

    @staticmethod
    def t_power(k: int) -> Scalar:
        """t^k for any integer k; negative powers go to the denominator."""
        if k >= 0:
            return Scalar((GR_ZERO,) * k + (GR_ONE,), P_ONE, _canonical=True)
        return Scalar(P_ONE, (GR_ZERO,) * (-k) + (GR_ONE,), _canonical=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar(
            _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den))),
            _pmul(self.den, other.den),
        )

    def __neg__(self) -> Scalar:
        return Scalar(_pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other: Scalar) -> Scalar:
        if not self.num or not other.num:
            return ZERO
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: Scalar) -> Scalar:
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(i)(t)")
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def inverse(self) -> Scalar:
        return ONE / self

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            return ONE / (self ** (-k))
        acc, base = ONE, self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ZERO = Scalar(P_ZERO, P_ONE, _canonical=True)
ONE = Scalar(P_ONE, P_ONE, _canonical=True)
MINUS_ONE = Scalar((-GR_ONE,), P_ONE, _canonical=True)
I = Scalar((GR_I,), P_ONE, _canonical=True)
T = Scalar.t_power(1)
HALF = Scalar.rational(1, 2)


def try_sqrt(a: Scalar) -> Scalar:
    """Return s with s*s == a, raising NoSquareRoot when s is not in Q(i)(t).

    Uses sqrt(num/den) = sqrt(num*den)/den so only one polynomial square root
    is needed.
    """
    if a.is_zero():
        return ZERO
    root = _psqrt(_pmul(a.num, a.den))
    if root is None:
        raise NoSquareRoot(f"no square root in Q(i)(t): {format_scalar(a)}")
    return Scalar(root, a.den)


def evaluate(a: Scalar, t0: GaussRational | Fraction | int) -> GaussRational:
    """Substitution homomorphism t -> t0; raises PoleAtPoint on a pole."""
    if not isinstance(t0, GaussRational):
        t0 = GaussRational(Fraction(t0))
    d = _peval(a.den, t0)
    if d.is_zero():
        raise PoleAtPoint(f"pole at t = {t0.re}+{t0.im}i")
    return _peval(a.num, t0) * d.inverse()


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
            val = self.sum()
            close = self.take()
            if close.kind != ")":
                raise ScalarParseError("expected ')'", close.pos)
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


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_gauss(c: GaussRational, need_atom: bool) -> str:
    """Render a Gaussian rational; parenthesize unless it is a plain factor."""
    if c.im == 0:
        s = _format_fraction(c.re)
        if need_atom and (c.re < 0 or c.re.denominator != 1):
            return f"({s})"
        return s
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i" if not need_atom else "(-i)"
        s = f"{_format_fraction(c.im)}*i"
        return f"({s})" if need_atom else s
    re_s = _format_fraction(c.re)
    im = c.im
    op = "+" if im > 0 else "-"
    im_abs = abs(im)
    im_s = "i" if im_abs == 1 else f"{_format_fraction(im_abs)}*i"
    return f"({re_s}{op}{im_s})"


def _format_poly(p: Poly) -> str:
    if not p:
        return "0"
    parts: list[str] = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c.is_zero():
            continue
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
    if a.den == P_ONE:
        return _format_poly(a.num)
    return f"({_format_poly(a.num)})/({_format_poly(a.den)})"
