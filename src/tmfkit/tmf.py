"""Twisted matrix factorizations.

A factorization of a normal element f with normalizing automorphism sigma
is a pair (PHI: F -> G, PSI: twG -> F) where twG raises G's generator
degrees by d = deg f, subject to two exact identities in the normative
row-index-equals-source convention:

  (1)  compose(PSI, PHI) = f*I   on G's index set,
  (2)  compose(tw(PHI), PSI) = f*I   on F's index set,

with tw(PHI) carrying entries sigma^{-1}(PHI) and degrees raised by d.
When sigma has a square root tau fixing f (and d is even), the involutive
suspension T and symmetric-root extraction are available.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import gradedmod as gm
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
    format_poly,
)
from .scalars import ONE, ZERO, Scalar, try_sqrt


class ContextMismatch(ValueError):
    """Factorizations carry different normal-element contexts."""


class NoSquareRootContext(ValueError):
    """Operation needs a square root tau of sigma in the context."""


class MultiEigenvalue(ValueError):
    """Scalar part has more than one eigenvalue; Jordan-Chevalley split
    beyond the single-eigenvalue case is out of scope."""


class OracleMismatch(AssertionError):
    """Two independent computations of the same invariant disagree."""


class NotSymmetricForm(ValueError):
    """Input is not in symmetric root form (psi = tau-twist of phi)."""


class NormalContext:
    """Normal element f with its twist data: (algebra, f, d, sigma[, tau]);
    check records a pass and returns at once on later calls."""

    __slots__ = ("algebra", "f", "d", "sigma", "tau", "ell", "_checked")

    def __init__(
        self,
        algebra: GradedAlgebra,
        f: NCPoly,
        sigma: GradedAutomorphism,
        tau: GradedAutomorphism | None = None,
        check: bool = True,
    ) -> None:
        self.algebra = algebra
        self.f = f
        self.d = f.degree()
        self.sigma = sigma
        self.tau = tau
        self.ell = self.d // 2 if (tau is not None and self.d) else None
        self._checked = False
        if check:
            self.check()

    def check(self) -> None:
        if not self._checked:
            self._prove()
            self._checked = True

    def _prove(self) -> None:
        """f is homogeneous of positive degree, sigma normalizes it and has
        the inverse that a twist by sigma applies, and tau (when there is
        one) is a square root of sigma that fixes f."""
        if self.f.is_zero() or self.d is None or self.d <= 0:
            raise ValueError("f must be homogeneous of positive degree")
        for g in range(self.algebra.ngens):
            a = self.algebra.gen(g)
            if a * self.f != self.f * self.sigma(a):
                raise ValueError(
                    f"sigma is not the normalizing automorphism at "
                    f"{self.algebra.names[g]}"
                )
        if not self.sigma.is_identity():
            self.sigma.inverse()  # Singular or NotLinear when there is none
        if self.tau is not None:
            if self.d % 2 != 0:
                raise ValueError("square root context needs even deg f")
            if self.tau.compose(self.tau) != self.sigma:
                raise ValueError("tau*tau != sigma")
            if self.tau(self.f) != self.f:
                raise ValueError("tau does not fix f")

    def require_tau(self) -> GradedAutomorphism:
        if self.tau is None:
            raise NoSquareRootContext("context has no square root of sigma")
        return self.tau

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormalContext):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.f == other.f
            and self.sigma == other.sigma
            and self.tau == other.tau
        )

    def __repr__(self) -> str:
        return f"NormalContext(f={format_poly(self.f)}, d={self.d})"


class TMF:
    """Pair (phi, psi) over a NormalContext; shape-checked when strict.

    Immutable by discipline: verify stores its report on the factorization
    it checked (in ``_report``) and answers later calls from it."""

    __slots__ = ("context", "phi", "psi", "_report")

    def __init__(
        self, context: NormalContext, phi: GradedMatrix, psi: GradedMatrix,
        strict: bool = True,
    ) -> None:
        self.context = context
        self.phi = phi
        self.psi = psi
        self._report: VerifyReport | None = None
        if strict:
            problems = self.shape_problems()
            if problems:
                raise ValueError("; ".join(problems))

    def shape_problems(self) -> list[str]:
        out = []
        if self.phi.algebra != self.context.algebra:
            out.append("phi lives over the wrong algebra")
        if self.psi.source.shifts != self.phi.target.twisted(self.context.d).shifts:
            out.append("source(psi) != twist of target(phi)")
        if self.psi.target.shifts != self.phi.source.shifts:
            out.append("target(psi) != source(phi)")
        return out

    @property
    def rank(self) -> int:
        return self.phi.source.rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TMF):
            return NotImplemented
        return (
            self.context == other.context
            and self.phi == other.phi
            and self.psi == other.psi
        )

    def __repr__(self) -> str:
        return (
            f"TMF(rank={self.rank}, F={self.phi.source.shifts}, "
            f"G={self.phi.target.shifts})"
        )


class Check(NamedTuple):
    """One named verdict; detail says why it failed ('' on a pass)."""

    name: str
    ok: bool
    detail: str = ""


class VerifyReport(NamedTuple):
    """Verdict of verify; shared by every caller, so it is immutable."""

    ok: bool
    checks: tuple[Check, ...] = ()
    residual_one: GradedMatrix | None = None
    residual_two: GradedMatrix | None = None

    def failed(self) -> list[str]:
        return [check.name for check in self.checks if not check.ok]


def lambda_matrix(ctx: NormalContext, module: FreeModule) -> GradedMatrix:
    """Left multiplication by f: twist of the module -> the module."""
    return gm.left_multiplication(module, ctx.f, ctx.d)


def _identity_detail(identity: str, residual: GradedMatrix) -> str:
    """'' for a zero residual, else the identity and its first nonzero
    residual entry (1-based row and column, row by row)."""
    for i, row in enumerate(residual.entries):
        for j, entry in enumerate(row):
            if entry.terms:
                return (
                    f"{identity} != f*I; first nonzero residual at "
                    f"({i + 1},{j + 1}): {format_poly(entry)}"
                )
    return ""


def verify(t: TMF) -> VerifyReport:
    """Check homogeneity, shift compatibility, identities (1) and (2).

    The report is computed once per factorization and stored on it."""
    if t._report is None:
        t._report = _verify(t)
    return t._report


def _verify(t: TMF) -> VerifyReport:
    checks: list[Check] = []
    for name, mat in (("phi", t.phi), ("psi", t.psi)):
        try:
            mat.check_homogeneous()
            checks.append(Check(f"homogeneous:{name}", True))
        except gm.DegreeMismatch as exc:
            checks.append(Check(f"homogeneous:{name}", False, str(exc)))
    problems = t.shape_problems()
    checks.append(Check("shift-compatibility", not problems, "; ".join(problems)))
    if not all(check.ok for check in checks):
        return VerifyReport(False, tuple(checks))

    # each residual is the product with f subtracted on its diagonal only
    ctx = t.context
    res1 = gm.compose(t.psi, t.phi, minus=ctx.f)
    detail1 = _identity_detail("compose(psi, phi)", res1)
    checks.append(Check("identity-1", not detail1, detail1))
    tw_phi = gm.twist_matrix(t.phi, ctx.sigma, ctx.d)
    res2 = gm.compose(tw_phi, t.psi, minus=ctx.f)
    detail2 = _identity_detail("compose(tw(phi), psi)", res2)
    checks.append(Check("identity-2", not detail2, detail2))
    return VerifyReport(not detail1 and not detail2, tuple(checks), res1, res2)


# ---------------------------------------------------------------------------
# constructors and elementary functors
# ---------------------------------------------------------------------------


def trivial(ctx: NormalContext, module: FreeModule, kind: str = "unit-first") -> TMF:
    """Trivial factorization on a free module: (1, f*I) or (f*I, 1)."""
    if kind == "unit-first":
        return TMF(ctx, gm.identity_matrix(module), lambda_matrix(ctx, module))
    if kind == "f-first":
        return TMF(ctx, lambda_matrix(ctx, module), gm.identity_matrix(module.twisted(ctx.d)))
    raise ValueError(f"unknown trivial kind {kind!r}")


def irrelevant(ctx: NormalContext) -> TMF:
    return trivial(ctx, FreeModule(ctx.algebra, ()), "unit-first")


def tw_functor(t: TMF) -> TMF:
    """(phi, psi) -> (psi, tw(phi))."""
    ctx = t.context
    return TMF(ctx, t.psi, gm.twist_matrix(t.phi, ctx.sigma, ctx.d))


def twist_tmf(t: TMF, auto: GradedAutomorphism, shift: int) -> TMF:
    """Apply the module twist (auto, shift) to both matrices.

    Sound whenever auto fixes f and commutes with sigma (tau powers do)."""
    if auto(t.context.f) != t.context.f:
        raise ValueError("twisting automorphism must fix f")
    return TMF(
        t.context,
        gm.twist_matrix(t.phi, auto, shift),
        gm.twist_matrix(t.psi, auto, shift),
    )


def map_tmf(t: TMF, fn, ctx: NormalContext) -> TMF:
    """Apply fn (an algebra map into ctx.algebra) entrywise to phi and psi,
    keeping the shift vectors."""
    return TMF(
        ctx, t.phi.map_entries(fn, ctx.algebra), t.psi.map_entries(fn, ctx.algebra)
    )


def shift_tmf(t: TMF, n: int) -> TMF:
    return TMF(t.context, gm.shift_matrix(t.phi, n), gm.shift_matrix(t.psi, n))


def direct_sum_tmf(a: TMF, b: TMF) -> TMF:
    if a.context != b.context:
        raise ContextMismatch("direct sum of factorizations in different contexts")
    return TMF(
        a.context, gm.direct_sum(a.phi, b.phi), gm.direct_sum(a.psi, b.psi)
    )


def T_functor(t: TMF) -> TMF:
    """T(phi, psi) = (tau^{-1}-twist of psi, tau-twist of phi); T*T = id."""
    ctx = t.context
    tau = ctx.require_tau()
    ell = ctx.ell
    return TMF(
        ctx,
        gm.twist_matrix(t.psi, tau.inverse(), -ell),
        gm.twist_matrix(t.phi, tau, ell),
    )


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def is_morphism(t: TMF, t2: TMF, alpha: GradedMatrix, beta: GradedMatrix) -> bool:
    """alpha: F -> F', beta: G -> G' with compose(alpha, phi') = compose(phi, beta)."""
    return gm.compose(alpha, t2.phi) == gm.compose(t.phi, beta)


def psi_compatible(t: TMF, t2: TMF, alpha: GradedMatrix, beta: GradedMatrix) -> bool:
    """The automatic psi-side identity psi' . tw(beta) = alpha . psi."""
    tw_beta = gm.twist_matrix(beta, t.context.sigma, t.context.d)
    return gm.compose(tw_beta, t2.psi) == gm.compose(t.psi, alpha)


def hom_space(t: TMF, t2: TMF) -> list[tuple[GradedMatrix, GradedMatrix]]:
    if t.context != t2.context:
        raise ContextMismatch("hom space between different contexts")
    return gm.solve_intertwiners(t.phi, t2.phi)


def endomorphism_dimension(t: TMF) -> int:
    return len(hom_space(t, t))


def probably_isomorphic_tmf(
    t: TMF, t2: TMF, trials: int = 32, seed: int = 0
) -> gm.IsoVerdict:
    if t.context != t2.context:
        raise ContextMismatch("factorizations live in different contexts")
    verdict = gm.probably_isomorphic(t.phi, t2.phi, trials=trials, seed=seed)
    if verdict.isomorphic:
        # witness sanity: the psi-side identity must follow exactly
        if not psi_compatible(t, t2, verdict.alpha, verdict.beta):
            raise OracleMismatch("iso witness violates the psi-side identity")
    return verdict


def conjugate(t: TMF, alpha: GradedMatrix, beta: GradedMatrix) -> TMF:
    """The factorization t' with (alpha, beta): t -> t' an isomorphism.

    phi' = alpha^{-1} phi beta and psi' = sigma^{-1}(beta^{-1}) psi alpha;
    both identities transport exactly.
    """
    ok_a, alpha_inv = gm.is_invertible(alpha)
    ok_b, beta_inv = gm.is_invertible(beta)
    if not ok_a or not ok_b:
        raise ValueError("conjugation needs invertible alpha and beta")
    ctx = t.context
    phi2 = gm.compose(gm.compose(alpha_inv, t.phi), beta)
    tw_beta_inv = gm.twist_matrix(beta_inv, ctx.sigma, ctx.d)
    psi2 = gm.compose(gm.compose(tw_beta_inv, t.psi), alpha)
    # land on the conjugated modules: alpha: F' -> F means phi2: F' -> G'
    return TMF(ctx, phi2, psi2)


# ---------------------------------------------------------------------------
# reduction (splitting off trivial summands)
# ---------------------------------------------------------------------------


def _find_unit(mat: GradedMatrix) -> tuple[int, int] | None:
    for i in range(mat.source.rank):
        for j in range(mat.target.rank):
            if mat.source.shifts[i] == mat.target.shifts[j]:
                if not mat.entries[i][j].is_zero():
                    return (i, j)
    return None


class ReduceResult(NamedTuple):
    reduced: TMF
    unit_first: int
    f_first: int


def _split_off(
    mat: GradedMatrix, i: int, j: int, other: GradedMatrix
) -> tuple[GradedMatrix, GradedMatrix]:
    """Split off the trivial summand spanned by the degree-0 unit u = mat[i][j].

    MAT becomes its Schur complement D - C*u^{-1}*B: D is MAT outside row i
    and column j, C the rest of column j and B the rest of row i.  OTHER,
    the matrix running back, loses row j and column i."""
    rows = [r for r in range(mat.source.rank) if r != i]
    cols = [c for c in range(mat.target.rank) if c != j]
    u_inv = mat.entries[i][j].constant_term().inverse()
    column = gm.submatrix(mat, rows, [j]).scale(u_inv)
    schur = gm.submatrix(mat, rows, cols) - gm.compose(column, gm.submatrix(mat, [i], cols))
    return schur, gm.submatrix(other, cols, rows)


def reduce(t: TMF) -> ReduceResult:
    """Split off trivial summands, one Schur complement per unit entry.

    A unit of phi spans a unit-first summand (1, f), a unit of psi an
    f-first one (f, 1).  `_split_off` is conjugation by unipotent clearing
    matrices written out in closed form, so no inverse is formed.  The
    matrix it slices is a block of that conjugate only when t verifies, so t
    must verify (ValueError otherwise); the result is verified again, and a
    failure raises OracleMismatch.  When nothing splits, t is returned."""
    if not verify(t).ok:
        raise ValueError("reduce needs a verified factorization")
    current = t
    unit_first = 0
    f_first = 0
    while True:
        pivot = _find_unit(current.phi)
        if pivot is not None:
            phi, psi = _split_off(current.phi, *pivot, current.psi)
            unit_first += 1
        else:
            pivot = _find_unit(current.psi)
            if pivot is None:
                break
            psi, phi = _split_off(current.psi, *pivot, current.phi)
            f_first += 1
        current = TMF(current.context, phi, psi)
    if current is not t and not verify(current).ok:
        raise OracleMismatch("reduce broke the factorization identities")
    return ReduceResult(current, unit_first, f_first)


def is_reduced(t: TMF) -> bool:
    return _find_unit(t.phi) is None and _find_unit(t.psi) is None


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------


def is_symmetric(t: TMF, trials: int = 32, seed: int = 0) -> gm.IsoVerdict:
    """Probabilistic test for t ~ T(t); Iso verdicts carry checked witnesses."""
    t.context.require_tau()
    if t.rank == 0:
        empty = gm.zero_matrix(t.phi.source, t.phi.source)
        return gm.IsoVerdict(True, empty, empty)
    return probably_isomorphic_tmf(t, T_functor(t), trials=trials, seed=seed)


def _binomial_half_series(rho: GradedMatrix) -> GradedMatrix:
    """(I + rho)^{-1/2} for nilpotent rho, by the exact truncated series."""
    ident = gm.identity_matrix(rho.source)
    series = ident
    power = ident
    k = 0
    while True:
        power = gm.compose(power, rho)
        if power.is_zero():
            break
        k += 1
        # binomial(-1/2, k) = (-1)^k * binomial(2k, k) / 4^k
        coeff = Scalar.rational((-1) ** k * math.comb(2 * k, k), 4**k)
        series = series + power.scale(coeff)
        if k > rho.source.rank * (len(set(rho.source.shifts)) + 1) + 2:
            raise MultiEigenvalue("rho is not nilpotent")
    return series


def _single_eigenvalue(mat: GradedMatrix) -> Scalar:
    """The unique eigenvalue of the scalar part; MultiEigenvalue otherwise."""
    s = gm.scalar_part(mat)
    n = len(s)
    if n == 0:
        return ONE
    c = sum((row.get(i, ZERO) for i, row in enumerate(s)), ZERO) / Scalar.from_int(n)
    # (S - cI)^n must vanish
    m = gm.scalar_matrix(mat.source, mat.target, s) - gm.identity_matrix(mat.source).scale(c)
    power = m
    for _ in range(n - 1):
        power = gm.compose(power, m)
    if not power.is_zero():
        raise MultiEigenvalue("scalar part has several eigenvalues")
    return c


def symmetric_root(
    t: TMF, iso: tuple[GradedMatrix, GradedMatrix]
) -> tuple[TMF, GradedMatrix]:
    """Given an isomorphism (alpha, beta): t -> T(t), produce phi_0 with
    (phi_0, tau-twist of phi_0) a factorization isomorphic to t via (id, beta').

    Returns the root-form factorization and the witness beta'.
    """
    ctx = t.context
    tau = ctx.require_tau()
    ell = ctx.ell
    alpha, beta = iso
    t_image = T_functor(t)
    if not is_morphism(t, t_image, alpha, beta):
        raise ValueError("iso is not a morphism t -> T(t)")
    if t.rank == 0:
        return t, gm.zero_matrix(t.phi.target, t.phi.target)
    # X = tau-twist(beta) . alpha : F -> F, Y = tau^{-1}-twist(alpha) . beta
    X = gm.compose(alpha, gm.twist_matrix(beta, tau, ell))
    Y = gm.compose(beta, gm.twist_matrix(alpha, tau.inverse(), -ell))
    c = _single_eigenvalue(X)
    c2 = _single_eigenvalue(Y)
    if c != c2:
        raise MultiEigenvalue("X and Y scale differently")
    s_inv = try_sqrt(c).inverse()
    beta = beta.scale(s_inv)
    Y = gm.compose(beta, gm.twist_matrix(alpha.scale(s_inv), tau.inverse(), -ell))
    beta_p = gm.compose(_binomial_half_series(Y - gm.identity_matrix(Y.source)), beta)
    phi0 = gm.compose(t.phi, beta_p)
    psi0 = gm.twist_matrix(phi0, tau, ell)
    root = TMF(ctx, phi0, psi0)
    report = verify(root)
    if not report.ok:
        raise OracleMismatch("symmetric root does not verify: " + ", ".join(report.failed()))
    ok_b, _ = gm.is_invertible(beta_p)
    if not ok_b or not is_morphism(t, root, gm.identity_matrix(t.phi.source), beta_p):
        raise OracleMismatch("(id, beta') is not an isomorphism onto the root form")
    return root, beta_p


def in_root_form(t: TMF) -> bool:
    """psi equals the tau-twist of phi (so t = (phi0, tau-twist phi0))."""
    if t.context.tau is None:
        return False
    expected = gm.twist_matrix(t.phi, t.context.tau, t.context.ell)
    return t.psi == expected


# ---------------------------------------------------------------------------
# cokernel Hilbert series
# ---------------------------------------------------------------------------


def coker_hilbert(t: TMF, max_degree: int) -> list[int]:
    """dim (coker phi)_e = HS(G)_e - HS(F)_e for e <= max_degree, as phi is
    injective: sigma applied to identity (2) gives PHI*sigma(PSI) = sigma(f)*I,
    and m_i*sigma(f) = sigma(f*m_i) by normality, so m*phi = 0 forces
    f*m_i = 0 with m_i in A_{e - s_i}, s_i the shifts of F.  Precondition,
    the caller's to prove: f is regular (m -> f*m injective on A_k) for every
    k <= max_degree - min(shifts of F).  t must verify (ValueError otherwise)."""
    if not verify(t).ok:
        raise ValueError("coker_hilbert needs a verified factorization")
    hs_f = t.phi.source.hilbert(max_degree)
    return [g - f for g, f in zip(t.phi.target.hilbert(max_degree), hs_f)]
