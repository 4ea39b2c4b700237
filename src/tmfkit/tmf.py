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

from dataclasses import dataclass, field
from fractions import Fraction

from . import gradedmod as gm
from . import linalg
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
    format_poly,
    parse_poly,
)
from .scalars import ONE, GaussRational, Scalar, try_sqrt


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
    """Normal element f with its twist data: (algebra, f, d, sigma[, tau])."""

    __slots__ = ("algebra", "f", "d", "sigma", "tau", "ell")

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
        if check:
            self.check()

    def check(self) -> None:
        if self.f.is_zero() or self.d is None or self.d <= 0:
            raise ValueError("f must be homogeneous of positive degree")
        for g in range(self.algebra.ngens):
            a = self.algebra.gen(g)
            if a * self.f != self.f * self.sigma(a):
                raise ValueError(
                    f"sigma is not the normalizing automorphism at "
                    f"{self.algebra.names[g]}"
                )
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
    """Pair (phi, psi) over a NormalContext; shape-checked when strict."""

    __slots__ = ("context", "phi", "psi")

    def __init__(
        self, context: NormalContext, phi: GradedMatrix, psi: GradedMatrix,
        strict: bool = True,
    ) -> None:
        self.context = context
        self.phi = phi
        self.psi = psi
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

    def modules(self) -> tuple[FreeModule, FreeModule]:
        return self.phi.source, self.phi.target

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


@dataclass
class VerifyReport:
    ok: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    residual_one: GradedMatrix | None = None
    residual_two: GradedMatrix | None = None

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]


def lambda_matrix(ctx: NormalContext, module: FreeModule) -> GradedMatrix:
    """Left multiplication by f: twist of the module -> the module."""
    return gm.left_multiplication(module, ctx.f, ctx.d)


def verify(t: TMF) -> VerifyReport:
    """Check homogeneity, shift compatibility, identities (1) and (2)."""
    checks: list[tuple[str, bool, str]] = []
    ok = True

    def record(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        checks.append((name, passed, detail))
        ok = ok and passed

    for name, mat in (("phi", t.phi), ("psi", t.psi)):
        try:
            mat.check_homogeneous()
            record(f"homogeneous:{name}", True)
        except gm.DegreeMismatch as exc:
            record(f"homogeneous:{name}", False, str(exc))
    problems = t.shape_problems()
    record("shift-compatibility", not problems, "; ".join(problems))
    if not ok:
        return VerifyReport(False, checks)

    ctx = t.context
    res1 = gm.compose(t.psi, t.phi) - lambda_matrix(ctx, t.phi.target)
    record(
        "identity-1",
        res1.is_zero(),
        "" if res1.is_zero() else "compose(psi, phi) != f*I",
    )
    tw_phi = gm.twist_matrix(t.phi, ctx.sigma, ctx.d)
    res2 = gm.compose(tw_phi, t.psi) - lambda_matrix(ctx, t.phi.source)
    record(
        "identity-2",
        res2.is_zero(),
        "" if res2.is_zero() else "compose(tw(phi), psi) != f*I",
    )
    return VerifyReport(ok, checks, res1, res2)


def infer_f(t: TMF) -> NCPoly | None:
    """Diagonal of compose(psi, phi) when it is a scalar multiple g*I.

    Diagnostic for unit-multiple discrepancies between printed versions of
    the same factorization; returns None when the product is not g*I.
    """
    if t.rank == 0:
        return None
    prod = gm.compose(t.psi, t.phi)
    candidate = prod.entries[0][0]
    for i in range(prod.source.rank):
        for j in range(prod.target.rank):
            want = candidate if i == j else t.context.algebra.zero()
            if prod.entries[i][j] != want:
                return None
    return candidate


# ---------------------------------------------------------------------------
# constructors and elementary functors
# ---------------------------------------------------------------------------


def trivial(ctx: NormalContext, module: FreeModule, kind: str = "unit-first") -> TMF:
    """Trivial factorization on a free module: (1, f*I) or (f*I, 1)."""
    if kind == "unit-first":
        phi = gm.identity_matrix(module)
        psi = lambda_matrix(ctx, module)
        return TMF(ctx, phi, psi)
    if kind == "f-first":
        phi = lambda_matrix(ctx, module)
        psi = gm.identity_matrix(module.twisted(ctx.d))
        return TMF(ctx, phi, psi)
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


def hom_space(t: TMF, t2: TMF) -> gm.IntertwinerSpace:
    if t.context != t2.context:
        raise ContextMismatch("hom space between different contexts")
    return gm.solve_intertwiners(t.phi, t2.phi)


def endomorphism_dimension(t: TMF) -> int:
    return hom_space(t, t).dimension


def probably_isomorphic_tmf(
    t: TMF, t2: TMF, trials: int = 32, seed: int = 0
) -> gm.IsoVerdict:
    if t.context != t2.context:
        return gm.IsoVerdict(False, failures=0)
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


def _clearing_pair(
    mat: GradedMatrix, i: int, j: int
) -> tuple[GradedMatrix, GradedMatrix]:
    """Unipotent (row_ops, col_ops) with row_ops*MAT*col_ops having the pivot
    as the only nonzero entry in its row and column."""
    algebra = mat.algebra
    c_inv = mat.entries[i][j].constant_term().inverse()
    n, m = mat.source.rank, mat.target.rank
    row_ops = gm.identity_matrix(mat.source)
    rows = [list(r) for r in row_ops.entries]
    for i2 in range(n):
        if i2 != i and not mat.entries[i2][j].is_zero():
            rows[i2][i] = -(mat.entries[i2][j].scale(c_inv))
    row_ops = GradedMatrix(mat.source, mat.source, rows)
    col_ops = gm.identity_matrix(mat.target)
    cols = [list(r) for r in col_ops.entries]
    for j2 in range(m):
        if j2 != j and not mat.entries[i][j2].is_zero():
            cols[j][j2] = -(mat.entries[i][j2].scale(c_inv))
    col_ops = GradedMatrix(mat.target, mat.target, cols)
    return row_ops, col_ops


@dataclass
class ReduceResult:
    reduced: TMF
    unit_first: int
    f_first: int
    witness_alpha: GradedMatrix | None = None
    witness_beta: GradedMatrix | None = None


def _slice_tmf(t: TMF, drop_f: int, drop_g: int) -> TMF:
    keep_f = [i for i in range(t.phi.source.rank) if i != drop_f]
    keep_g = [j for j in range(t.phi.target.rank) if j != drop_g]
    phi = gm.submatrix(t.phi, keep_f, keep_g)
    psi = gm.submatrix(t.psi, keep_g, keep_f)
    return TMF(t.context, phi, psi)


def _require_zero(*entries: NCPoly) -> None:
    if not all(e.is_zero() for e in entries):
        raise OracleMismatch("reduce: a cleared pivot still shares its row or column")


def reduce(t: TMF) -> ReduceResult:
    """Split off trivial summands by pivoting on invertible degree-0 entries.

    The output has no nonzero degree-0 entries in phi or psi; every step is
    checked, and a failed check raises OracleMismatch.
    """
    current = t
    unit_first = 0
    f_first = 0
    while True:
        pivot = _find_unit(current.phi)
        if pivot is not None:
            i, j = pivot
            row_ops, col_ops = _clearing_pair(current.phi, i, j)
            ok, row_inv = gm.is_invertible(row_ops)
            if not ok:
                raise OracleMismatch("reduce: a clearing matrix is not invertible")
            current = conjugate(current, row_inv, col_ops)
            # the cleared pivot spans a unit-first trivial summand
            for j2 in range(current.phi.target.rank):
                if j2 != j:
                    _require_zero(current.phi.entries[i][j2], current.psi.entries[j2][i])
            for i2 in range(current.phi.source.rank):
                if i2 != i:
                    _require_zero(current.phi.entries[i2][j], current.psi.entries[j][i2])
            current = _slice_tmf(current, i, j)
            unit_first += 1
            continue
        pivot = _find_unit(current.psi)
        if pivot is not None:
            k, i0 = pivot  # psi: twG (index k) -> F (index i0)
            row_ops, col_ops = _clearing_pair(current.psi, k, i0)
            # a basis change of twG comes from one of G via the inverse twist
            sigma = current.context.sigma
            d = current.context.d
            ok, row_inv = gm.is_invertible(row_ops)
            if not ok:
                raise OracleMismatch("reduce: a clearing matrix is not invertible")
            beta = gm.twist_matrix(row_inv, sigma.inverse(), -d)
            current = conjugate(current, col_ops, beta)
            for j2 in range(current.phi.target.rank):
                if j2 != k:
                    _require_zero(current.phi.entries[i0][j2])
            for i2 in range(current.phi.source.rank):
                if i2 != i0:
                    _require_zero(current.phi.entries[i2][k])
            current = _slice_tmf(current, i0, k)
            f_first += 1
            continue
        break
    report = verify(current)
    if not report.ok:
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
    coeff = Fraction(1)
    k = 0
    while True:
        power = gm.compose(power, rho)
        if power.is_zero():
            break
        k += 1
        coeff = coeff * (Fraction(-1, 2) - (k - 1)) / k
        series = series + power.scale(Scalar.from_gauss(GaussRational(coeff)))
        if k > rho.source.rank * (len(set(rho.source.shifts)) + 1) + 2:
            raise MultiEigenvalue("rho is not nilpotent")
    return series


def _single_eigenvalue(mat: GradedMatrix) -> Scalar:
    """The unique eigenvalue of the scalar part; MultiEigenvalue otherwise."""
    s = gm.scalar_part(mat)
    n = len(s)
    if n == 0:
        return ONE
    trace = s[0][0]
    for i in range(1, n):
        trace = trace + s[i][i]
    c = trace / Scalar.from_int(n)
    # (S - cI)^n must vanish
    m = [[s[i][j] - (c if i == j else Scalar.from_int(0)) for j in range(n)] for i in range(n)]
    power = m
    for _ in range(n - 1):
        power = [
            [
                sum((power[i][k] * m[k][j] for k in range(n)), Scalar.from_int(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
    if any(not power[i][j].is_zero() for i in range(n) for j in range(n)):
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
    s = try_sqrt(c)
    s_inv = s.inverse()
    alpha = alpha.scale(s_inv)
    beta = beta.scale(s_inv)
    X = gm.compose(alpha, gm.twist_matrix(beta, tau, ell))
    Y = gm.compose(beta, gm.twist_matrix(alpha, tau.inverse(), -ell))
    rho1 = X - gm.identity_matrix(X.source)
    rho2 = Y - gm.identity_matrix(Y.source)
    series1 = _binomial_half_series(rho1)
    series2 = _binomial_half_series(rho2)
    alpha_p = gm.compose(series1, alpha)
    beta_p = gm.compose(series2, beta)
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
    """dim (coker phi)_e for e <= max_degree, computed two ways.

    (a) HS(G) - HS(F) using injectivity of phi (f regular), and
    (b) brute-force column spans in each graded slice of G.
    Raises OracleMismatch if they disagree.
    """
    report = verify(t)
    if not report.ok:
        raise ValueError("coker_hilbert needs a verified factorization")
    algebra = t.context.algebra
    F, G = t.phi.source, t.phi.target
    hs_f = F.hilbert(max_degree)
    hs_g = G.hilbert(max_degree)
    series_a = [hs_g[e] - hs_f[e] for e in range(max_degree + 1)]
    series_b = []
    for e in range(max_degree + 1):
        # one column per k-basis element m*e_i of F_e: its image m*phi[i]
        columns = []
        for i in range(F.rank):
            for mono in algebra.monomials_of_degree(e - F.shifts[i]):
                m_poly = algebra.monomial(mono)
                columns.append({
                    (j, exps): c
                    for j in range(G.rank)
                    for exps, c in (m_poly * t.phi.entries[i][j]).terms.items()
                })
        image_rank = linalg.rank(linalg.coefficient_matrix(columns))
        dim_g = sum(len(algebra.monomials_of_degree(e - s)) for s in G.shifts)
        series_b.append(dim_g - image_rank)
    if series_a != series_b:
        raise OracleMismatch(
            f"cokernel series disagree: {series_a} vs {series_b}"
        )
    return series_a


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def matrix_to_json(mat: GradedMatrix) -> dict:
    return {
        "source": list(mat.source.shifts),
        "target": list(mat.target.shifts),
        "entries": [[format_poly(e) for e in row] for row in mat.entries],
    }


def matrix_from_json(obj: dict, algebra: GradedAlgebra) -> GradedMatrix:
    source = FreeModule(algebra, tuple(int(x) for x in obj["source"]))
    target = FreeModule(algebra, tuple(int(x) for x in obj["target"]))
    entries = [
        [parse_poly(text, algebra) for text in row] for row in obj["entries"]
    ]
    return GradedMatrix(source, target, entries, check=False)


def tmf_to_json(
    t: TMF,
    algebra_json: dict | str,
    sigma_name: str = "sigma",
    tau_name: str | None = "tau",
) -> dict:
    ctx_obj = {
        "algebra": algebra_json,
        "f": format_poly(t.context.f),
        "sigma": sigma_name,
    }
    if t.context.tau is not None and tau_name is not None:
        ctx_obj["tau"] = tau_name
    return {
        "context": ctx_obj,
        "phi": matrix_to_json(t.phi),
        "psi": matrix_to_json(t.psi),
    }
