"""Catalog of noncommutative Kleinian singularities and their factorizations.

Each entry carries the presented algebra, the hypersurface element f, the
normalizing automorphism sigma, its square root tau, and the printed
factorization families.  Matrices are stored in the engine convention; the
printed orientation is tried first and the documented swap second, and the
choice is recorded in the entry notes.  f is stored as in the prose
sources; unit-multiple variants are kept as aliases.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gradedmod as gm
from . import tmf as tm
from .cover import (
    check_lemma_5_13,
    check_lemma_5_5,
    functor_C,
    functor_H,
    make_cover,
    second_cover,
)
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    AlgebraMorphism,
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
    ZhangTwist,
    format_poly,
    hilbert_series,
    left_ranks,
    normalizing_automorphism,
)
from .scalars import MINUS_ONE, ONE, Scalar, try_sqrt
from .tmf import Check, NormalContext, TMF, verify


class BadParams(ValueError):
    """Parameters outside the catalog's ranges."""


class VerificationFailure(ValueError):
    """A stored factorization failed its identities."""


class ConventionResolutionFailure(VerificationFailure):
    """Neither matrix orientation satisfies the identities."""


class CatalogEntry(NamedTuple):
    case: str
    n: int | None
    context: NormalContext
    families: dict[str, TMF]
    swaps: dict[str, bool]
    notes: list[str]
    f_aliases: dict[str, NCPoly]

    @classmethod
    def new(cls, case: str, n: int | None, context: NormalContext) -> CatalogEntry:
        """An entry whose families, swaps, notes and aliases are new and empty."""
        return cls(case, n, context, {}, {}, [], {})

    @property
    def algebra(self) -> GradedAlgebra:
        return self.context.algebra

    def labels(self) -> list[str]:
        return list(self.families)

    def factorization(self, label: str) -> TMF:
        return self.families[label]


def _resolve_orientation(
    ctx: NormalContext, phi: GradedMatrix, psi: GradedMatrix
) -> tuple[TMF, bool]:
    """Store the orientation in which the printed pair verifies."""
    as_printed = TMF(ctx, phi, psi, strict=False)
    if verify(as_printed).ok:
        return as_printed, False
    swapped = TMF(ctx, psi, gm.shift_matrix(phi, -ctx.d), strict=False)
    if verify(swapped).ok:
        return swapped, True
    raise ConventionResolutionFailure("neither orientation verifies")


def _commutative_rules(gens):
    n = len(gens)
    return {
        (b, a): [(ONE, tuple(int(k in (a, b)) for k in range(n)))]
        for b in range(n) for a in range(b)
    }


def _skew_three(q12: Scalar, q13: Scalar, q23: Scalar, degrees) -> GradedAlgebra:
    return GradedAlgebra(
        [("a1", degrees[0]), ("a2", degrees[1]), ("a3", degrees[2])],
        {
            (1, 0): [(q12, (1, 1, 0))],
            (2, 0): [(q13, (1, 0, 1))],
            (2, 1): [(q23, (0, 1, 1))],
        },
    )


# ---------------------------------------------------------------------------
# per-case constructions
# ---------------------------------------------------------------------------


def _build_gb(case: str, n: int) -> CatalogEntry:
    """Cases (g) and (b); (b) is (g) with the literal scalar q = -1."""
    if n < 2:
        raise BadParams(f"case ({case}) needs n >= 2")
    q = Scalar.t_power(2) if case == "g" else MINUS_ONE
    A = _skew_three(q ** n, q ** (n * n), q ** n, (n, 2, n))
    delta = -(n * (n - 1) // 2)
    f = A.monomial((1, 0, 1)) - A.monomial((0, n, 0), q ** delta)
    sigma = GradedAutomorphism(
        A,
        [A.gen(0).scale(q ** (-n * n)), A.gen(1), A.gen(2).scale(q ** (n * n))],
    )
    p = try_sqrt(q ** (-n * n))
    tau = GradedAutomorphism(
        A, [A.gen(0).scale(p), A.gen(1), A.gen(2).scale(p.inverse())]
    )
    ctx = NormalContext(A, f, sigma, tau)
    entry = CatalogEntry.new(case, n, ctx)
    entry.f_aliases["table1"] = A.monomial((0, n, 0)) - A.monomial(
        (1, 0, 1), q ** (n * (n - 1) // 2)
    )
    binom = n * (n - 1) // 2
    for j in range(1, n):
        F = FreeModule(A, (n + j, 2 * n - j))
        G = FreeModule(A, (n - j, j))
        phi = GradedMatrix(
            F,
            G,
            [
                [A.monomial((0, j, 0), -(q ** (binom + j - n * j))), A.gen(0)],
                [
                    A.gen(2).scale(-(q ** (-n * (n - j)))),
                    A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1))),
                ],
            ],
        )
        psi = GradedMatrix(
            FreeModule(A, (3 * n - j, 2 * n + j)),
            F,
            [
                [
                    A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1))),
                    A.gen(0).scale(-(q ** (n * (n - j)))),
                ],
                [
                    A.gen(2).scale(q ** (-n * n)),
                    A.monomial((0, j, 0), -(q ** (binom + j - n * j))),
                ],
            ],
        )
        label = f"j={j}"
        entry.families[label], entry.swaps[label] = _resolve_orientation(
            ctx, phi, psi
        )
    return entry


def _build_c() -> CatalogEntry:
    # down-up presentation needs the extra generator b = a2*a1 for a PBW
    # normal form; f and the printed matrices involve only a1, a2
    A = GradedAlgebra(
        [("a1", 1), ("b", 4), ("a2", 3)],
        {
            (1, 0): [(ONE, (2, 0, 1))],
            (2, 0): [(ONE, (0, 1, 0))],
            (2, 1): [(ONE, (1, 0, 2))],
        },
    )
    f = A.monomial((0, 0, 2)) - A.monomial((6, 0, 0))
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, f, ident, ident)
    entry = CatalogEntry.new("c", None, ctx)
    entry.notes.append("presentation adds b = a2*a1 (degree 4) for PBW form")
    entry.f_aliases["table1"] = -f
    F = FreeModule(A, (4, 3))
    G = FreeModule(A, (1, 0))
    a2 = A.gen("a2")
    phi = GradedMatrix(
        F,
        G,
        [[a2, -A.monomial((4, 0, 0))], [-A.monomial((2, 0, 0)), a2]],
    )
    psi = GradedMatrix(
        FreeModule(A, (7, 6)),
        F,
        [[a2, A.monomial((4, 0, 0))], [A.monomial((2, 0, 0)), a2]],
    )
    entry.families["rank2"], entry.swaps["rank2"] = _resolve_orientation(
        ctx, phi, psi
    )
    return entry


def _d_odd_algebra(n: int) -> GradedAlgebra:
    sign = Scalar.from_int(4 * (-1) ** ((n + 1) // 2))
    return GradedAlgebra(
        [("a1", n), ("a2", 4), ("a3", n + 2)],
        {
            (1, 0): [(ONE, (1, 1, 0))],
            (2, 0): [(MINUS_ONE, (1, 0, 1)), (sign, (0, (n + 1) // 2, 0))],
            (2, 1): [(ONE, (0, 1, 1))],
        },
    )


def d_rank4_phi(
    A: GradedAlgebra, n: int, j: int, printed_sign: bool
) -> GradedMatrix:
    """The rank-4 matrix of case (d); printed_sign selects the paper's
    (-1)^s coefficient, otherwise the corrected opposite sign."""
    m = (n + 1) // 2
    s = (n + 1) // 2
    eps = Scalar.from_int((-1) ** s)
    if not printed_sign:
        eps = -eps
    two = Scalar.from_int(2)
    F = FreeModule(A, (2 * n + 4 - 4 * j, n + 4, 2 * n + 2 - 4 * j, n + 2))
    G = FreeModule(A, tuple(x - (n + 2) for x in F.shifts))
    a1, a2, a3 = A.gen(0), A.gen(1), A.gen(2)
    z = A.zero()
    a1a2 = a1 * a2
    return GradedMatrix(
        F,
        G,
        [
            [a3, A.monomial((0, m - j, 0), eps * two), a1a2, z],
            [z, -a3, A.monomial((0, j + 1, 0), two), -a1a2],
            [a1, z, a3, A.monomial((0, m - j, 0), eps * two)],
            [A.monomial((0, j, 0), two), -a1, z, -a3],
        ],
    )


def _build_d_odd(n: int) -> CatalogEntry:
    if n < 3 or n % 2 == 0:
        raise BadParams("case (d-odd) needs odd n >= 3")
    A = _d_odd_algebra(n)
    f = A.monomial((0, 0, 2)) + A.monomial((2, 1, 0))
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, f, ident, ident)
    entry = CatalogEntry.new("d-odd", n, ctx)
    a1, a2, a3 = A.gen(0), A.gen(1), A.gen(2)
    F = FreeModule(A, (2 * n, n + 2))
    G = FreeModule(A, (n - 2, 0))
    # corner entry a3 per the construction section; the theorem statement
    # prints a1 there, which is not degree-homogeneous
    phi = GradedMatrix(F, G, [[a3, a1 * a1], [-a2, a3]])
    psi = GradedMatrix(
        FreeModule(A, (3 * n + 2, 2 * n + 4)), F, [[a3, -(a1 * a1)], [a2, a3]]
    )
    entry.families["rank2"], entry.swaps["rank2"] = _resolve_orientation(
        ctx, phi, psi
    )
    entry.notes.append(
        "rank2 companion stored as phi[-n-2]; rank4 stored with the corrected "
        "sign (printed (-1)^s fails, see erratum check)"
    )
    for j in range(1, (n + 1) // 2):
        phi_j = d_rank4_phi(A, n, j, printed_sign=False)
        psi_j = gm.shift_matrix(phi_j, -(n + 2))
        label = f"j={j}"
        entry.families[label], entry.swaps[label] = _resolve_orientation(
            ctx, phi_j, psi_j
        )
    return entry


def _build_d_even(n: int) -> CatalogEntry:
    if n < 2 or n % 2 == 1:
        raise BadParams("case (d-even) needs even n >= 2")
    A = GradedAlgebra(
        [("a1", n), ("a2", 4), ("a3", n + 2)],
        _commutative_rules([("a1", n), ("a2", 4), ("a3", n + 2)]),
    )
    sign = Scalar.from_int(4 * (-1) ** ((n + 2) // 2))
    f = (
        A.monomial((0, 0, 2))
        - A.monomial((2, 1, 0))
        - A.monomial((0, (n + 2) // 2, 0), sign)
    )
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, f, ident, ident)
    entry = CatalogEntry.new("d-even", n, ctx)
    entry.notes.append("commutative case; families deferred to the classical lists")
    return entry


def _build_e(n: int) -> CatalogEntry:
    if n < 1:
        raise BadParams("case (e) needs n >= 1")
    gens = [("a1", 2 * n), ("a2", 2), ("a3", 2 * n)]
    A = GradedAlgebra(gens, _commutative_rules(gens))
    f = A.monomial((0, 2 * n, 0)) - A.monomial(
        (1, 0, 1), Scalar.from_int((-1) ** n)
    )
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, f, ident, ident)
    entry = CatalogEntry.new("e", n, ctx)
    entry.notes.append("commutative case; families deferred to the classical lists")
    return entry


def _build_h() -> CatalogEntry:
    two, four, six = (Scalar.from_int(k) for k in (2, 4, 6))
    A = GradedAlgebra(
        [("a1", 1), ("a2", 1), ("a3", 1)],
        {
            (1, 0): [(ONE, (1, 1, 0)), (two, (2, 0, 0))],
            (2, 0): [(ONE, (1, 0, 1)), (four, (1, 1, 0)), (six, (2, 0, 0))],
            (2, 1): [(ONE, (0, 1, 1)), (two, (0, 2, 0))],
        },
    )
    a1, a2, a3 = A.gen(0), A.gen(1), A.gen(2)
    f = a2 * a2 - a1 * a2 - a1 * a3
    sigma = GradedAutomorphism(A, [a1, a2 + a1.scale(two), a3 + a2.scale(four) + a1.scale(six)])
    tau = GradedAutomorphism(
        A, [a1, a1 + a2, a1.scale(two) + a2.scale(two) + a3]
    )
    ctx = NormalContext(A, f, sigma, tau)
    entry = CatalogEntry.new("h", None, ctx)
    F = FreeModule(A, (1, 1))
    G = FreeModule(A, (0, 0))
    phi = GradedMatrix(F, G, [[-a3, -a1 - a2], [a2, a1]])
    psi = GradedMatrix(
        FreeModule(A, (2, 2)),
        F,
        [
            [a1, a1 + a2],
            [-(a1.scale(two)) - a2, -(a1.scale(two)) - a2.scale(two) - a3],
        ],
    )
    entry.families["rank2"], entry.swaps["rank2"] = _resolve_orientation(
        ctx, phi, psi
    )
    if entry.swaps["rank2"]:
        entry.notes.append("printed (h) pair stored with phi and psi swapped")
    return entry


def _build_a1() -> CatalogEntry:
    gens = [("x", 1), ("y", 1)]
    A = GradedAlgebra(gens, _commutative_rules(gens))
    f = A.gen("x") * A.gen("y")
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, f, ident, ident)
    entry = CatalogEntry.new("commutative-A1", None, ctx)
    F = FreeModule(A, (1,))
    G = FreeModule(A, (0,))
    phi = GradedMatrix(F, G, [[A.gen("x")]])
    psi = GradedMatrix(FreeModule(A, (2,)), F, [[A.gen("y")]])
    entry.families["rank1"], entry.swaps["rank1"] = _resolve_orientation(
        ctx, phi, psi
    )
    return entry


# case -> (constructor, whether it takes n, parameter ranges); the alias "d",
# which has no ranges of its own, picks the case of its n's parity
_CASES = {
    "b": (lambda n: _build_gb("b", n), True, "n >= 2 (q = -1); families j = 1..n-1"),
    "c": (_build_c, False, "no parameters; one rank-2 family"),
    "d-odd": (_build_d_odd, True, "odd n >= 3; rank-2 plus rank-4 families j = 1..(n-1)/2"),
    "d-even": (_build_d_even, True, "even n >= 2; no stored families"),
    "e": (_build_e, True, "n >= 1; no stored families"),
    "g": (lambda n: _build_gb("g", n), True, "n >= 2 (q = t^2); families j = 1..n-1"),
    "h": (_build_h, False, "no parameters; one rank-2 family"),
    "commutative-A1": (_build_a1, False, "no parameters; classical rank-1 pair"),
    "d": (lambda n: _build_d_odd(n) if n % 2 == 1 else _build_d_even(n), True, None),
}
CASES = tuple(case for case, (_, _, ranges) in _CASES.items() if ranges)


def build(case: str, n: int | None = None) -> CatalogEntry:
    """Construct a catalog entry with all invariants machine-verified."""
    if case not in _CASES:
        raise BadParams(f"unknown case {case!r}; valid: {', '.join(CASES)}")
    construct, takes_n, _ = _CASES[case]
    if not takes_n:
        if n is not None:
            raise BadParams(f"case ({case}) takes no n")
        return construct()
    if n is None:
        raise BadParams(f"case ({case}) needs n")
    return construct(n)


def parameter_ranges() -> dict[str, str]:
    return {case: _CASES[case][2] for case in CASES}


# ---------------------------------------------------------------------------
# case (d) erratum protocol
# ---------------------------------------------------------------------------


class SignFinding(NamedTuple):
    n: int
    j: int
    printed_ok: bool
    flipped_ok: bool
    printed_residual_13: str

    @property
    def dichotomy(self) -> bool:
        return (not self.printed_ok) and self.flipped_ok


def case_d_sign_check(entry: CatalogEntry, j: int = 1) -> SignFinding:
    """Verify both sign conventions of the rank-4 family j of a (d-odd) entry.

    The printed coefficient (-1)^s, s = (n+1)/2, must fail with residual
    8*(-1)^s*a2^{(n+3)/2} at entry (1,3) and the opposite sign must pass.
    """
    if entry.case != "d-odd":
        raise BadParams("the sign check applies to case (d-odd)")
    n, A, ctx = entry.n, entry.algebra, entry.context
    results = {}
    residual_13 = ""
    stored = entry.families.get(f"j={j}")
    for printed in (True, False):
        phi = d_rank4_phi(A, n, j, printed_sign=printed)
        psi = gm.shift_matrix(phi, -(n + 2))
        t = TMF(ctx, phi, psi, strict=False)
        # the corrected sign is the family build verified: its report answers
        report = verify(stored if stored == t else t)
        results[printed] = report.ok
        if printed and report.residual_one is not None:
            residual_13 = format_poly(report.residual_one.entries[0][2])
    return SignFinding(n, j, results[True], results[False], residual_13)


# ---------------------------------------------------------------------------
# Zhang cross-check for case (g)
# ---------------------------------------------------------------------------


def _gamma_pairs(n: int, q: Scalar) -> list[TMF]:
    """The classical rank-1 factorizations (c*y^j, y^(n-j)) of c*y^n over
    k[y], c = -q^{-delta}, for j = 1..n-1, all over one context."""
    A = GradedAlgebra([("y", 2)], {})
    c = -(q ** (n * (n - 1) // 2))
    ident = GradedAutomorphism.identity(A)
    ctx = NormalContext(A, A.monomial((n,), c), ident, ident)
    pairs = []
    for j in range(1, n):
        F = FreeModule(A, (j - n,))
        phi = GradedMatrix(F, FreeModule(A, (-n - j,)), [[A.monomial((j,), c)]])
        psi = GradedMatrix(FreeModule(A, (n - j,)), F, [[A.monomial((n - j,))]])
        pairs.append(TMF(ctx, phi, psi))
    return pairs


def zhang_untransport_tmf(
    tw: ZhangTwist, t_xi: TMF, target_ctx: NormalContext
) -> TMF:
    """Move a factorization over the twist back to the base algebra.

    Entries convert through the shared vector space and pick up xi_h with
    h the target column degree; the psi side also carries the lambda_c row
    scaling by c^{deg - d}, where xi_m(f) = c^{-m} f.
    """
    c = tw.twisting_constant(target_ctx.f)
    d = target_ctx.d

    def move(mat: GradedMatrix, row_scales: list[Scalar] | None) -> GradedMatrix:
        rows = [
            [tw.xi_power(tw.to_base(e), s) for e, s in zip(row, mat.target.shifts)]
            for row in mat.entries
        ]
        if row_scales is not None:
            rows = [[e.scale(c) for e in row] for row, c in zip(rows, row_scales)]
        return GradedMatrix(
            FreeModule(target_ctx.algebra, mat.source.shifts),
            FreeModule(target_ctx.algebra, mat.target.shifts),
            rows,
        )

    phi = move(t_xi.phi, None)
    scales = [c ** (s - d) for s in t_xi.psi.source.shifts]
    psi = move(t_xi.psi, scales)
    return TMF(target_ctx, phi, psi)


def zhang_crosscheck(entry: CatalogEntry, trials: int = 32, seed: int = 0) -> list[Check]:
    """Rebuild the (g) families from the commutative side and compare.

    Pipeline: classical k[y]-factorizations, lifted by the Knorrer functor
    to k[y][u][v], renamed into the Zhang twist k[x,y,z] of C, conjugated by
    diag(1,-1) to the printed form, and transported back through the twist.
    Check j passes when transport j verifies and is isomorphic to family j;
    its detail names what failed, then whether the matrices are equal.
    """
    if entry.case not in ("g", "b"):
        raise BadParams("zhang crosscheck applies to cases (g) and (b)")
    n = entry.n
    q = Scalar.t_power(2) if entry.case == "g" else MINUS_ONE
    A = entry.algebra
    phi_zh = GradedAutomorphism(
        A,
        [A.gen(0), A.gen(1).scale(q ** -1), A.gen(2).scale(q ** -n)],
    )
    tw = ZhangTwist(A, phi_zh)
    twisted = tw.twisted
    # the twist is commutative: all rule coefficients are 1
    for rhs in twisted.rules.values():
        if len(rhs) != 1 or rhs[0][0] != ONE:
            raise tm.OracleMismatch("the Zhang twist is not commutative")
    # f in twist coordinates: x*z - q^{-delta} y^n
    delta = -(n * (n - 1) // 2)
    f_xi = twisted.monomial((1, 0, 1)) - twisted.monomial((0, n, 0), q ** (-delta))
    ident = GradedAutomorphism.identity(twisted)
    ctx_xi = NormalContext(twisted, f_xi, ident, ident)
    gammas = _gamma_pairs(n, q)
    uv = make_cover(gammas[0].context, ("u", "v"))
    # conjugate by diag(1,-1) blockwise to reach the printed form
    pattern = [{0: ONE}, {1: MINUS_ONE}]
    # rename k[y][u][v] -> twist of C: y -> a2, u -> a3 (z), v -> a1 (x)
    mor = AlgebraMorphism(
        uv.algebra, twisted, [twisted.gen(1), twisted.gen(2), twisted.gen(0)]
    )
    checks = []
    for j, gamma in enumerate(gammas, start=1):
        h = functor_H(uv, gamma)
        d_src = gm.block_scalar_matrix(h.phi.source, [1, 1], pattern)
        d_tgt = gm.block_scalar_matrix(h.phi.target, [1, 1], pattern)
        printed_form = tm.conjugate(h, d_src, d_tgt)
        over_xi = tm.map_tmf(printed_form, mor, ctx_xi)
        transported = zhang_untransport_tmf(tw, over_xi, entry.context)
        printed = entry.factorization(f"j={j}")
        exact = (
            transported.phi.entries == printed.phi.entries
            and transported.psi.entries == printed.psi.entries
        )
        # the printed family verified when it was built, so a transport equal
        # to it needs neither a verify nor a search: the identity is the witness.
        # A witness is searched for only on a transport that verifies
        failed = ""
        if transported != printed:
            if not verify(transported).ok:
                failed = "transport does not verify; "
            elif not tm.probably_isomorphic_tmf(
                transported, printed, trials=trials, seed=seed + j
            ).isomorphic:
                failed = "no isomorphism found; "
        checks.append(Check(f"zhang-crosscheck:j={j}", not failed, f"{failed}exact={exact}"))
    return checks


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------


class SuiteReport(NamedTuple):
    checks: list[Check]
    notes: list[str]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# the typed errors a family check can raise: a failed internal oracle, the
# ValueError family (context mismatch, several eigenvalues, ...) and an
# arithmetic error such as a zero pivot
_CHECK_ERRORS = (tm.OracleMismatch, ValueError, ArithmeticError)


def run_suite(
    entry: CatalogEntry,
    seed: int = 0,
    trials: int = 32,
    deep: bool = False,
    max_degree: int | None = None,
) -> SuiteReport:
    """Run the entry's mechanized checks and return a machine-readable report."""
    checks: list[Check] = []
    ctx = entry.context
    A = entry.algebra
    D = max_degree if max_degree is not None else 2 * ctx.d

    def check(name: str, compute) -> None:
        """Record compute()'s (ok, detail), or a failed check carrying the
        text of a typed error it raised, so the report goes on."""
        try:
            ok, detail = compute()
        except _CHECK_ERRORS as exc:
            ok, detail = False, str(exc)
        checks.append(Check(name, bool(ok), detail))

    # a result that several checks read is computed once, or holds the text of
    # the typed error that stopped it (not the error: its traceback would hold
    # this frame), which fails every check that reads it
    def built(out):
        if isinstance(out, str):
            raise ValueError(out)
        return out

    def output(build, *args):
        try:
            return build(*map(built, args))
        except _CHECK_ERRORS as exc:
            return str(exc)

    # Theorem 6.1 data
    for g, name in enumerate(A.names):
        a = A.gen(g)
        check(
            f"normality:{name}",
            lambda: (a * ctx.f == ctx.f * ctx.sigma(a), f"{name}*f = f*sigma({name})"),
        )
    check("sigma-matches-normalizing", lambda: (normalizing_automorphism(ctx.f) == ctx.sigma, ""))
    # passes unless check_well_defined raises IllDefined
    check("tau-well-defined", lambda: (ctx.tau.check_well_defined() is None, ""))

    def tau_squared():
        square = ctx.tau.compose(ctx.tau)
        if square == ctx.sigma:
            return True, ""
        pairs = zip(A.names, square.images, ctx.sigma.images)
        name, lhs, rhs = next(p for p in pairs if p[1] != p[2])
        return False, f"tau(tau({name})) = {lhs}, sigma({name}) = {rhs}"

    def tau_fixes_f():
        image = ctx.tau(ctx.f)
        if image == ctx.f:
            return True, ""
        moved = (image - ctx.f).terms
        first = min(moved)  # f is homogeneous: the first printed term
        return False, f"tau(f) - f has the term {A.monomial(first, moved[first])}"

    check("tau-squared-is-sigma", tau_squared)
    check("tau-fixes-f", tau_fixes_f)
    # one rank pass answers both checks and gates coker-oracle: f is regular on the
    # window when m -> f*m is injective on each A_e, and as m*f = f*sigma(m) for f normal
    # (checked above), dim B_e = dim A_e - rank_{e-d} must equal HS(A)_e - HS(A)_{e-d}
    ranks = output(left_ranks, ctx.f, D)
    dims = [len(A.monomials_of_degree(e)) for e in range(D + 1)]
    # the first degree where m -> f*m is not injective, D + 1 when there is none
    short = output(lambda rs: next((e for e in range(D + 1) if rs[e] < dims[e]), D + 1), ranks)

    def f_regular():
        e = built(short)
        return e > D, "" if e > D else f"dim f*A_{e} = {built(ranks)[e]} < dim A_{e} = {dims[e]}"

    check("f-regular-window", f_regular)

    def quotient_oracle():
        hs = hilbert_series(A, D)
        derived = [a - b for a, b in zip(hs, [0] * ctx.d + hs)]
        counted = [a - b for a, b in zip(dims, [0] * ctx.d + built(ranks))]
        if derived != counted:
            raise tm.OracleMismatch(f"cokernel series disagree: {derived} vs {counted}")
        return bool(derived), ""

    check("hilbert-quotient-oracle", quotient_oracle)

    # families
    def verified(t: TMF):
        failed = verify(t).failed()
        # a family verified over another context says nothing about this one
        if t.context != ctx:
            failed.insert(0, "family context differs from the entry's context")
        return not failed, "; ".join(failed)

    def isomorphic(la: str, lb: str) -> bool:
        t, t2 = entry.factorization(la), entry.factorization(lb)
        return tm.probably_isomorphic_tmf(t, t2, trials=trials, seed=seed).isomorphic

    def coker_series(t: TMF):
        # the precondition of tm.coker_hilbert: f regular through D - min(F shifts)
        low = min(t.phi.source.shifts, default=0)
        reach, e = D - low, built(short)
        if low < 0:
            return False, f"F has the negative shift {low}: the series needs degree {reach} > D"
        if e <= reach:
            return False, f"f is not regular in degree {e} <= D - min(F shifts) = {reach}"
        return True, f"prefix {tm.coker_hilbert(t, D)}"

    labels = entry.labels()
    for label in labels:
        t = entry.factorization(label)
        check(f"verify:{label}", lambda: verified(t))
        check(f"reduced:{label}", lambda: (tm.is_reduced(t), ""))
        check(f"endo-dim-1:{label}", lambda: (tm.endomorphism_dimension(t) == 1, ""))
        check(f"coker-oracle:{label}", lambda: coker_series(t))
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            check(f"non-isomorphic:{la}|{lb}", lambda: (not isomorphic(la, lb), ""))

    # cover functors; a deep run reuses the first cover its second cover built.
    # A functor verifies its own output and raises InvariantViolation, so
    # building it is the check
    if deep:
        sc = output(second_cover, ctx)
        cover, uv = (sc, sc) if isinstance(sc, str) else (sc.first, sc.uv)
    else:
        cover = output(make_cover, ctx)
    check(
        "cover-normality",
        lambda: (built(cover) is not None, "f + z^2 normal (validated at construction)"),
    )

    families = [entry.factorization(label) for label in labels]
    c_outputs = [output(functor_C, cover, t) for t in families]
    for label, t, c in zip(labels, families, c_outputs):
        check(f"functor-C-verifies:{label}", lambda: (built(c) is not None, ""))
        check(f"lemma-5-5:{label}", lambda: (check_lemma_5_5(cover, t, built(c)), ""))
    if deep:
        for label, t, c in zip(labels, families, c_outputs):
            h = output(functor_H, uv, t)
            check(f"functor-H-verifies:{label}", lambda: (built(h) is not None, ""))
            if t.rank <= 2:
                check(
                    f"lemma-5-13:{label}",
                    lambda: check_lemma_5_13(sc, t, built(c), built(h))[1:],
                )

    # case-specific findings
    def sign_dichotomy(j: int):
        finding = case_d_sign_check(entry, j)
        return finding.dichotomy, (
            f"printed (-1)^s fails (residual at (1,3): "
            f"{finding.printed_residual_13}); opposite sign verifies"
        )

    if entry.case == "d-odd":
        for j in range(1, (entry.n + 1) // 2):
            check(f"erratum-d-sign:j={j}", lambda: sign_dichotomy(j))
    if entry.case in ("g", "b") and deep:
        # one check per family j: a typed error of the cross-check fails them all
        zhang = output(zhang_crosscheck, entry, trials, seed)
        for i, label in enumerate(labels):
            check(f"zhang-crosscheck:{label}", lambda: built(zhang)[i][1:])

    return SuiteReport(checks, entry.notes)
