"""Double branched covers and the functors between factorization levels.

The cover of a context (A, f, sigma, tau) is the Ore extension E = A[z]
with a*z = z*tau(a) (rewrite rule z*a -> tau^{-1}(a)*z), carrying the
element f + z^2 whose normalizing automorphism is sigma extended by
fixing z.  All block constructions below were fixed by requiring the two
factorization identities to hold exactly on the rank-one trivial input and
are verified mechanically on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gradedmod as gm
from . import tmf as tm
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    AlgebraMorphism,
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
    extend_automorphism,
    normalizing_automorphism,
    ore_extension,
)
from .scalars import HALF, I as IMAG, MINUS_ONE, ONE, Scalar
from .tmf import NormalContext, TMF, T_functor, direct_sum_tmf, twist_tmf, verify


class HypothesisViolation(ValueError):
    """A double-branched-cover hypothesis fails; the message names it."""


class NotDiagonal(ValueError):
    """theta is not a plus/minus-one diagonal."""


class InvariantViolation(ValueError):
    """Equivariant module data violates z^2 = -f or theta compatibility."""


class CoverContext:
    """Extension algebra, cover element f + z^2, and its twist data."""

    __slots__ = (
        "base",
        "algebra",
        "z_index",
        "f_cover",
        "sigma",
        "tau",
        "zeta",
        "context",
    )

    def __init__(self, base: NormalContext, name: str = "z") -> None:
        if base.tau is None:
            raise HypothesisViolation("no square root of sigma in the base context")
        if base.d % 2 != 0:
            raise HypothesisViolation("deg f is odd")
        if base.tau.compose(base.tau) != base.sigma:
            raise HypothesisViolation("tau^2 != sigma")
        if base.tau(base.f) != base.f:
            raise HypothesisViolation("tau does not fix f")
        if name in base.algebra.names:
            raise HypothesisViolation(f"generator name {name!r} already used")
        ell = base.d // 2
        extended = ore_extension(base.algebra, name, ell, base.tau.inverse())
        z_index = extended.ngens - 1
        z = extended.gen(z_index)
        f_cover = base.f.lift(extended) + z * z
        sigma = extend_automorphism(base.sigma, extended, [z])
        tau = extend_automorphism(base.tau, extended, [z])
        zeta = extend_automorphism(
            GradedAutomorphism.identity(base.algebra), extended, [-z]
        )
        actual = normalizing_automorphism(f_cover)
        if actual != sigma:
            raise HypothesisViolation(
                "f + z^2 is not normal with the extended sigma"
            )
        if zeta.compose(zeta) != GradedAutomorphism.identity(extended):
            raise HypothesisViolation("zeta is not an involution")
        self.base = base
        self.algebra = extended
        self.z_index = z_index
        self.f_cover = f_cover
        self.sigma = sigma
        self.tau = tau
        self.zeta = zeta
        self.context = NormalContext(extended, f_cover, sigma, tau, check=False)

    @property
    def ell(self) -> int:
        return self.base.d // 2

    def z(self) -> NCPoly:
        return self.algebra.gen(self.z_index)


def make_cover(base: NormalContext, name: str = "z") -> CoverContext:
    return CoverContext(base, name)


def _checked(out: TMF, what: str) -> TMF:
    """Return a functor's output if it verifies; InvariantViolation naming
    the failed checks otherwise."""
    report = verify(out)
    if not report.ok:
        raise InvariantViolation(
            f"{what} failed verification: " + ", ".join(report.failed())
        )
    return out


def lift_matrix(mat: GradedMatrix, extended: GradedAlgebra) -> GradedMatrix:
    return mat.map_entries(lambda e: e.lift(extended), extended)


def assemble_blocks(
    source: FreeModule, target: FreeModule, blocks: list[list[GradedMatrix]]
) -> GradedMatrix:
    rows: list[list[NCPoly]] = []
    for brow in blocks:
        height = brow[0].source.rank
        for r in range(height):
            row: list[NCPoly] = []
            for block in brow:
                row.extend(block.entries[r])
            rows.append(row)
    return GradedMatrix(source, target, rows)


# ---------------------------------------------------------------------------
# the functor C: TMF(f) -> TMF(f + z^2)
# ---------------------------------------------------------------------------


def functor_C(cover: CoverContext, t: TMF) -> TMF:
    """Block construction sending (phi, psi) to a factorization of f + z^2.

    Source tw(G) + tau(F), target F + tau(G); the z-blocks are z times an
    identity with the twist bookkeeping resolved so that both identities
    hold exactly (checked).
    """
    if t.context != cover.base:
        raise HypothesisViolation("factorization does not live over the base")
    E = cover.algebra
    ctx = cover.base
    d, ell = ctx.d, cover.ell
    z = cover.z()
    phi = lift_matrix(t.phi, E)
    psi = lift_matrix(t.psi, E)
    f_sh = t.phi.source.shifts
    g_sh = t.phi.target.shifts
    FM = lambda shifts: FreeModule(E, shifts)

    src = FM(tuple(s + d for s in g_sh) + tuple(s + ell for s in f_sh))
    tgt = FM(tuple(f_sh) + tuple(s + ell for s in g_sh))
    lam_g = gm.left_multiplication(FM(tuple(s + ell for s in g_sh)), z, ell)
    lam_f = gm.left_multiplication(FM(tuple(f_sh)), z, ell)
    phi_c = assemble_blocks(
        src,
        tgt,
        [
            [psi, -lam_g],
            [lam_f, gm.twist_matrix(phi, cover.tau, ell)],
        ],
    )
    src2 = FM(tuple(s + d for s in f_sh) + tuple(s + 3 * ell for s in g_sh))
    lam_f2 = gm.left_multiplication(FM(tuple(s + ell for s in f_sh)), z, ell)
    lam_g2 = gm.left_multiplication(FM(tuple(s + d for s in g_sh)), z, ell)
    psi_c = assemble_blocks(
        src2,
        src,
        [
            [gm.twist_matrix(phi, cover.sigma, d), lam_f2],
            [-lam_g2, gm.twist_matrix(psi, cover.tau, ell)],
        ],
    )
    return _checked(TMF(cover.context, phi_c, psi_c), "functor C output")


def restrict_tmf(t: TMF, base: NormalContext) -> TMF:
    """Set the cover variables to zero: TMF(f + z^2) -> TMF(f)."""
    return tm.map_tmf(t, lambda e: e.restrict(base.algebra), base)


def truncate_context(ctx: NormalContext, count: int = 1) -> NormalContext:
    """Drop the last cover variables from a context (z = 0, then w = 0).

    The remaining presentation must be closed under the first generators
    (always true for Ore extensions) and f, sigma, tau must restrict;
    HypothesisViolation otherwise."""
    A = ctx.algebra
    keep = A.ngens - count
    if keep <= 0:
        raise HypothesisViolation("nothing left after truncation")
    gens = list(zip(A.names[:keep], A.degrees[:keep]))
    rules = {}
    for (b, a), rhs in A.rules.items():
        if b >= keep:
            continue
        cleaned = []
        for c, e in rhs:
            if any(e[keep:]):
                raise HypothesisViolation("base rules involve cover variables")
            cleaned.append((c, e[:keep]))
        rules[(b, a)] = cleaned
    try:
        base = GradedAlgebra(gens, rules)
        f = ctx.f.restrict(base)
        sigma = GradedAutomorphism(base, [ctx.sigma.images[g].restrict(base) for g in range(keep)])
        tau = None
        if ctx.tau is not None:
            tau = GradedAutomorphism(base, [ctx.tau.images[g].restrict(base) for g in range(keep)])
        return NormalContext(base, f, sigma, tau)
    except ValueError as exc:
        raise HypothesisViolation(f"the context does not truncate: {exc}") from exc


def functor_Res(cover: CoverContext, t: TMF) -> TMF:
    if t.context != cover.context:
        raise HypothesisViolation("factorization does not live over the cover")
    return _checked(restrict_tmf(t, cover.base), "restriction")


def check_lemma_5_5(cover: CoverContext, t: TMF) -> bool:
    """Res(C(t)) equals tau-twist(T(t)) + tau-twist(t), entrywise."""
    lhs = functor_Res(cover, functor_C(cover, t))
    tau, ell = cover.base.tau, cover.ell
    rhs = direct_sum_tmf(
        twist_tmf(T_functor(t), tau, ell), twist_tmf(t, tau, ell)
    )
    return lhs == rhs


# ---------------------------------------------------------------------------
# the equivalence MCM_zeta(B#) ~ TMF(f): functors A and B
# ---------------------------------------------------------------------------


class EquivariantModule:
    """Free A-module with a z-action matrix and a zeta-signature.

    Z is the matrix of multiplication by z as a map from the tau-twist of
    the module to itself; the relation z^2 = -f reads
    compose(tau-twist(Z), Z) = -f*I and theta must anticommute with Z.
    """

    __slots__ = ("cover", "module", "z_action", "theta")

    def __init__(
        self,
        cover: CoverContext,
        module: FreeModule,
        z_action: GradedMatrix,
        theta: tuple[int, ...],
    ) -> None:
        ctx = cover.base
        if module.algebra != ctx.algebra:
            raise InvariantViolation("module must be over the base algebra")
        if z_action.source.shifts != module.twisted(cover.ell).shifts:
            raise InvariantViolation("z-action source must be the tau-twist")
        if z_action.target.shifts != module.shifts:
            raise InvariantViolation("z-action target must be the module")
        if len(theta) != module.rank or any(s not in (1, -1) for s in theta):
            raise NotDiagonal("theta must be a +/-1 vector of the rank")
        square = gm.compose(
            gm.twist_matrix(z_action, ctx.tau, cover.ell), z_action
        )
        expected = gm.left_multiplication(module, -ctx.f, ctx.d)
        if square != expected:
            raise InvariantViolation("z-action does not satisfy z^2 = -f")
        for i in range(module.rank):
            for j in range(module.rank):
                if not z_action.entries[i][j].is_zero() and theta[i] == theta[j]:
                    raise InvariantViolation("theta does not anticommute with z")
        self.cover = cover
        self.module = module
        self.z_action = z_action
        self.theta = tuple(theta)

    @property
    def rank(self) -> int:
        return self.module.rank


def functor_B(cover: CoverContext, t: TMF) -> EquivariantModule:
    """t = (phi, psi) to the module F + tau(G) with z(x, y) = (-psi(y), phi(x))
    and theta = (+1 on F, -1 on the twisted G part)."""
    if t.context != cover.base:
        raise HypothesisViolation("factorization does not live over the base")
    ctx = cover.base
    ell = cover.ell
    f_sh = t.phi.source.shifts
    g_sh = tuple(s + ell for s in t.phi.target.shifts)
    module = FreeModule(ctx.algebra, f_sh + g_sh)
    rF, rG = len(f_sh), len(g_sh)
    tau_inv_phi = gm.twist_matrix(t.phi, ctx.tau, ell)
    zero = ctx.algebra.zero()
    rows = []
    for i in range(rF):
        rows.append([zero] * rF + list(tau_inv_phi.entries[i]))
    for k in range(rG):
        rows.append([(-e) for e in t.psi.entries[k]] + [zero] * rG)
    z_action = GradedMatrix(module.twisted(ell), module, rows)
    theta = (1,) * rF + (-1,) * rG
    return EquivariantModule(cover, module, z_action, theta)


def functor_A(cover: CoverContext, m: EquivariantModule) -> TMF:
    """Split by the signature; phi is the z-action from + to -, psi is the
    (-z)-action from - to +, with the tau-shift bookkeeping."""
    plus = [i for i, s in enumerate(m.theta) if s == 1]
    minus = [i for i, s in enumerate(m.theta) if s == -1]
    ctx = cover.base
    ell = cover.ell
    z_pm = gm.submatrix(m.z_action, plus, minus)
    z_mp = gm.submatrix(m.z_action, minus, plus)
    # z_pm rows carry the +ell twist of the plus part; undo it
    phi = gm.twist_matrix(z_pm, ctx.tau.inverse(), -ell)
    psi = -z_mp
    return _checked(TMF(ctx, phi, psi), "functor A output")


def delta_sigma(cover: CoverContext, m: EquivariantModule) -> TMF:
    """Factorization (z*I - Z, tau-twist of (z*I + Z)) of f + z^2 over the
    cover, whose cokernel is the module itself (checked at Hilbert level by
    the suite)."""
    E = cover.algebra
    ctx = cover.base
    ell, d = cover.ell, ctx.d
    z = cover.z()
    F = FreeModule(E, m.module.shifts)
    z_lifted = lift_matrix(m.z_action, E)
    lam1 = gm.left_multiplication(F, z, ell)
    delta = lam1 - z_lifted
    lam2 = gm.left_multiplication(FreeModule(E, F.twisted(ell).shifts), z, ell)
    sigma_mat = lam2 + gm.twist_matrix(z_lifted, cover.tau, ell)
    return _checked(TMF(cover.context, delta, sigma_mat), "delta/sigma output")


def module_hilbert(m: EquivariantModule, max_degree: int) -> list[int]:
    return m.module.hilbert(max_degree)


# ---------------------------------------------------------------------------
# second cover, change of variables, and the functor H
# ---------------------------------------------------------------------------


class SecondCover:
    """Iterated cover A[z][w] together with its u, v presentation.

    u = z + i*w and v = z - i*w give A[u][v] with the element f + u*v; the
    generator-level isomorphisms both ways are validated at construction.
    """

    __slots__ = (
        "base",
        "first",
        "second",
        "uv_algebra",
        "u_index",
        "v_index",
        "f_uv",
        "sigma_uv",
        "tau_uv",
        "context_uv",
        "to_uv",
        "from_uv",
    )

    def __init__(self, base: NormalContext) -> None:
        for name in ("u", "v"):
            if name in base.algebra.names:
                raise HypothesisViolation(f"generator name {name!r} already used")
        self.base = base
        self.first = make_cover(base, "z")
        self.second = make_cover(self.first.context, "w")
        ell = base.d // 2
        tau = base.tau
        eu = ore_extension(base.algebra, "u", ell, tau.inverse())
        tau_u = extend_automorphism(tau, eu, [eu.gen("u")])
        ev = ore_extension(eu, "v", ell, tau_u.inverse())
        self.uv_algebra = ev
        self.u_index = ev.gen_index("u")
        self.v_index = ev.gen_index("v")
        u, v = ev.gen("u"), ev.gen("v")
        self.f_uv = base.f.lift(ev) + u * v
        self.sigma_uv = extend_automorphism(
            extend_automorphism(base.sigma, eu, [eu.gen("u")]), ev, [v]
        )
        self.tau_uv = extend_automorphism(tau_u, ev, [v])
        if normalizing_automorphism(self.f_uv) != self.sigma_uv:
            raise HypothesisViolation("f + uv is not normal with the extended sigma")
        self.context_uv = NormalContext(ev, self.f_uv, self.sigma_uv, self.tau_uv, check=False)
        zw = self.second.algebra
        z, w = zw.gen("z"), zw.gen("w")
        # u = z + i w, v = z - i w
        self.from_uv = AlgebraMorphism(
            ev,
            zw,
            [zw.gen(g) for g in range(base.algebra.ngens)]
            + [z + w.scale(IMAG), z - w.scale(IMAG)],
        )
        # z = (u + v)/2, w = -(i/2)(u - v)
        self.to_uv = AlgebraMorphism(
            zw,
            ev,
            [ev.gen(g) for g in range(base.algebra.ngens)]
            + [(u + v).scale(HALF), (u - v).scale(MINUS_ONE * IMAG * HALF)],
        )
        for g in range(ev.ngens):
            if self.to_uv(self.from_uv(ev.gen(g))) != ev.gen(g):
                raise HypothesisViolation("u,v change of variables is not invertible")
        if self.from_uv(self.f_uv) != self.second.f_cover:
            raise HypothesisViolation("change of variables does not match f + z^2 + w^2")


def second_cover(base: NormalContext) -> SecondCover:
    return SecondCover(base)


def functor_H(sc: SecondCover, t: TMF) -> TMF:
    """Direct construction of a factorization of f + uv from one of f."""
    if t.context != sc.base:
        raise HypothesisViolation("factorization does not live over the base")
    E = sc.uv_algebra
    ctx = sc.base
    d, ell = ctx.d, ctx.d // 2
    u, v = E.gen("u"), E.gen("v")
    phi = lift_matrix(t.phi, E)
    psi = lift_matrix(t.psi, E)
    f_sh = t.phi.source.shifts
    g_sh = t.phi.target.shifts
    FM = lambda shifts: FreeModule(E, shifts)
    tau, sigma = sc.tau_uv, sc.sigma_uv

    src = FM(tuple(s + d for s in f_sh) + tuple(s + 3 * ell for s in g_sh))
    tgt = FM(tuple(s + d for s in g_sh) + tuple(s + ell for s in f_sh))
    lam_v1 = gm.left_multiplication(FM(tuple(s + ell for s in f_sh)), v, ell)
    lam_u1 = gm.left_multiplication(FM(tuple(s + d for s in g_sh)), u, ell)
    phi_h = assemble_blocks(
        src,
        tgt,
        [
            [gm.twist_matrix(phi, sigma, d), -lam_v1],
            [lam_u1, gm.twist_matrix(psi, tau, ell)],
        ],
    )
    src2 = FM(tuple(s + 2 * d for s in g_sh) + tuple(s + 3 * ell for s in f_sh))
    lam_v2 = gm.left_multiplication(FM(tuple(s + 3 * ell for s in g_sh)), v, ell)
    lam_u2 = gm.left_multiplication(FM(tuple(s + d for s in f_sh)), u, ell)
    psi_h = assemble_blocks(
        src2,
        src,
        [
            [gm.twist_matrix(psi, sigma, d), lam_v2],
            [-lam_u2, gm.twist_matrix(phi, tau.power(3), 3 * ell)],
        ],
    )
    return _checked(TMF(sc.context_uv, phi_h, psi_h), "functor H output")


def _block_scalar_matrix(
    algebra: GradedAlgebra,
    sizes: list[int],
    shifts: tuple[int, ...],
    pattern: list[list[Scalar]],
) -> GradedMatrix:
    """Blockwise scalar matrix: entry pattern[a][b] times an identity block."""
    module = FreeModule(algebra, shifts)
    zero = algebra.zero()
    total = sum(sizes)
    rows = [[zero] * total for _ in range(total)]
    offs = [sum(sizes[:k]) for k in range(len(sizes))]
    for a, row in enumerate(pattern):
        for b, c in enumerate(row):
            if c.is_zero():
                continue
            if sizes[a] != sizes[b]:
                raise gm.ShapeMismatch("scalar block pattern needs equal sizes")
            for r in range(sizes[a]):
                rows[offs[a] + r][offs[b] + r] = algebra.scalar(c)
    return GradedMatrix(module, module, rows)


LEMMA_5_13_MATRIX = [
    ["1", "0", "0", "i"],
    ["0", "-1", "-i", "0"],
    ["0", "-i", "-1", "0"],
    ["i", "0", "0", "1"],
]


@dataclass
class Lemma513Report:
    conjugation_exact: bool
    restriction_exact: bool

    @property
    def ok(self) -> bool:
        return self.conjugation_exact and self.restriction_exact


def check_lemma_5_13(sc: SecondCover, t: TMF) -> Lemma513Report:
    """Conjugate C2 C1(t) by the printed 4x4 matrix after the u, v change of
    variables and compare with H(t) + T H(t) exactly; also check that
    killing u and v from H(t) gives tw(t) + tw(T t) blockwise."""
    from .scalars import parse_scalar

    c1 = functor_C(sc.first, t)
    c2 = functor_C(sc.second, c1)
    mapped = tm.map_tmf(c2, sc.to_uv, sc.context_uv)
    rF, rG = t.phi.source.rank, t.phi.target.rank
    pattern = [[parse_scalar(x) for x in row] for row in LEMMA_5_13_MATRIX]
    p_src = _block_scalar_matrix(
        sc.uv_algebra, [rF, rG, rG, rF], mapped.phi.source.shifts, pattern
    )
    p_tgt = _block_scalar_matrix(
        sc.uv_algebra, [rG, rF, rF, rG], mapped.phi.target.shifts, pattern
    )
    conj = tm.conjugate(mapped, p_src, p_tgt)
    h = functor_H(sc, t)
    rhs = direct_sum_tmf(h, T_functor(h))
    conjugation_exact = conj == rhs

    killed = restrict_tmf(h, sc.base)
    sigma, d = sc.base.sigma, sc.base.d
    rhs2 = direct_sum_tmf(
        twist_tmf(t, sigma, d), twist_tmf(T_functor(t), sigma, d)
    )
    restriction_exact = verify(killed).ok and killed == rhs2
    return Lemma513Report(conjugation_exact, restriction_exact)


# ---------------------------------------------------------------------------
# symmetric factorizations of the cover
# ---------------------------------------------------------------------------


def c_image_symmetry_witness(
    cover: CoverContext, t: TMF
) -> tuple[GradedMatrix, GradedMatrix]:
    """The explicit block-swap isomorphism C(t) -> T(C(t)); returns the
    checked witness (image-of-C factorizations are symmetric)."""
    c = functor_C(cover, t)
    tc = T_functor(c)
    E = cover.algebra
    rF, rG = t.phi.source.rank, t.phi.target.rank
    zero = E.zero()
    one = E.one()

    def swap(sizes, src_shifts, tgt_shifts):
        total = sum(sizes)
        rows = [[zero] * total for _ in range(total)]
        a, b = sizes
        for r in range(a):
            rows[r][b + r] = one
        for r in range(b):
            rows[a + r][r] = one
        return GradedMatrix(
            FreeModule(E, src_shifts), FreeModule(E, tgt_shifts), rows
        )

    alpha = swap((rG, rF), c.phi.source.shifts, tc.phi.source.shifts)
    beta = swap((rF, rG), c.phi.target.shifts, tc.phi.target.shifts)
    if not tm.is_morphism(c, tc, alpha, beta):
        raise InvariantViolation("block swap is not a morphism C(t) -> T C(t)")
    ok_a, _ = gm.is_invertible(alpha)
    ok_b, _ = gm.is_invertible(beta)
    if not ok_a or not ok_b:
        raise InvariantViolation("block swap is not invertible")
    return alpha, beta


def symmetric_split(cover: CoverContext, t: TMF) -> tuple[TMF, TMF]:
    """Split C(t) for t in symmetric root form by conjugating with the
    printed (1, i; i, 1) block matrix; returns the two diagonal summands."""
    if not tm.in_root_form(t):
        raise tm.NotSymmetricForm("input is not of the form (phi0, tau-twist phi0)")
    c = functor_C(cover, t)
    E = cover.algebra
    r = t.phi.source.rank
    pattern = [[ONE, IMAG], [IMAG, ONE]]
    k_src = _block_scalar_matrix(E, [r, r], c.phi.source.shifts, pattern)
    k_tgt = _block_scalar_matrix(E, [r, r], c.phi.target.shifts, pattern)
    conj = tm.conjugate(c, k_src, k_tgt)
    top = list(range(r))
    bottom = list(range(r, 2 * r))
    for i in top:
        for j in bottom:
            if not conj.phi.entries[i][j].is_zero() or not conj.phi.entries[j][i].is_zero():
                raise InvariantViolation("conjugation did not block-diagonalize")
    t1 = TMF(
        cover.context,
        gm.submatrix(conj.phi, top, top),
        gm.submatrix(conj.psi, top, top),
    )
    t2 = TMF(
        cover.context,
        gm.submatrix(conj.phi, bottom, bottom),
        gm.submatrix(conj.psi, bottom, bottom),
    )
    for part in (t1, t2):
        _checked(part, "symmetric split summand")
    if direct_sum_tmf(t1, t2) != conj:
        raise InvariantViolation("summands do not reassemble the conjugate")
    return t1, t2
