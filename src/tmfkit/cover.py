"""Double branched covers and the functors between factorization levels.

One cover construction serves f + z^2 and f + uv.  The cover of a context
(A, f, sigma, tau) by new variables x, ..., y is itself a NormalContext: the
Ore extension E = A[x, ..., y] (one step) with a*x = x*tau(a), the element
f + x*y, and sigma and tau extended by fixing the new variables; it keeps
its base and the names of its new variables.  The second cover (B#)# is the
u, v cover: f + z^2 + w^2 is f + uv for z = (u + v)/2, w = -(i/2)(u - v).
One block construction gives C over the z cover, H over the u, v cover
applied to tw(t), and C2 of Lemma 5.13 over the u, v cover with w for x and
y.  The blocks were fixed by requiring the two factorization identities to
hold exactly on the rank-one trivial input and are verified on every call.
"""

from __future__ import annotations

from . import gradedmod as gm
from . import linalg
from . import tmf as tm
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    AlgebraMorphism,
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
    extend_automorphism,
    ore_extension,
)
from .scalars import HALF, I as IMAG, MINUS_ONE, ONE
from .tmf import Check, NormalContext, TMF, T_functor, direct_sum_tmf, twist_tmf, verify


class HypothesisViolation(ValueError):
    """A double-branched-cover hypothesis fails; the message names it."""


class NotDiagonal(ValueError):
    """theta is not a plus/minus-one diagonal."""


class InvariantViolation(ValueError):
    """Equivariant module data violates z^2 = -f or theta compatibility."""


class CoverContext(NormalContext):
    """The cover's own NormalContext (extension algebra, f + x*y and its twist
    data), with the base it covers and the names of its new variables.

    names lists the new variables: ("z",) gives f + z^2, ("u", "v") gives
    f + uv.  They are Ore-adjoined in one step with tau^{-1}, and sigma and
    tau are extended to fix them.  NormalContext.check proves the hypotheses,
    of the base and of the cover itself; a failure, or a tau that does not
    invert, is a HypothesisViolation carrying the error's message."""

    __slots__ = ("base", "names")

    def __init__(self, base: NormalContext, names: tuple[str, ...] = ("z",)) -> None:
        if base.tau is None:
            raise HypothesisViolation("no square root of sigma in the base context")
        for name in names:
            if name in base.algebra.names:
                raise HypothesisViolation(f"generator name {name!r} already used")
        self.base = base
        self.names = tuple(names)
        try:
            base.check()
            extended = ore_extension(base.algebra, self.names, base.d // 2, base.tau.inverse())
            new = [extended.gen(name) for name in names]
            sigma = extend_automorphism(base.sigma, extended, new)
            tau = extend_automorphism(base.tau, extended, new)
            f = base.f.lift(extended) + new[0] * new[-1]
            super().__init__(extended, f, sigma, tau)
        except ValueError as exc:
            raise HypothesisViolation(str(exc)) from exc

    def x(self) -> NCPoly:
        """The first new variable (z, or u)."""
        return self.algebra.gen(self.names[0])

    def y(self) -> NCPoly:
        """The last new variable (z, or v)."""
        return self.algebra.gen(self.names[-1])


def make_cover(base: NormalContext, names: tuple[str, ...] = ("z",)) -> CoverContext:
    return CoverContext(base, names)


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


# ---------------------------------------------------------------------------
# the functor C: TMF(f) -> TMF(f + xy)
# ---------------------------------------------------------------------------


def _cover_blocks(
    cover: CoverContext, phi: GradedMatrix, psi: GradedMatrix, x: NCPoly, y: NCPoly
) -> TMF:
    """The block construction (phi, psi) -> ([[psi, -y], [x, tau-tw phi]],
    [[sigma-tw phi, y], [-x, tau-tw psi]]) over the cover, unchecked, of phi
    and psi carried into the cover's algebra.

    Source tw(G) + tau(F), target F + tau(G); x and y stand for left
    multiplication by elements of degree ell, with the twist bookkeeping
    resolved so that both identities hold exactly for f + xy."""
    d, ell = cover.base.d, cover.ell
    F, G = phi.source, phi.target
    lam = lambda module, g: gm.left_multiplication(module, g, ell)
    phi_c = gm.block_matrix(
        [
            [psi, -lam(G.twisted(ell), y)],
            [lam(F, x), gm.twist_matrix(phi, cover.tau, ell)],
        ]
    )
    psi_c = gm.block_matrix(
        [
            [gm.twist_matrix(phi, cover.sigma, d), lam(F.twisted(ell), y)],
            [-lam(G.twisted(d), x), gm.twist_matrix(psi, cover.tau, ell)],
        ]
    )
    return TMF(cover, phi_c, psi_c)


def _lifted_blocks(cover: CoverContext, t: TMF) -> TMF:
    """The block construction of t lifted to the cover, with x() and y()."""
    if t.context != cover.base:
        raise HypothesisViolation("factorization does not live over the base")
    phi, psi = (lift_matrix(m, cover.algebra) for m in (t.phi, t.psi))
    return _cover_blocks(cover, phi, psi, cover.x(), cover.y())


def functor_C(cover: CoverContext, t: TMF) -> TMF:
    """The block construction of f + z^2 (checked)."""
    return _checked(_lifted_blocks(cover, t), "functor C output")


def restrict_tmf(t: TMF, base: NormalContext) -> TMF:
    """Set the cover variables to zero: TMF(f + z^2) -> TMF(f)."""
    return tm.map_tmf(t, lambda e: e.restrict(base.algebra), base)


def truncate_context(ctx: NormalContext) -> NormalContext:
    """Drop the last generator, the cover variable, from a context (z = 0).

    The remaining presentation must be closed under the first generators
    (always true for Ore extensions) and f, sigma, tau must restrict;
    HypothesisViolation otherwise."""
    A = ctx.algebra
    keep = A.ngens - 1
    if keep <= 0:
        raise HypothesisViolation("nothing left after truncation")
    kept = {ba: rhs for ba, rhs in A.rules.items() if ba[0] < keep}
    if any(any(e[keep:]) for rhs in kept.values() for _, e in rhs):
        raise HypothesisViolation("base rules involve cover variables")
    rules = {ba: [(c, e[:keep]) for c, e in rhs] for ba, rhs in kept.items()}
    try:
        base = GradedAlgebra(list(zip(A.names[:keep], A.degrees[:keep])), rules)

        def restricted(auto: GradedAutomorphism) -> GradedAutomorphism:
            return GradedAutomorphism(base, [img.restrict(base) for img in auto.images[:keep]])

        tau = None if ctx.tau is None else restricted(ctx.tau)
        return NormalContext(base, ctx.f.restrict(base), restricted(ctx.sigma), tau)
    except ValueError as exc:
        raise HypothesisViolation(f"the context does not truncate: {exc}") from exc


def check_lemma_5_5(cover: CoverContext, t: TMF, c: TMF) -> bool:
    """Res(c) equals tau-twist(T(t)) + tau-twist(t), entrywise, for c = C(t).

    Setting the cover variables to zero is a ring map, so Res(c) of a
    verified c needs no verify of its own: the entrywise comparison with
    the right-hand side decides."""
    if c.context != cover:
        raise HypothesisViolation("factorization does not live over the cover")
    tau, ell = cover.base.tau, cover.ell
    rhs = direct_sum_tmf(
        twist_tmf(T_functor(t), tau, ell), twist_tmf(t, tau, ell)
    )
    return restrict_tmf(c, cover.base) == rhs


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
    ell = cover.ell
    F, G = t.phi.source, t.phi.target.twisted(ell)
    z_action = gm.block_matrix(
        [
            [gm.zero_matrix(F.twisted(ell), F), gm.twist_matrix(t.phi, cover.base.tau, ell)],
            [-t.psi, gm.zero_matrix(t.psi.source, G)],
        ]
    )
    theta = (1,) * F.rank + (-1,) * G.rank
    return EquivariantModule(cover, z_action.target, z_action, theta)


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
    tests/test_cover.py::test_delta_sigma_of_B_module)."""
    E = cover.algebra
    ctx = cover.base
    ell, d = cover.ell, ctx.d
    z = cover.x()
    F = FreeModule(E, m.module.shifts)
    z_lifted = lift_matrix(m.z_action, E)
    lam1 = gm.left_multiplication(F, z, ell)
    delta = lam1 - z_lifted
    lam2 = gm.left_multiplication(F.twisted(ell), z, ell)
    sigma_mat = lam2 + gm.twist_matrix(z_lifted, cover.tau, ell)
    return _checked(TMF(cover, delta, sigma_mat), "delta/sigma output")


# ---------------------------------------------------------------------------
# second cover, change of variables, and the functor H
# ---------------------------------------------------------------------------


# z = (u + v)/2 and w = -(i/2)(u - v), as rows over (u, v)
ZW_IN_UV = [{0: HALF, 1: HALF}, {0: -IMAG * HALF, 1: IMAG * HALF}]


class SecondCover:
    """The second cover (B#)# in its u, v presentation: the cover uv of A by
    f + u*v, the first cover A[z] by f + z^2, the embedding of A[z] into
    A[u][v] with z -> (u + v)/2, and w = -(i/2)(u - v), so that
    f + z^2 + w^2 = f + uv (checked at construction)."""

    __slots__ = ("base", "uv", "first", "embed", "w")

    def __init__(self, base: NormalContext) -> None:
        self.base = base
        self.uv = CoverContext(base, ("u", "v"))
        self.first = make_cover(base, ("z",))
        ev = self.uv.algebra
        z, self.w = (ev.gen("u").scale(row[0]) + ev.gen("v").scale(row[1]) for row in ZW_IN_UV)
        self.embed = AlgebraMorphism(
            self.first.algebra, ev, [ev.gen(g) for g in range(base.algebra.ngens)] + [z]
        )
        if self.embed(self.first.f) + self.w * self.w != self.uv.f:
            raise HypothesisViolation("change of variables does not match f + z^2 + w^2")
        if linalg.invert(ZW_IN_UV) is None:
            raise HypothesisViolation("u,v change of variables is not invertible")


def second_cover(base: NormalContext) -> SecondCover:
    return SecondCover(base)


def functor_H(uv: CoverContext, t: TMF) -> TMF:
    """H(t) is the block construction of f + uv applied to tw(t) (checked);
    uv is the cover make_cover(t.context, ("u", "v")), or a second cover's
    uv."""
    if len(uv.names) != 2:
        raise HypothesisViolation("H needs the cover f + uv by two new variables")
    return _checked(_lifted_blocks(uv, tm.tw_functor(t)), "functor H output")


# the printed 4x4 matrix P over k, as sparse rows
LEMMA_5_13_PATTERN = [
    {0: ONE, 3: IMAG},
    {1: MINUS_ONE, 2: -IMAG},
    {1: -IMAG, 2: MINUS_ONE},
    {0: IMAG, 3: ONE},
]


def check_lemma_5_13(sc: SecondCover, t: TMF, c1: TMF, h: TMF) -> Check:
    """Check that the printed 4x4 matrix P (invertible over k, or ValueError)
    is a morphism from C2(c1), built over A[u][v] from c1 embedded and w, to
    h + T h on phi and psi, which is P^{-1} C2(c1) P = h + T h with no
    inverse formed; also that killing u and v from h gives tw(t) + tw(T t)
    blockwise, an entrywise comparison with a sum built from t (no verify of
    its own).  c1 = C1(t) over the first cover of sc and h = H(t).  The
    detail names each half that fails."""
    if linalg.invert(LEMMA_5_13_PATTERN) is None:
        raise ValueError("the Lemma 5.13 pattern is not invertible over k")
    if c1.context != sc.first:
        raise HypothesisViolation("factorization does not live over the base")
    phi, psi = (m.map_entries(sc.embed, sc.uv.algebra) for m in (c1.phi, c1.psi))
    # unchecked: the identity below and the verified h make C2(c1) verify
    mapped = _cover_blocks(sc.uv, phi, psi, sc.w, sc.w)
    rF, rG = t.phi.source.rank, t.phi.target.rank
    p_src = gm.block_scalar_matrix(mapped.phi.source, [rF, rG, rG, rF], LEMMA_5_13_PATTERN)
    p_tgt = gm.block_scalar_matrix(mapped.phi.target, [rG, rF, rF, rG], LEMMA_5_13_PATTERN)
    rhs = direct_sum_tmf(h, T_functor(h))
    shapes = [(x.context, x.phi.source, x.phi.target) for x in (mapped, rhs)]
    failed = []
    if not (shapes[0] == shapes[1] and tm.is_morphism(mapped, rhs, p_src, p_tgt)
            and tm.psi_compatible(mapped, rhs, p_src, p_tgt)):
        failed.append("conjugation is not exact")

    killed = restrict_tmf(h, sc.base)
    sigma, d = sc.base.sigma, sc.base.d
    rhs2 = direct_sum_tmf(
        twist_tmf(t, sigma, d), twist_tmf(T_functor(t), sigma, d)
    )
    if killed != rhs2:
        failed.append("restriction is not exact")
    return Check("lemma-5-13", not failed, "; ".join(failed))


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
    # C(t) has source tw(G) + tau(F) and target F + tau(G); T(C(t)) swaps both
    swaps = []
    for module, first in ((c.phi.source, t.phi.target.rank), (c.phi.target, t.rank)):
        p, q = gm.summands(module, [first, module.rank - first])
        swaps.append(
            gm.block_matrix(
                [
                    [gm.zero_matrix(p, q), gm.identity_matrix(p)],
                    [gm.identity_matrix(q), gm.zero_matrix(q, p)],
                ]
            )
        )
    alpha, beta = swaps
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
    r = t.phi.source.rank
    pattern = [{0: ONE, 1: IMAG}, {0: IMAG, 1: ONE}]
    k_src = gm.block_scalar_matrix(c.phi.source, [r, r], pattern)
    k_tgt = gm.block_scalar_matrix(c.phi.target, [r, r], pattern)
    conj = tm.conjugate(c, k_src, k_tgt)
    top = list(range(r))
    bottom = list(range(r, 2 * r))
    for i in top:
        for j in bottom:
            if not conj.phi.entries[i][j].is_zero() or not conj.phi.entries[j][i].is_zero():
                raise InvariantViolation("conjugation did not block-diagonalize")
    t1, t2 = (
        TMF(cover, gm.submatrix(conj.phi, part, part), gm.submatrix(conj.psi, part, part))
        for part in (top, bottom)
    )
    for part in (t1, t2):
        _checked(part, "symmetric split summand")
    if direct_sum_tmf(t1, t2) != conj:
        raise InvariantViolation("summands do not reassemble the conjugate")
    return t1, t2
