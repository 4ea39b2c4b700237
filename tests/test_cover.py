import pytest

from tmfkit import gradedmod as gm
from tmfkit import tmf as tm
from tmfkit.cover import (
    assemble_blocks,
    lift_matrix,
    EquivariantModule,
    HypothesisViolation,
    InvariantViolation,
    c_image_symmetry_witness,
    check_lemma_5_13,
    check_lemma_5_5,
    delta_sigma,
    functor_A,
    functor_B,
    functor_C,
    functor_H,
    functor_Res,
    make_cover,
    second_cover,
    symmetric_split,
)
from tmfkit.gradedmod import FreeModule, GradedMatrix
from tmfkit.ncalgebra import GradedAutomorphism, hilbert_series
from tmfkit.scalars import Scalar
from tmfkit.tmf import (
    TMF,
    NormalContext,
    T_functor,
    coker_hilbert,
    direct_sum_tmf,
    irrelevant,
    is_symmetric,
    reduce,
    symmetric_root,
    trivial,
    verify,
)

from test_tmf import (
    case_c_context,
    case_c_tmf,
    case_d_rank2,
    case_g_context,
    case_g_tmf,
    case_h_tmf,
)


def test_make_cover_case_c():
    ctx = case_c_context()
    cover = make_cover(ctx)
    assert cover.algebra.names[-1] == "z"
    assert cover.ell == 3
    # f + z^2 is central here (sigma extended is the identity)
    assert cover.sigma.is_identity()
    assert cover.zeta(cover.x()) == -cover.x()


def test_make_cover_case_g_normality():
    ctx = case_g_context(2)
    cover = make_cover(ctx)
    # the cover rule carries tau^{-1}: z*a1 -> p^{-1} a1 z
    E = cover.algebra
    p = Scalar.t_power(-4)
    assert E.normal_form([3, 0]) == E.monomial((1, 0, 0, 1), p.inverse())


def test_make_cover_rejects_wrong_tau():
    ctx = case_g_context(2)
    A = ctx.algebra
    p_bad = Scalar.t_power(-4) * Scalar.t_power(1)
    tau_bad = GradedAutomorphism(
        A, [A.gen("a1").scale(p_bad), A.gen("a2"), A.gen("a3").scale(p_bad.inverse())]
    )
    bad_ctx = NormalContext(A, ctx.f, ctx.sigma, tau_bad, check=False)
    with pytest.raises(HypothesisViolation):
        make_cover(bad_ctx)


def test_functor_C_verifies_on_catalog():
    for t in [case_c_tmf(), case_h_tmf(), case_g_tmf(2, 1), case_d_rank2(3)]:
        cover = make_cover(t.context)
        out = functor_C(cover, t)
        assert verify(out).ok
        assert out.rank == 2 * t.rank


def test_functor_C_irrelevant():
    ctx = case_c_context()
    cover = make_cover(ctx)
    out = functor_C(cover, irrelevant(ctx))
    assert out.rank == 0


def test_res_after_C_is_lemma_5_5():
    for t in [case_c_tmf(), case_h_tmf(), case_g_tmf(2, 1), case_d_rank2(3)]:
        cover = make_cover(t.context)
        assert check_lemma_5_5(cover, t, functor_C(cover, t))


def test_res_of_trivial():
    ctx = case_c_context()
    cover = make_cover(ctx)
    t = trivial(cover.context, FreeModule(cover.algebra, (0, 2)), "unit-first")
    out = functor_Res(cover, t)
    assert verify(out).ok
    assert out.phi.entries == trivial(ctx, FreeModule(ctx.algebra, (0, 2)), "unit-first").phi.entries


def test_functor_B_invariants():
    t = case_c_tmf()
    cover = make_cover(t.context)
    m = functor_B(cover, t)
    assert m.rank == 4
    # z^2 = -f holds exactly (validated by the constructor; re-check here)
    square = gm.compose(
        gm.twist_matrix(m.z_action, cover.base.tau, cover.ell), m.z_action
    )
    assert square == gm.left_multiplication(m.module, -t.context.f, t.context.d)


def test_functor_A_inverts_B():
    for t in [case_c_tmf(), case_h_tmf(), case_g_tmf(2, 1), case_d_rank2(3)]:
        cover = make_cover(t.context)
        back = functor_A(cover, functor_B(cover, t))
        assert back.phi == t.phi
        assert back.psi == t.psi


def test_functor_A_rejects_zero_action():
    ctx = case_c_context()
    cover = make_cover(ctx)
    module = FreeModule(ctx.algebra, (0, 1))
    zero_z = gm.zero_matrix(module.twisted(cover.ell), module)
    with pytest.raises(InvariantViolation):
        EquivariantModule(cover, module, zero_z, (1, 1))


def test_functor_A_permuted_theta():
    # interleaved signature: A . B with the module generators permuted
    t = case_c_tmf()
    cover = make_cover(t.context)
    m = functor_B(cover, t)
    perm = [0, 2, 1, 3]
    shifts = tuple(m.module.shifts[p] for p in perm)
    module = FreeModule(m.module.algebra, shifts)
    entries = [[m.z_action.entries[p][q] for q in perm] for p in perm]
    z_action = GradedMatrix(module.twisted(cover.ell), module, entries)
    theta = tuple(m.theta[p] for p in perm)
    m2 = EquivariantModule(cover, module, z_action, theta)
    out = functor_A(cover, m2)
    assert verify(out).ok
    verdict = tm.probably_isomorphic_tmf(out, t, trials=8, seed=4)
    assert verdict.isomorphic


def test_delta_sigma_of_B_module():
    t = case_c_tmf()
    cover = make_cover(t.context)
    m = functor_B(cover, t)
    ds = delta_sigma(cover, m)
    assert verify(ds).ok
    # Prop: coker of C(t) has the Hilbert series of the underlying module
    D = 2 * t.context.d
    assert coker_hilbert(ds, D) == m.module.hilbert(D)
    assert coker_hilbert(functor_C(cover, t), D) == m.module.hilbert(D)


def test_delta_sigma_zero_module():
    ctx = case_c_context()
    cover = make_cover(ctx)
    A = ctx.algebra
    module = FreeModule(A, ())
    z_action = gm.zero_matrix(module.twisted(cover.ell), module)
    m = EquivariantModule(cover, module, z_action, ())
    ds = delta_sigma(cover, m)
    assert ds.rank == 0
    assert verify(ds).ok


def test_delta_sigma_free_module_not_reduced():
    # the rank-1 free cover module as 2-generator A-data: z acts by
    # z*e0 = e1, z*e1 = -f e0; its delta/sigma factorization splits a
    # trivial summand
    ctx = case_c_context()
    cover = make_cover(ctx)
    A = ctx.algebra
    module = FreeModule(A, (0, cover.ell))
    zero = A.zero()
    z_action = GradedMatrix(
        module.twisted(cover.ell),
        module,
        [[zero, A.one()], [-ctx.f, zero]],
    )
    m = EquivariantModule(cover, module, z_action, (1, -1))
    ds = delta_sigma(cover, m)
    assert verify(ds).ok
    assert not tm.is_reduced(ds)
    result = reduce(ds)
    assert result.unit_first + result.f_first > 0


def test_second_cover_change_of_variables():
    ctx = case_c_context()
    sc = second_cover(ctx)
    zw = sc.second.algebra
    ev = sc.uv.algebra
    z, w = zw.gen("z"), zw.gen("w")
    u, v = ev.gen("u"), ev.gen("v")
    # (z+iw)(z-iw) + (z-iw)(z+iw) = 2(z^2+w^2) since z, w commute here
    lhs = sc.from_uv(u * v + v * u)
    assert lhs == (z * z + w * w).scale(Scalar.from_int(2))
    # round trips on generators
    for g in range(zw.ngens):
        assert sc.from_uv(sc.to_uv(zw.gen(g))) == zw.gen(g)
    assert sc.from_uv(sc.uv.f_cover) == sc.second.f_cover


def test_functor_H_verifies():
    for t in [case_c_tmf(), case_g_tmf(2, 1), case_h_tmf()]:
        sc = second_cover(t.context)
        h = functor_H(sc, t)
        assert verify(h).ok
        assert h.rank == 2 * t.rank
    ctx = case_c_context()
    sc = second_cover(ctx)
    assert functor_H(sc, irrelevant(ctx)).rank == 0


def explicit_H(sc, t):
    """H(t) written out over k[...][u][v]:
    phi_h = [[sigma-tw phi, -v], [u, tau-tw psi]] and
    psi_h = [[sigma-tw psi, v], [-u, tau^3-tw phi]]."""
    E = sc.uv.algebra
    d = t.context.d
    ell = d // 2
    u, v = E.gen("u"), E.gen("v")
    sigma, tau = sc.uv.sigma, sc.uv.tau
    tau3 = tau.compose(tau).compose(tau)
    phi, psi = lift_matrix(t.phi, E), lift_matrix(t.psi, E)
    f_sh, g_sh = t.phi.source.shifts, t.phi.target.shifts
    FM = lambda *parts: FreeModule(E, tuple(s + k for sh, k in parts for s in sh))
    lam = lambda x, shifts, k: gm.left_multiplication(FM((shifts, k)), x, ell)

    src = FM((f_sh, d), (g_sh, 3 * ell))
    tgt = FM((g_sh, d), (f_sh, ell))
    phi_h = assemble_blocks(
        src,
        tgt,
        [
            [gm.twist_matrix(phi, sigma, d), -lam(v, f_sh, ell)],
            [lam(u, g_sh, d), gm.twist_matrix(psi, tau, ell)],
        ],
    )
    src2 = FM((g_sh, 2 * d), (f_sh, 3 * ell))
    psi_h = assemble_blocks(
        src2,
        src,
        [
            [gm.twist_matrix(psi, sigma, d), lam(v, g_sh, 3 * ell)],
            [-lam(u, f_sh, d), gm.twist_matrix(phi, tau3, 3 * ell)],
        ],
    )
    return TMF(sc.uv.context, phi_h, psi_h)


@pytest.mark.parametrize(
    "case, n",
    [("c", None), ("h", None), ("d-odd", 5), ("g", 3), ("b", 3), ("commutative-A1", None)],
)
def test_functor_H_matches_explicit_formula(case, n):
    # H is C's block construction over the u, v cover applied to tw(t);
    # pin its exact entries against the formula written out by hand
    from tmfkit.catalog import build

    entry = build(case, n)
    sc = second_cover(entry.context)
    for label in entry.labels():
        t = entry.factorization(label)
        assert functor_H(sc, t) == explicit_H(sc, t), label


def test_lemma_5_13_case_c():
    t = case_c_tmf()
    sc = second_cover(t.context)
    report = check_lemma_5_13(sc, t, functor_C(sc.first, t), functor_H(sc, t))
    assert report.conjugation_exact
    assert report.restriction_exact


def test_lemma_5_13_case_g():
    t = case_g_tmf(2, 1)
    sc = second_cover(t.context)
    report = check_lemma_5_13(sc, t, functor_C(sc.first, t), functor_H(sc, t))
    assert report.ok


def test_lemma_5_13_irrelevant():
    ctx = case_c_context()
    sc = second_cover(ctx)
    t = irrelevant(ctx)
    report = check_lemma_5_13(sc, t, functor_C(sc.first, t), functor_H(sc, t))
    assert report.ok


def test_c_image_is_symmetric_via_swap():
    for t in [case_c_tmf(), case_g_tmf(2, 1)]:
        cover = make_cover(t.context)
        alpha, beta = c_image_symmetry_witness(cover, t)
        c = functor_C(cover, t)
        assert tm.is_morphism(c, T_functor(c), alpha, beta)


def test_symmetric_split_case_d():
    # the (d) rank-2 printed pair is not in root form; extract the root first
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    root, _ = symmetric_root(t, (verdict.alpha, verdict.beta))
    cover = make_cover(t.context)
    t1, t2 = symmetric_split(cover, root)
    assert verify(t1).ok and verify(t2).ok
    assert t2 == T_functor(t1)


def test_symmetric_split_case_c_root():
    t = case_c_tmf()
    verdict = is_symmetric(t, trials=8, seed=6)
    assert verdict.isomorphic
    root, _ = symmetric_root(t, (verdict.alpha, verdict.beta))
    cover = make_cover(t.context)
    t1, t2 = symmetric_split(cover, root)
    assert direct_sum_tmf(t1, t2).rank == 2 * t.rank


def test_symmetric_split_rejects_asymmetric_form():
    t = case_c_tmf()
    cover = make_cover(t.context)
    with pytest.raises(tm.NotSymmetricForm):
        symmetric_split(cover, t)


def test_h_image_preserves_asymmetry():
    # T swaps the family index j <-> n-j, so (g) n=3 j=1 is asymmetric and
    # its Knorrer image stays asymmetric; n=2 j=1 is symmetric and so is its
    # image
    t_asym = case_g_tmf(3, 1)
    assert not is_symmetric(t_asym, trials=8, seed=7).isomorphic
    sc = second_cover(t_asym.context)
    h = functor_H(sc, t_asym)
    assert not is_symmetric(h, trials=8, seed=7).isomorphic
    t_sym = case_g_tmf(2, 1)
    assert is_symmetric(t_sym, trials=8, seed=7).isomorphic
    sc2 = second_cover(t_sym.context)
    assert is_symmetric(functor_H(sc2, t_sym), trials=8, seed=7).isomorphic


def test_zeta_conjugates_C_output():
    # applying zeta entrywise to C(t) equals conjugation by the theta
    # diagonal (z-linear entries flip sign)
    t = case_c_tmf()
    cover = make_cover(t.context)
    c = functor_C(cover, t)
    zeta_c = tm.TMF(
        cover.context,
        c.phi.map_entries(cover.zeta, cover.algebra),
        c.psi.map_entries(cover.zeta, cover.algebra),
    )
    assert verify(zeta_c).ok
    r = t.rank
    from tmfkit.cover import _block_scalar_matrix
    from tmfkit.scalars import MINUS_ONE, ONE

    pattern = [[ONE, Scalar.from_int(0)], [Scalar.from_int(0), MINUS_ONE]]
    d_src = _block_scalar_matrix(
        cover.algebra, [r, r], c.phi.source.shifts, pattern
    )
    d_tgt = _block_scalar_matrix(
        cover.algebra, [r, r], c.phi.target.shifts, pattern
    )
    assert tm.conjugate(c, d_src, d_tgt) == zeta_c


def test_case_d_rank4_is_tfixed():
    # the (phi_j, phi_j[-n-2]) family is in symmetric root form: T fixes it
    from tmfkit.catalog import build

    entry = build("d-odd", 3)
    t = entry.factorization("j=1")
    assert tm.in_root_form(t)
    assert T_functor(t) == t
    verdict = is_symmetric(t, trials=4, seed=11)
    assert verdict.isomorphic
    cover = make_cover(t.context)
    t1, t2 = symmetric_split(cover, t)
    assert verify(t1).ok and verify(t2).ok


def test_cover_hilbert_series():
    # an Ore extension multiplies the Hilbert series by 1/(1 - s^ell)
    ctx = case_g_context(2)
    cover = make_cover(ctx)
    base_hs = hilbert_series(ctx.algebra, 8)
    cover_hs = hilbert_series(cover.algebra, 8)
    ell = cover.ell
    expect = list(base_hs)
    for e in range(ell, 9):
        expect[e] += cover_hs[e - ell]
    assert cover_hs == expect


def test_map_tmf_of_rank_zero_lands_over_the_target():
    # a rank-0 factorization has no entries, so the target algebra comes
    # from the context alone
    ctx = case_c_context()
    cover = make_cover(ctx)
    t = irrelevant(cover.context)
    down = tm.map_tmf(t, lambda e: e.restrict(ctx.algebra), ctx)
    assert down.context == ctx
    for mat in (down.phi, down.psi):
        assert mat.source.algebra == ctx.algebra
        assert mat.target.algebra == ctx.algebra
        assert mat.source.rank == 0 and mat.target.rank == 0
    assert verify(down).ok
