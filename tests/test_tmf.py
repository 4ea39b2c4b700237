import ast
import json
import random
from pathlib import Path

import pytest

from tmfkit import gradedmod as gm
from tmfkit import tmf as tm
from tmfkit.cli import context_from_json, matrix_from_json, tmf_to_json
from tmfkit.gradedmod import FreeModule, GradedMatrix
from tmfkit.ncalgebra import (
    GradedAutomorphism,
    normalizing_automorphism,
    parse_poly,
)
from tmfkit.scalars import MINUS_ONE, ONE, Scalar, parse_scalar
from tmfkit.tmf import (
    NormalContext,
    TMF,
    T_functor,
    coker_hilbert,
    conjugate,
    direct_sum_tmf,
    endomorphism_dimension,
    irrelevant,
    is_reduced,
    is_symmetric,
    probably_isomorphic_tmf,
    reduce,
    shift_tmf,
    symmetric_root,
    trivial,
    tw_functor,
    twist_tmf,
    verify,
)

from test_ncalgebra import case_c_algebra, case_g_algebra, case_h_algebra

S = parse_scalar


def case_c_context():
    A = case_c_algebra()
    f = parse_poly("a2^2 - a1^6", A)
    ident = GradedAutomorphism.identity(A)
    return NormalContext(A, f, ident, ident)


def case_c_tmf():
    ctx = case_c_context()
    A = ctx.algebra
    F = FreeModule(A, (4, 3))
    G = FreeModule(A, (1, 0))
    phi = GradedMatrix(
        F, G,
        [[parse_poly("a2", A), parse_poly("-a1^4", A)],
         [parse_poly("-a1^2", A), parse_poly("a2", A)]],
    )
    psi = GradedMatrix(
        FreeModule(A, (7, 6)), F,
        [[parse_poly("a2", A), parse_poly("a1^4", A)],
         [parse_poly("a1^2", A), parse_poly("a2", A)]],
    )
    return TMF(ctx, phi, psi)


def case_h_context():
    A = case_h_algebra()
    f = parse_poly("a2^2 - a1*a2 - a1*a3", A)
    sigma = normalizing_automorphism(f)
    tau = GradedAutomorphism(
        A,
        [parse_poly("a1", A), parse_poly("a1+a2", A), parse_poly("2*a1+2*a2+a3", A)],
    )
    return NormalContext(A, f, sigma, tau)


def case_h_printed_matrices(ctx):
    A = ctx.algebra
    F = FreeModule(A, (1, 1))
    G = FreeModule(A, (0, 0))
    phi_p = GradedMatrix(
        F, G,
        [[parse_poly("-a3", A), parse_poly("-a1-a2", A)],
         [parse_poly("a2", A), parse_poly("a1", A)]],
    )
    psi_p = GradedMatrix(
        FreeModule(A, (2, 2)), F,
        [[parse_poly("a1", A), parse_poly("a1+a2", A)],
         [parse_poly("-2*a1-a2", A), parse_poly("-2*a1-2*a2-a3", A)]],
    )
    return phi_p, psi_p


def case_h_tmf():
    """Printed (h) matrices verify with the roles of phi and psi swapped."""
    ctx = case_h_context()
    phi_p, psi_p = case_h_printed_matrices(ctx)
    return TMF(ctx, psi_p, gm.shift_matrix(phi_p, -ctx.d))


def case_d_context(n):
    assert n % 2 == 1
    sign = Scalar.from_int(4 * (-1) ** ((n + 1) // 2))
    A_rules = {
        (1, 0): [(ONE, (1, 1, 0))],
        (2, 0): [(MINUS_ONE, (1, 0, 1)), (sign, (0, (n + 1) // 2, 0))],
        (2, 1): [(ONE, (0, 1, 1))],
    }
    from tmfkit.ncalgebra import GradedAlgebra

    A = GradedAlgebra([("a1", n), ("a2", 4), ("a3", n + 2)], A_rules)
    f = parse_poly("a3^2 + a2*a1^2", A)
    ident = GradedAutomorphism.identity(A)
    return NormalContext(A, f, ident, ident)


def case_d_rank2(n=3):
    ctx = case_d_context(n)
    A = ctx.algebra
    F = FreeModule(A, (2 * n, n + 2))
    G = FreeModule(A, (n - 2, 0))
    phi = GradedMatrix(
        F, G,
        [[parse_poly("a3", A), parse_poly("a1^2", A)],
         [parse_poly("-a2", A), parse_poly("a3", A)]],
    )
    psi = GradedMatrix(
        FreeModule(A, (3 * n + 2, 2 * n + 4)), F,
        [[parse_poly("a3", A), parse_poly("-a1^2", A)],
         [parse_poly("a2", A), parse_poly("a3", A)]],
    )
    return TMF(ctx, phi, psi)


def case_g_context(n):
    A = case_g_algebra(n)
    q = Scalar.t_power(2)
    p = Scalar.t_power(-n * n)
    delta = -(n * (n - 1) // 2)
    f = A.monomial((1, 0, 1)) - A.monomial((0, n, 0), q ** delta)
    sigma = GradedAutomorphism(
        A,
        [A.gen("a1").scale(q ** (-n * n)), A.gen("a2"), A.gen("a3").scale(q ** (n * n))],
    )
    tau = GradedAutomorphism(
        A, [A.gen("a1").scale(p), A.gen("a2"), A.gen("a3").scale(p.inverse())]
    )
    return NormalContext(A, f, sigma, tau)


def case_g_tmf(n, j):
    ctx = case_g_context(n)
    A = ctx.algebra
    q = Scalar.t_power(2)
    binom = n * (n - 1) // 2
    F = FreeModule(A, (n + j, 2 * n - j))
    G = FreeModule(A, (n - j, j))
    phi = GradedMatrix(
        F, G,
        [[A.monomial((0, j, 0), -(q ** (binom + j - n * j))), A.gen("a1")],
         [A.gen("a3").scale(-(q ** (-n * (n - j)))),
          A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1)))]],
    )
    psi = GradedMatrix(
        FreeModule(A, (n - j + 2 * n, j + 2 * n)), F,
        [[A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1))),
          A.gen("a1").scale(-(q ** (n * (n - j))))],
         [A.gen("a3").scale(q ** (-n * n)),
          A.monomial((0, j, 0), -(q ** (binom + j - n * j)))]],
    )
    return TMF(ctx, phi, psi)


# ---------------------------------------------------------------------------


def test_trivial_and_irrelevant_verify():
    ctx = case_c_context()
    A = ctx.algebra
    t0 = irrelevant(ctx)
    assert verify(t0).ok
    t1 = trivial(ctx, FreeModule(A, (0,)), "unit-first")
    assert verify(t1).ok
    assert t1.phi.entries[0][0] == A.one()
    assert t1.psi.entries[0][0] == ctx.f
    t2 = trivial(ctx, FreeModule(A, (0,)), "f-first")
    assert verify(t2).ok
    assert t2.phi.entries[0][0] == ctx.f
    assert t2.phi.source.shifts == (ctx.d,)


def test_case_c_verifies_as_printed():
    t = case_c_tmf()
    report = verify(t)
    assert report.ok, report.checks
    assert gm.compose(t.psi, t.phi) == tm.lambda_matrix(t.context, t.phi.target)


def test_case_c_table1_alias_is_minus_f():
    # Table 1 prints a1^6 - a2^2; the engine sees the product as -f then
    t = case_c_tmf()
    flipped = TMF(t.context, t.phi.scale(MINUS_ONE), t.psi)
    assert gm.compose(flipped.psi, flipped.phi) == tm.lambda_matrix(
        t.context, t.phi.target
    ).scale(MINUS_ONE)


def test_verify_detects_sign_flip():
    t = case_c_tmf()
    entries = [list(r) for r in t.phi.entries]
    entries[0][1] = -entries[0][1]
    bad = TMF(t.context, GradedMatrix(t.phi.source, t.phi.target, entries), t.psi)
    report = verify(bad)
    assert not report.ok
    assert not report.residual_one.entries[0][1].is_zero()


def test_case_h_orientation():
    ctx = case_h_context()
    phi_p, psi_p = case_h_printed_matrices(ctx)
    as_printed = TMF(ctx, phi_p, psi_p)
    assert not verify(as_printed).ok
    swapped = case_h_tmf()
    assert verify(swapped).ok


def test_case_g_verifies_n2_n3():
    for (n, j) in [(2, 1), (3, 1), (3, 2)]:
        t = case_g_tmf(n, j)
        report = verify(t)
        assert report.ok, (n, j, report.checks)


def test_case_d_rank2_verifies():
    for n in (3, 5):
        assert verify(case_d_rank2(n)).ok


def test_tw_functor():
    ctx = case_c_context()
    A = ctx.algebra
    F = FreeModule(A, (1,))
    # trivial unit-first maps to the f-first form
    t = trivial(ctx, F, "unit-first")
    assert tw_functor(t) == trivial(ctx, F, "f-first")
    # on case (c), sigma = id so tw swaps phi and psi up to shift
    c = case_c_tmf()
    swapped = tw_functor(c)
    assert verify(swapped).ok
    assert swapped.phi == c.psi
    assert swapped.psi == gm.shift_matrix(c.phi, -ctx.d)
    # tw twice is the (sigma, d) twist of the whole factorization
    assert tw_functor(tw_functor(c)) == twist_tmf(c, ctx.sigma, ctx.d)


def test_T_functor_squares_to_identity():
    for t in [case_h_tmf(), case_c_tmf(), case_g_tmf(2, 1), case_d_rank2(3)]:
        Tt = T_functor(t)
        assert verify(Tt).ok
        assert T_functor(Tt) == t


def test_tau_twist_twice_is_tw():
    t = case_g_tmf(2, 1)
    ctx = t.context
    once = twist_tmf(t, ctx.tau, ctx.ell)
    assert twist_tmf(once, ctx.tau, ctx.ell) == twist_tmf(t, ctx.sigma, ctx.d)


def test_verify_preserved_by_functors():
    t = case_g_tmf(2, 1)
    ctx = t.context
    assert verify(shift_tmf(t, 3)).ok
    assert verify(tw_functor(t)).ok
    assert verify(T_functor(t)).ok
    s = direct_sum_tmf(t, trivial(ctx, FreeModule(ctx.algebra, (2, 5)), "f-first"))
    assert verify(s).ok


def test_reduce_examples():
    ctx = case_c_context()
    A = ctx.algebra
    t1 = trivial(ctx, FreeModule(A, (0,)), "unit-first")
    result = reduce(t1)
    assert result.reduced.rank == 0
    assert result.unit_first == 1 and result.f_first == 0
    c = case_c_tmf()
    assert is_reduced(c)
    result = reduce(c)
    assert result.reduced == c and result.unit_first == 0 and result.f_first == 0
    mixed = direct_sum_tmf(
        direct_sum_tmf(c, trivial(ctx, FreeModule(A, (2,)), "unit-first")),
        trivial(ctx, FreeModule(A, (1,)), "f-first"),
    )
    result = reduce(mixed)
    assert result.unit_first == 1 and result.f_first == 1
    assert result.reduced == c
    again = reduce(result.reduced)
    assert again.reduced == result.reduced


def test_library_has_no_assert_statements():
    # checks must survive python -O, so they raise typed errors instead
    package = Path(tm.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert on lines {asserts}"


def interleaved_input():
    """(c) plus a unit-first summand, its unit row mixed into another row by
    a unipotent conjugation."""
    ctx = case_c_context()
    A = ctx.algebra
    mixed = direct_sum_tmf(case_c_tmf(), trivial(ctx, FreeModule(A, (3,)), "unit-first"))
    # shifts (4, 3, 3): adding row 2 to row 1 is a degree-0 change of basis
    alpha_entries = [list(r) for r in gm.identity_matrix(mixed.phi.source).entries]
    alpha_entries[1][2] = A.one()
    alpha = GradedMatrix(mixed.phi.source, mixed.phi.source, alpha_entries)
    return conjugate(mixed, alpha, gm.identity_matrix(mixed.phi.target))


def mixed_sum():
    """(c) with a unit-first and an f-first trivial summand."""
    ctx = case_c_context()
    A = ctx.algebra
    return direct_sum_tmf(
        direct_sum_tmf(case_c_tmf(), trivial(ctx, FreeModule(A, (2,)), "unit-first")),
        trivial(ctx, FreeModule(A, (1,)), "f-first"),
    )


def test_reduce_interleaved_units():
    # a trivial summand hidden by a change of basis is still split off
    twisted = interleaved_input()
    assert verify(twisted).ok
    result = reduce(twisted)
    assert result.unit_first == 1
    assert result.reduced.rank == 2


def test_reduce_forms_no_inverse_and_no_conjugate(monkeypatch):
    twisted = interleaved_input()
    mixed = mixed_sum()

    def refuse(*args):
        raise AssertionError("reduce must not invert or conjugate")

    monkeypatch.setattr(gm, "is_invertible", refuse)
    monkeypatch.setattr(tm, "conjugate", refuse)
    result = reduce(twisted)
    assert (result.unit_first, result.f_first, result.reduced.rank) == (1, 0, 2)
    result = reduce(mixed)
    assert (result.unit_first, result.f_first) == (1, 1)
    assert result.reduced == case_c_tmf()


def test_reduce_raises_when_a_schur_entry_is_wrong(monkeypatch):
    split_off = tm._split_off

    def perturbed(mat, i, j, other):
        schur, rest = split_off(mat, i, j, other)
        rows = [list(row) for row in schur.entries]
        rows[0][0] = rows[0][0] + rows[0][0]
        return GradedMatrix(schur.source, schur.target, rows), rest

    monkeypatch.setattr(tm, "_split_off", perturbed)
    with pytest.raises(tm.OracleMismatch, match="broke the factorization identities"):
        reduce(mixed_sum())


def test_reduce_refuses_a_factorization_that_fails_to_verify():
    t = case_c_tmf()
    rows = [list(row) for row in t.psi.entries]
    rows[0][0] = -rows[0][0]
    bad = TMF(t.context, t.phi, GradedMatrix(t.psi.source, t.psi.target, rows))
    assert not verify(bad).ok
    with pytest.raises(ValueError, match="verified"):
        reduce(bad)


def _clearing_pair(mat, i, j):
    """Unipotent (row_ops, col_ops) with row_ops*MAT*col_ops having the pivot
    as the only nonzero entry in its row and column."""
    c_inv = mat.entries[i][j].constant_term().inverse()
    rows = [list(r) for r in gm.identity_matrix(mat.source).entries]
    for i2 in range(mat.source.rank):
        if i2 != i and not mat.entries[i2][j].is_zero():
            rows[i2][i] = -(mat.entries[i2][j].scale(c_inv))
    cols = [list(r) for r in gm.identity_matrix(mat.target).entries]
    for j2 in range(mat.target.rank):
        if j2 != j and not mat.entries[i][j2].is_zero():
            cols[j][j2] = -(mat.entries[i][j2].scale(c_inv))
    return (
        GradedMatrix(mat.source, mat.source, rows),
        GradedMatrix(mat.target, mat.target, cols),
    )


def _slice_tmf(t, drop_f, drop_g):
    keep_f = [i for i in range(t.phi.source.rank) if i != drop_f]
    keep_g = [j for j in range(t.phi.target.rank) if j != drop_g]
    phi = gm.submatrix(t.phi, keep_f, keep_g)
    psi = gm.submatrix(t.psi, keep_g, keep_f)
    return TMF(t.context, phi, psi)


def _assert_cleared(mat, i, j):
    """Row i and column j of MAT vanish outside (i, j)."""
    assert all(mat.entries[i][c].is_zero() for c in range(mat.target.rank) if c != j)
    assert all(mat.entries[r][j].is_zero() for r in range(mat.source.rank) if r != i)


def reduce_reference(t):
    """The conjugation-based reduction: clear a unit's row and column with
    unipotent matrices, conjugate by them (inverting each), check the zero
    blocks and slice the trivial summand off."""
    current = t
    unit_first = 0
    f_first = 0
    while True:
        pivot = tm._find_unit(current.phi)
        if pivot is not None:
            i, j = pivot
            row_ops, col_ops = _clearing_pair(current.phi, i, j)
            ok, row_inv = gm.is_invertible(row_ops)
            assert ok
            current = conjugate(current, row_inv, col_ops)
            _assert_cleared(current.phi, i, j)
            _assert_cleared(current.psi, j, i)
            current = _slice_tmf(current, i, j)
            unit_first += 1
            continue
        pivot = tm._find_unit(current.psi)
        if pivot is not None:
            k, i0 = pivot  # psi: twG (index k) -> F (index i0)
            row_ops, col_ops = _clearing_pair(current.psi, k, i0)
            ok, row_inv = gm.is_invertible(row_ops)
            assert ok
            # a basis change of twG comes from one of G via the inverse twist
            ctx = current.context
            beta = gm.twist_matrix(row_inv, ctx.sigma.inverse(), -ctx.d)
            current = conjugate(current, col_ops, beta)
            _assert_cleared(current.phi, i0, k)
            current = _slice_tmf(current, i0, k)
            f_first += 1
            continue
        break
    assert verify(current).ok
    return tm.ReduceResult(current, unit_first, f_first)


DIFFERENTIAL_CASES = (
    ("c", None), ("h", None), ("g", 2), ("g", 3), ("d-odd", 3), ("d-odd", 5),
    ("b", 3), ("commutative-A1", None),
)


def _unipotent(module, rng, marked):
    """A product of up to three elementary matrices I + p*E_ab on MODULE,
    each pairing a MARKED index with another, and p a random monomial term
    of degree shift_a - shift_b >= 0."""
    A = module.algebra
    out = gm.identity_matrix(module)
    for _ in range(3):
        a = rng.choice(marked)
        b = rng.choice([x for x in range(module.rank) if x != a])
        if module.shifts[a] < module.shifts[b]:
            a, b = b, a
        monos = A.monomials_of_degree(module.shifts[a] - module.shifts[b])
        if not monos:
            continue
        rows = [list(r) for r in gm.identity_matrix(module).entries]
        rows[a][b] = A.monomial(rng.choice(monos), Scalar.from_int(rng.choice((-2, -1, 1, 3))))
        out = gm.compose(out, GradedMatrix(module, module, rows))
    return out


def differential_input(entries, rng):
    """A catalog family summed, in random order, with 1-3 trivial summands of
    random kinds and shifts; half the time conjugated on both sides by
    unipotent matrices that mix the trivial summands' rows and columns with
    the others, so their units share a row or column with other entries."""
    entry = rng.choice(entries)
    family = entry.factorization(rng.choice(entry.labels()))
    ctx = family.context
    kinds = ("unit-first", "f-first")
    pieces = [family] + [
        trivial(ctx, FreeModule(ctx.algebra, (rng.randrange(-2, 7),)), rng.choice(kinds))
        for _ in range(rng.randrange(1, 4))
    ]
    rng.shuffle(pieces)
    t = pieces[0]
    marked = [0] if t is not family else []
    for piece in pieces[1:]:
        if piece is not family:
            marked.append(t.rank)
        t = direct_sum_tmf(t, piece)
    hidden = rng.random() < 0.5
    if hidden:
        alpha = _unipotent(t.phi.source, rng, marked)
        t = conjugate(t, alpha, _unipotent(t.phi.target, rng, marked))
    return t, hidden


def test_reduce_matches_the_conjugation_reference():
    from tmfkit.catalog import build

    entries = [build(case, n) for case, n in DIFFERENTIAL_CASES]
    rng = random.Random(20)
    pivots = set()
    hidden_splits = 0
    for _ in range(220):
        t, hidden = differential_input(entries, rng)
        assert verify(t).ok
        got = reduce(t)
        want = reduce_reference(t)
        assert got == want
        if got.unit_first:
            pivots.add("phi")
        if got.f_first:
            pivots.add("psi")
        if hidden and got.unit_first + got.f_first:
            hidden_splits += 1
    assert pivots == {"phi", "psi"}
    assert hidden_splits > 0


def test_conjugate_roundtrip():
    t = case_g_tmf(3, 2)
    A = t.context.algebra
    alpha = gm.identity_matrix(t.phi.source)
    entries = [list(r) for r in alpha.entries]
    entries[0][0] = A.one().scale(S("t^2"))
    alpha = GradedMatrix(t.phi.source, t.phi.source, entries)
    beta = gm.identity_matrix(t.phi.target)
    moved = conjugate(t, alpha, beta)
    assert verify(moved).ok
    ok, alpha_inv = gm.is_invertible(alpha)
    back = conjugate(moved, alpha_inv, beta)
    assert back == t


def test_endomorphism_dimension_case_c():
    t = case_c_tmf()
    assert endomorphism_dimension(t) == 1


def test_hom_trivial_pair():
    ctx = case_c_context()
    A = ctx.algebra
    t_unit = trivial(ctx, FreeModule(A, (0,)), "unit-first")
    t_f = trivial(ctx, FreeModule(A, (0,)), "f-first")
    # Hom(f-first, unit-first) contains the lambda_f-induced pair (f, 1)
    space = tm.hom_space(t_f, t_unit)
    assert len(space) >= 1
    alpha = GradedMatrix(t_f.phi.source, t_unit.phi.source, [[ctx.f]])
    beta = gm.identity_matrix(t_unit.phi.target)
    assert tm.is_morphism(t_f, t_unit, alpha, beta)


def test_is_symmetric_case_d():
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    assert verdict.isomorphic


def test_symmetric_root_case_d():
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    root, beta_p = symmetric_root(t, (verdict.alpha, verdict.beta))
    assert verify(root).ok
    assert tm.in_root_form(root)
    # (id, beta') is an isomorphism t -> root
    assert tm.is_morphism(t, root, gm.identity_matrix(t.phi.source), beta_p)


def test_symmetric_root_fixed_point():
    # an input already in root form with iso (id, id) comes back unchanged
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    root, _ = symmetric_root(t, (verdict.alpha, verdict.beta))
    ident_a = gm.identity_matrix(root.phi.source)
    ident_b = gm.identity_matrix(root.phi.target)
    again, _ = symmetric_root(root, (ident_a, ident_b))
    assert again == root


def test_symmetric_root_rescaling():
    # scaling the witness by 2 makes c = 4; rescaling by sqrt brings it back
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    two = Scalar.from_int(2)
    root, _ = symmetric_root(t, (verdict.alpha.scale(two), verdict.beta.scale(two)))
    assert verify(root).ok


def test_symmetric_root_c_is_minus_one():
    # a witness scaled by i has c = -1; try_sqrt(-1) = i fixes the scale
    t = case_d_rank2(3)
    verdict = is_symmetric(t, trials=8, seed=5)
    imag = parse_scalar("i")
    root, _ = symmetric_root(
        t, (verdict.alpha.scale(imag), verdict.beta.scale(imag))
    )
    assert verify(root).ok
    assert tm.in_root_form(root)


def test_single_eigenvalue_reads_the_scalar_part():
    A = case_c_algebra()
    a1 = A.gen("a1")
    two, three = Scalar.from_int(2), Scalar.from_int(3)
    F = FreeModule(A, (0, 0, 1))
    # a Jordan block of 2 beside a 2 on another shift; a1 is not scalar
    z = A.zero()
    jordan = GradedMatrix(
        F, F, [[A.scalar(two), A.one(), z], [z, A.scalar(two), z], [a1, a1, A.scalar(two)]]
    )
    assert tm._single_eigenvalue(jordan) == two
    split = GradedMatrix(
        F, F, [[A.scalar(two), z, z], [z, A.scalar(three), z], [a1, a1, A.scalar(two)]]
    )
    with pytest.raises(tm.MultiEigenvalue):
        tm._single_eigenvalue(split)


def test_coker_hilbert_trivial():
    ctx = case_c_context()
    A = ctx.algebra
    t = trivial(ctx, FreeModule(A, (0, 2)), "unit-first")
    assert coker_hilbert(t, 8) == [0] * 9
    tf = trivial(ctx, FreeModule(A, (0,)), "f-first")
    from tmfkit.ncalgebra import hilbert_series

    hs_a = hilbert_series(A, 8)
    hs_b = [hs_a[e] - (hs_a[e - 6] if e >= 6 else 0) for e in range(9)]
    assert coker_hilbert(tf, 8) == hs_b


def test_coker_hilbert_case_g():
    # both methods agree; for n=2, j=1 the G-generators share a degree so
    # the first nonzero value of the (1-shifted) cokernel series is 2
    t = case_g_tmf(2, 1)
    series = coker_hilbert(t, 8)
    assert series[1] == 2
    # for n=3, j=1 the j-shifted normalization starts with dimension 1
    t31 = case_g_tmf(3, 1)
    assert coker_hilbert(shift_tmf(t31, 1), 4)[0] == 1
    # shifting shifts the series
    assert coker_hilbert(shift_tmf(t, 1), 7) == series[1:]


def test_probably_isomorphic_tmf_self():
    t = case_g_tmf(3, 1)
    verdict = probably_isomorphic_tmf(t, t, trials=4, seed=3)
    assert verdict.isomorphic


def test_g_distinct_j_not_isomorphic():
    t1 = case_g_tmf(3, 1)
    t2 = case_g_tmf(3, 2)
    verdict = probably_isomorphic_tmf(t1, t2, trials=8, seed=9)
    assert not verdict.isomorphic


def a1_sums() -> tuple[TMF, TMF]:
    """Over commutative-A1 (f = xy): (x, y) + (y, x) and (x, y) + (x, y).
    They have the same shifts and a 2-dimensional Hom space, and they are
    not isomorphic: row 2 of every alpha in that space is zero."""
    from tmfkit.catalog import build

    ctx = build("commutative-A1").context
    A = ctx.algebra
    x, y = A.gen("x"), A.gen("y")
    F = FreeModule(A, (1,))

    def pair(a, b):
        return TMF(
            ctx,
            GradedMatrix(F, FreeModule(A, (0,)), [[a]]),
            GradedMatrix(FreeModule(A, (2,)), F, [[b]]),
        )

    return direct_sum_tmf(pair(x, y), pair(y, x)), direct_sum_tmf(pair(x, y), pair(x, y))


def test_probably_isomorphic_tmf_exhausts_its_trials_on_a_sampled_negative():
    t1, t2 = a1_sums()
    assert verify(t1).ok and verify(t2).ok
    assert t1.phi.source == t2.phi.source and t1.phi.target == t2.phi.target
    assert len(tm.hom_space(t1, t2)) == 2
    verdict = probably_isomorphic_tmf(t1, t2, trials=8, seed=0)
    assert not verdict.isomorphic
    assert verdict.failures == 8 and verdict.alpha is None


def test_probably_isomorphic_tmf_rejects_different_contexts():
    # same algebra, f and sigma, but one context has tau and one has not:
    # the factorizations are incomparable, so there is no verdict to give
    t = case_g_tmf(3, 1)
    ctx = t.context
    assert ctx.tau is not None
    bare = NormalContext(ctx.algebra, ctx.f, ctx.sigma)
    with pytest.raises(tm.ContextMismatch, match="different contexts"):
        probably_isomorphic_tmf(t, TMF(bare, t.phi, t.psi), trials=4, seed=3)
    with pytest.raises(tm.ContextMismatch):
        probably_isomorphic_tmf(case_c_tmf(), t, trials=4, seed=3)


def test_json_roundtrip():
    t = case_c_tmf()
    back = json.loads(json.dumps(tmf_to_json(t)))
    ctx = context_from_json(back["context"], ".")
    assert ctx == t.context
    phi = matrix_from_json(back["phi"], ctx.algebra)
    assert phi.entries == t.phi.entries


# ---------------------------------------------------------------------------
# verify: one report per factorization, residuals seeded with -f
# ---------------------------------------------------------------------------

CATALOG_FAMILIES = [
    ("b", 3), ("c", None), ("d-odd", 5), ("g", 3), ("h", None), ("commutative-A1", None)
]


def reference_residuals(t):
    """The residuals as products less a separately built f*I."""
    ctx = t.context
    res1 = gm.compose(t.psi, t.phi) - tm.lambda_matrix(ctx, t.phi.target)
    tw_phi = gm.twist_matrix(t.phi, ctx.sigma, ctx.d)
    res2 = gm.compose(tw_phi, t.psi) - tm.lambda_matrix(ctx, t.phi.source)
    return res1.is_zero() and res2.is_zero(), res1, res2


def negate_one_entry(t, rng):
    """A copy of t with one nonzero entry of phi or psi negated."""
    cells = [
        (name, i, j)
        for name in ("phi", "psi")
        for i, row in enumerate(getattr(t, name).entries)
        for j, entry in enumerate(row)
        if not entry.is_zero()
    ]
    name, i, j = rng.choice(cells)
    mat = getattr(t, name)
    rows = [list(row) for row in mat.entries]
    rows[i][j] = -rows[i][j]
    broken = GradedMatrix(mat.source, mat.target, rows, check=False)
    phi, psi = (broken, t.psi) if name == "phi" else (t.phi, broken)
    return TMF(t.context, phi, psi, strict=False)


def test_verify_report_is_stored_on_the_factorization():
    t = case_c_tmf()
    report = verify(t)
    assert verify(t) is report
    assert isinstance(report.checks, tuple)
    with pytest.raises(AttributeError):
        report.ok = False
    # an equal but distinct factorization is verified on its own, to an
    # equal report
    other = case_c_tmf()
    assert other == t and other is not t
    assert verify(other) is not report
    assert verify(other) == report
    bad = negate_one_entry(t, random.Random(1))
    assert verify(bad) != report and not verify(bad).ok


def test_verify_residuals_match_products_less_f_times_identity():
    from tmfkit.catalog import build

    rng = random.Random(20261018)
    for case, n in CATALOG_FAMILIES:
        entry = build(case, n)
        for label in entry.labels():
            t = entry.factorization(label)
            for candidate in [t] + [negate_one_entry(t, rng) for _ in range(3)]:
                ok, res1, res2 = reference_residuals(candidate)
                assert ok == (candidate is t), (case, label)
                report = verify(candidate)
                assert report.ok == ok, (case, label)
                assert report.residual_one == res1, (case, label)
                assert report.residual_two == res2, (case, label)


def test_failed_identity_names_its_first_nonzero_residual():
    from tmfkit.catalog import build, d_rank4_phi

    entry = build("d-odd", 3)
    phi = d_rank4_phi(entry.algebra, 3, 1, printed_sign=True)
    t = TMF(entry.context, phi, gm.shift_matrix(phi, -5), strict=False)
    report = verify(t)
    details = {name: detail for name, _, detail in report.checks}
    assert details["identity-1"] == (
        "compose(psi, phi) != f*I; first nonzero residual at (1,3): 8*a2^3"
    )
    assert details["identity-2"].startswith("compose(tw(phi), psi) != f*I; first nonzero")
    # a passing check keeps an empty detail
    flipped = d_rank4_phi(entry.algebra, 3, 1, printed_sign=False)
    good = verify(TMF(entry.context, flipped, gm.shift_matrix(flipped, -5), strict=False))
    assert good.ok and all(detail == "" for _, _, detail in good.checks)


def test_check_homogeneous_catches_one_off_degree_term():
    t = case_c_tmf()
    assert verify(t).ok  # fills the algebra's degree memo
    A = t.context.algebra
    rows = [list(row) for row in t.phi.entries]
    rows[0][0] = rows[0][0] + A.gen("a1")
    bad = GradedMatrix(t.phi.source, t.phi.target, rows, check=False)
    with pytest.raises(gm.DegreeMismatch, match=r"entry \(0,0\)"):
        bad.check_homogeneous()
    report = verify(TMF(t.context, bad, t.psi, strict=False))
    assert not report.ok and report.failed() == ["homogeneous:phi"]


def test_coker_hilbert_rejects_a_factorization_that_fails_to_verify():
    bad = negate_one_entry(case_c_tmf(), random.Random(2))
    assert not verify(bad).ok
    with pytest.raises(ValueError, match="verified factorization"):
        coker_hilbert(bad, 4)
