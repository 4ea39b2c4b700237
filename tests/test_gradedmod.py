import random

import pytest

from tmfkit import linalg
from tmfkit.catalog import build
from tmfkit.cover import LEMMA_5_13_PATTERN, functor_C, functor_H, make_cover
from tmfkit.gradedmod import (
    DegreeMismatch,
    FreeModule,
    GradedMatrix,
    ShapeMismatch,
    block_matrix,
    block_scalar_matrix,
    compose,
    direct_sum,
    identity_matrix,
    is_invertible,
    left_multiplication,
    probably_isomorphic,
    scalar_matrix,
    scalar_part,
    shift_matrix,
    solve_intertwiners,
    twist_matrix,
    zero_matrix,
)
from tmfkit.ncalgebra import (
    AlgebraMismatch,
    GradedAutomorphism,
    RewriteLimitExceeded,
    parse_poly,
)
from tmfkit.scalars import MINUS_ONE, ONE, ZERO, Scalar, parse_scalar

from test_linalg import sparse
from test_ncalgebra import case_g_algebra, case_h_algebra

S = parse_scalar


def case_g_phi_psi(n=2, j=1):
    """Printed factorization matrices for case (g)."""
    A = case_g_algebra(n)
    q = Scalar.t_power(2)
    F = FreeModule(A, (n + j, 2 * n - j))
    G = FreeModule(A, (n - j, j))
    binom = n * (n - 1) // 2
    phi = GradedMatrix(
        F,
        G,
        [
            [A.monomial((0, j, 0), -(q ** (binom + j - n * j))), A.gen("a1")],
            [
                A.gen("a3").scale(-(q ** (-n * (n - j)))),
                A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1))),
            ],
        ],
    )
    d = 2 * n
    psi = GradedMatrix(
        FreeModule(A, (n - j + d, j + d)),
        F,
        [
            [
                A.monomial((0, n - j, 0), q ** ((j - n) * (n - 1))),
                A.gen("a1").scale(-(q ** (n * (n - j)))),
            ],
            [
                A.gen("a3").scale(q ** (-n * n)),
                A.monomial((0, j, 0), -(q ** (binom + j - n * j))),
            ],
        ],
    )
    return A, phi, psi


def test_homogeneity_enforced():
    A = case_h_algebra()
    F = FreeModule(A, (1, 1))
    G = FreeModule(A, (0, 0))
    with pytest.raises(DegreeMismatch):
        GradedMatrix(F, G, [[A.gen("a1") * A.gen("a1"), A.gen("a2")],
                            [A.gen("a1"), A.gen("a3")]])


def test_compose_identity_and_zero():
    A, phi, psi = case_g_phi_psi()
    assert compose(identity_matrix(phi.source), phi) == phi
    assert compose(phi, identity_matrix(phi.target)) == phi
    z = zero_matrix(phi.target, phi.target)
    assert compose(phi, z).is_zero()


def naive_compose(first, second):
    """Entry (i, k) of FIRST * SECOND as the sum of NCPoly products a * b."""
    zero = first.algebra.zero()
    return tuple(
        tuple(
            sum((row[j] * second.entries[j][k] for j in range(len(row))), zero)
            for k in range(second.target.rank)
        )
        for row in first.entries
    )


def random_entry(rng, algebra, degree):
    """A random homogeneous element: Laurent-monomial coefficients on some
    of the PBW monomials of the degree (zero when none is picked)."""
    out = algebra.zero()
    for mono in algebra.monomials_of_degree(degree):
        if rng.random() < 0.5:
            c = Scalar.from_int(rng.choice([-2, -1, 1, 3])) * Scalar.t_power(rng.randint(-2, 2))
            out = out + algebra.monomial(mono, c)
    return out


def random_graded_matrix(rng, source, target):
    return GradedMatrix(
        source,
        target,
        [
            [random_entry(rng, source.algebra, d - e) for e in target.shifts]
            for d in source.shifts
        ],
    )


@pytest.mark.parametrize("seed", range(12))
def test_compose_matches_naive_entry_sums(seed):
    rng = random.Random(seed)
    A = case_g_algebra(3) if seed % 2 else case_h_algebra()
    # generator degrees descend from source to middle to target, so that
    # entry degrees run from 0 to 2 * top
    top = max(A.degrees) + 2
    source, middle, target = (
        FreeModule(A, tuple(base + rng.randint(0, top) for _ in range(rng.randint(1, 3))))
        for base in (2 * top, top, 0)
    )
    first = random_graded_matrix(rng, source, middle)
    second = random_graded_matrix(rng, middle, target)
    # a duplicated middle generator whose two products cancel exactly
    middle2 = FreeModule(A, middle.shifts + middle.shifts[:1])
    first2 = GradedMatrix(source, middle2, [row + row[:1] for row in first.entries])
    second2 = GradedMatrix(
        middle2, target, [*second.entries, [-e for e in second.entries[0]]]
    )
    for a, b in ((first, second), (first2, second2)):
        product = compose(a, b)
        assert product.entries == naive_compose(a, b)
        for row in product.entries:
            for entry in row:
                assert not any(c.is_zero() for c in entry.terms.values())


def test_compose_cancels_to_zero_terms():
    A = case_h_algebra()
    a1, a2 = A.gen("a1"), A.gen("a2")
    F, M, G = FreeModule(A, (2,)), FreeModule(A, (1, 1)), FreeModule(A, (0,))
    first = GradedMatrix(F, M, [[a2, a1 + a2]])
    # a2*a1 - (a1 + a2)*a1 = -a1^2: the rewritten a2*a1 terms cancel
    second = GradedMatrix(M, G, [[a1], [-a1]])
    product = compose(first, second)
    assert product.entries[0][0].terms == {(2, 0, 0): Scalar.from_int(-1)}
    second = GradedMatrix(M, G, [[a1 + a2], [-(a1 + a2)]])
    assert compose(GradedMatrix(F, M, [[a2, a2]]), second).entries[0][0].terms == {}


def test_compose_keeps_the_rewrite_budget_per_entry_product(monkeypatch):
    # on a fresh algebra a3^3 * a1^2 takes 57 rewrite steps and then
    # a3^2*a2 * a2*a1 takes 10: a budget of 58 covers each, not their sum
    def run(budget):
        A = case_h_algebra()

        def P(text):
            return parse_poly(text, A)

        first = GradedMatrix(
            FreeModule(A, (5,)), FreeModule(A, (2, 2)), [[P("a3^3"), P("a3^2*a2")]]
        )
        second = GradedMatrix(
            FreeModule(A, (2, 2)), FreeModule(A, (0,)), [[P("a1^2")], [P("a2*a1")]]
        )
        monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", budget)
        return compose(first, second)

    assert not run(58).is_zero()
    with pytest.raises(RewriteLimitExceeded):
        run(57)


def test_case_g_identity_one():
    # compose(psi, phi) = f*I on G; this is TMF identity (1), hand-checked
    A, phi, psi = case_g_phi_psi(2, 1)
    f = parse_poly("a1*a3 - t^-2 * a2^2", A)
    prod = compose(psi, phi)
    for i in range(2):
        for j in range(2):
            expected = f if i == j else A.zero()
            assert prod.entries[i][j] == expected


def test_compose_associative():
    A, phi, psi = case_g_phi_psi()
    sigma = GradedAutomorphism(
        A,
        [
            A.gen("a1").scale(S("t^-8")),
            A.gen("a2"),
            A.gen("a3").scale(S("t^8")),
        ],
    )
    tw_phi = twist_matrix(phi, sigma, 4)
    lhs = compose(compose(tw_phi, psi), phi)
    rhs = compose(tw_phi, compose(psi, phi))
    assert lhs == rhs
    # twist and shift commute
    assert shift_matrix(twist_matrix(phi, sigma, 4), 3) == twist_matrix(
        shift_matrix(phi, 3), sigma, 4
    )


def test_twist_matrix_shift_bookkeeping():
    A, phi, _ = case_g_phi_psi()
    ident = GradedAutomorphism.identity(A)
    tw = twist_matrix(phi, ident, 4)
    assert tw.entries == phi.entries
    assert tw.source.shifts == tuple(d + 4 for d in phi.source.shifts)
    # inverse twist undoes it
    back = twist_matrix(tw, ident.inverse(), -4)
    assert back == phi


def test_twist_matrix_by_an_automorphism_over_another_algebra():
    A, phi, _ = case_g_phi_psi()
    other = case_g_algebra(3)
    scaled = [other.gen(0).scale(Scalar.t_power(2)), other.gen(1), other.gen(2)]
    # the identity is not applied, yet it must act on the entries' algebra
    for auto in (GradedAutomorphism.identity(other), GradedAutomorphism(other, scaled)):
        with pytest.raises(AlgebraMismatch):
            twist_matrix(phi, auto, 4)


def test_shift_matrix_realizes_categorical_shift():
    A, phi, _ = case_g_phi_psi()
    sh = shift_matrix(phi, -6)
    assert sh.source.shifts == tuple(d + 6 for d in phi.source.shifts)
    assert shift_matrix(shift_matrix(phi, 2), 3) == shift_matrix(phi, 5)
    assert shift_matrix(phi, 0) == phi


def test_direct_sum_blocks():
    A, phi, psi = case_g_phi_psi()
    s = direct_sum(phi, phi)
    assert s.source.shifts == phi.source.shifts * 2
    assert s.entries[0][3].is_zero()
    r0 = direct_sum(phi, zero_matrix(FreeModule(A, ()), FreeModule(A, ())))
    assert r0 == phi


def test_block_matrix_derives_its_modules():
    A, phi, psi = case_g_phi_psi()
    F, G = phi.source, phi.target
    grid = [[phi, zero_matrix(F, F)], [identity_matrix(G), left_multiplication(G, A.gen("a2"), 2)]]
    with pytest.raises(ShapeMismatch):
        block_matrix(grid)  # the second row's blocks start from G and G[+2]
    grid[1][1] = zero_matrix(G, F)
    m = block_matrix(grid)
    assert m.source == FreeModule(A, F.shifts + G.shifts)
    assert m.target == FreeModule(A, G.shifts + F.shifts)
    assert m.entries[0] == phi.entries[0] + (A.zero(), A.zero())
    assert m.entries[2] == identity_matrix(G).entries[0] + (A.zero(), A.zero())
    assert block_matrix([[phi]]) == phi
    # a rank-0 block row adds no rows; its blocks still name the targets
    empty = FreeModule(A, ())
    assert block_matrix([[phi], [zero_matrix(empty, G)]]) == phi


def test_block_matrix_rejects_a_misaligned_grid():
    A, phi, psi = case_g_phi_psi()
    F, G = phi.source, phi.target
    # block column 0 would map to G in one row and to F in the other
    with pytest.raises(ShapeMismatch, match="column targets"):
        block_matrix([[phi], [identity_matrix(F)]])
    # block row 0 would start from F in one block and from G in the other
    with pytest.raises(ShapeMismatch, match="its source"):
        block_matrix([[phi, identity_matrix(G)]])
    with pytest.raises(ShapeMismatch):
        block_matrix([[phi, zero_matrix(F, G)], [zero_matrix(G, G)]])
    # direct sums check homogeneity, like every block matrix
    bad = GradedMatrix(F, G, [[A.gen("a1") * A.gen("a1")] * 2] * 2, check=False)
    with pytest.raises(DegreeMismatch):
        direct_sum(phi, bad)


def test_block_scalar_matrix_is_a_pattern_times_identities():
    A = case_h_algebra()
    module = FreeModule(A, (0, 1, 0, 1, 2))
    two, i = S("2"), S("i")
    m = block_scalar_matrix(module, [2, 2, 1], [{0: ONE, 1: two}, {0: i}, {2: -ONE}])
    assert m.source == m.target == module
    c = A.scalar
    z = A.zero()
    assert [list(row) for row in m.entries] == [
        [c(ONE), z, c(two), z, z],
        [z, c(ONE), z, c(two), z],
        [c(i), z, z, z, z],
        [z, c(i), z, z, z],
        [z, z, z, z, c(-ONE)],
    ]
    # a nonzero entry between summands with different shifts has no identity
    with pytest.raises(ShapeMismatch, match="scalar block"):
        block_scalar_matrix(FreeModule(A, (0, 1)), [1, 1], [{0: ONE, 1: ONE}, {1: ONE}])
    # ... while an absent one is a zero block
    lower = block_scalar_matrix(FreeModule(A, (0, 1)), [1, 1], [{0: ONE}, {1: two}])
    assert lower.entries == ((c(ONE), z), (z, c(two)))
    with pytest.raises(ShapeMismatch):
        block_scalar_matrix(module, [2, 2], [{0: ONE}, {1: ONE}])
    with pytest.raises(ShapeMismatch):
        block_scalar_matrix(module, [2, 2, 1], [{0: ONE}, {1: ONE}])
    # a column outside the summands is refused too
    with pytest.raises(ShapeMismatch, match="pattern shape"):
        block_scalar_matrix(module, [2, 2, 1], [{0: ONE}, {1: ONE}, {3: ONE}])


def test_block_scalar_matrix_skips_the_homogeneity_pass(monkeypatch):
    A = case_h_algebra()
    module = FreeModule(A, (0, 1, 0, 1, 2))
    pattern = [{0: ONE, 1: S("2")}, {0: S("i")}, {2: -ONE}]
    parts = [FreeModule(A, (0, 1)), FreeModule(A, (0, 1)), FreeModule(A, (2,))]
    reference = block_matrix(
        [
            [
                identity_matrix(a).scale(row[b]) if b in row else zero_matrix(a, p)
                for b, p in enumerate(parts)
            ]
            for a, row in zip(parts, pattern)
        ]
    )
    checks = []
    monkeypatch.setattr(GradedMatrix, "check_homogeneous", lambda self: checks.append(self))
    assert block_scalar_matrix(module, [2, 2, 1], pattern) == reference
    assert checks == []
    monkeypatch.undo()
    reference.check_homogeneous()
    # the refusals come before any entry is built
    with pytest.raises(ShapeMismatch, match="scalar block"):
        block_scalar_matrix(module, [2, 2, 1], [{0: ONE, 2: ONE}, {1: ONE}, {2: ONE}])
    with pytest.raises(ShapeMismatch, match="pattern shape"):
        block_scalar_matrix(module, [2, 2, 1], [{0: ONE}, {1: ONE}])
    with pytest.raises(ShapeMismatch, match="do not add up"):
        block_scalar_matrix(module, [2, 2], [{0: ONE}, {1: ONE}])


def test_matrix_foreign_operands_raise_type_error():
    A = case_h_algebra()
    m = identity_matrix(FreeModule(A, (0, 1)))
    for other in (1, ONE, A.gen("a1"), None):
        with pytest.raises(TypeError):
            m + other
        with pytest.raises(TypeError):
            m - other
    assert (m + m) - m == m


def test_scalar_part_and_examples():
    A = case_h_algebra()
    F = FreeModule(A, (0, 1))
    ident = identity_matrix(F)
    sp = scalar_part(ident)
    assert sp == [{0: ONE}, {1: ONE}]
    m = GradedMatrix(F, F, [[A.zero(), A.zero()], [A.gen("a1"), A.zero()]])
    assert scalar_part(m) == [{}, {}]


def _brute_force_inverse(mat):
    """Oracle: solve M*X = I and X*M = I entrywise over the monomial bases."""
    A = mat.algebra
    src, tgt = mat.source, mat.target
    unknowns = []
    for i in range(tgt.rank):
        for j in range(src.rank):
            for mono in A.monomials_of_degree(tgt.shifts[i] - src.shifts[j]):
                unknowns.append((i, j, mono))
    rows = []
    rhs = []
    coords = {}

    def touch(side, i, k, exps):
        key = (side, i, k, exps)
        if key not in coords:
            coords[key] = len(rows)
            rows.append([ZERO] * len(unknowns))
            rhs.append(ZERO)
        return coords[key]

    for u, (xi, xj, mono) in enumerate(unknowns):
        mono_poly = A.monomial(mono)
        # M*X at (i, k): sum_j M[i][j] X[j][k]; unknown contributes at j=xi, k=xj
        for i in range(src.rank):
            entry = mat.entries[i][xi]
            if not entry.is_zero():
                for exps, c in (entry * mono_poly).terms.items():
                    r = touch("MX", i, xj, exps)
                    rows[r][u] = rows[r][u] + c
        # X*M at (i, k): unknown at i=xi contributes X[xi][xj] M[xj][k]
        for k in range(tgt.rank):
            entry = mat.entries[xj][k]
            if not entry.is_zero():
                for exps, c in (mono_poly * entry).terms.items():
                    r = touch("XM", xi, k, exps)
                    rows[r][u] = rows[r][u] + c
    unit = (0,) * A.ngens
    for i in range(src.rank):
        r = touch("MX", i, i, unit)
        rhs[r] = ONE
    for i in range(tgt.rank):
        r = touch("XM", i, i, unit)
        rhs[r] = ONE
    sol = linalg.solve(sparse(rows), rhs, len(unknowns))
    return sol is not None


def test_is_invertible_against_bruteforce_rank2():
    A = case_h_algebra()
    F = FreeModule(A, (1, 1))
    G = FreeModule(A, (0, 1))
    cand = [
        identity_matrix(F),
        GradedMatrix(G, G, [[A.one(), A.zero()], [A.gen("a1") - A.gen("a2"), A.one()]]),
        GradedMatrix(F, F, [[A.one(), A.zero()], [A.zero(), A.zero()]]),
        GradedMatrix(F, F, [[A.one().scale(S("2")), A.one()], [A.one(), A.one()]]),
        GradedMatrix(F, F, [[A.one(), A.one()], [A.one(), A.one()]]),
        GradedMatrix(
            G,
            G,
            [[A.one(), A.zero()], [A.gen("a3"), A.one().scale(S("-3"))]],
        ),
    ]
    for m in cand:
        ok, inv = is_invertible(m)
        assert ok == _brute_force_inverse(m)
        if ok:
            assert compose(m, inv) == identity_matrix(m.source)
            assert compose(inv, m) == identity_matrix(m.target)


def test_is_invertible_lemma_5_13_matrix():
    A = case_h_algebra()
    F = FreeModule(A, (0, 0, 0, 0))
    i = S("i")
    rows = [
        ["1", "0", "0", "i"],
        ["0", "-1", "-i", "0"],
        ["0", "-i", "-1", "0"],
        ["i", "0", "0", "1"],
    ]
    m = GradedMatrix(
        F, F, [[A.scalar(S(x)) for x in row] for row in rows]
    )
    ok, inv = is_invertible(m)
    assert ok
    # a matrix over k inverts to its scalar inverse, exactly
    inverse = linalg.invert(sparse([[S(x) for x in row] for row in rows]))
    entries = [[A.scalar(row.get(j, ZERO)) for j in range(4)] for row in inverse]
    assert inv == GradedMatrix(F, F, entries)
    # determinant of the scalar part is 4; double-check rank over k
    assert linalg.rank(scalar_part(m)) == 4


def test_scalar_matrix_lifts_sparse_rows_and_passes_check_through(monkeypatch):
    A = case_h_algebra()
    F = FreeModule(A, (0, 1, 1))
    rows = [{0: S("2")}, {1: S("i"), 2: ONE}, {}]
    m = scalar_matrix(F, F, rows)
    z = A.zero()
    assert m.entries == (
        (A.scalar(S("2")), z, z), (z, A.scalar(S("i")), A.one()), (z, z, z)
    )
    assert scalar_part(m) == rows
    # an entry over k between generators of different degrees is not homogeneous
    with pytest.raises(DegreeMismatch):
        scalar_matrix(F, F, [{1: ONE}, {}, {}])
    checks = []
    monkeypatch.setattr(GradedMatrix, "check_homogeneous", lambda self: checks.append(self))
    unchecked = scalar_matrix(F, F, [{1: ONE}, {}, {}], check=False)
    assert checks == []
    assert scalar_matrix(F, F, rows, check=True) == m and len(checks) == 1
    assert unchecked.entries[0][1] == A.one()


def counting_compose(monkeypatch):
    """Count the calls is_invertible makes to gradedmod.compose."""
    from tmfkit import gradedmod

    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        return compose(*args)

    monkeypatch.setattr(gradedmod, "compose", wrapper)
    return calls


def test_is_invertible_over_k_composes_only_for_the_guard(monkeypatch):
    A = case_h_algebra()
    # summands F, G, G, F as in Lemma 5.13, with G's shifts above F's
    module = FreeModule(A, (0, 1, 2, 3, 2, 3, 0, 1))
    pattern = LEMMA_5_13_PATTERN
    m = block_scalar_matrix(module, [2, 2, 2, 2], pattern)
    composes = counting_compose(monkeypatch)
    ok, inv = is_invertible(m)
    assert ok
    # no series: the two composites are the exactness guard
    assert composes[0] == 2
    # a singular pattern over k has no inverse
    singular_pattern = [{0: ONE, 1: S("i")}, {0: S("i"), 1: -ONE}]
    singular = block_scalar_matrix(FreeModule(A, (0, 1, 0, 1)), [2, 2], singular_pattern)
    assert is_invertible(singular) == (False, None)


def test_is_invertible_unipotent_runs_the_series(monkeypatch):
    A = case_h_algebra()
    G = FreeModule(A, (0, 1, 2))
    a1, a2 = A.gen("a1"), A.gen("a2")
    z, one = A.zero(), A.one()
    # lower unitriangular with entries of degree 1 and 2
    m = GradedMatrix(G, G, [[one, z, z], [a1, one, z], [a1 * a1 + a2 * a1, a2, one]])
    composes = counting_compose(monkeypatch)
    ok, inv = is_invertible(m)
    assert ok
    # S^{-1}N, the series terms and S^{-1}, then the two guard composites
    assert composes[0] > 2
    # (I + N)^{-1} = I - N + N^2 with N strictly lower
    n = m - identity_matrix(G)
    assert inv == identity_matrix(G) - n + compose(n, n)


def test_zero_row_scalar_part_not_invertible():
    A = case_h_algebra()
    F = FreeModule(A, (1, 1))
    m = GradedMatrix(F, F, [[A.one(), A.one()], [A.zero(), A.zero()]])
    ok, _ = is_invertible(m)
    assert not ok


def test_solve_intertwiners_contains_identity():
    A, phi, _ = case_g_phi_psi()
    space = solve_intertwiners(phi, phi)
    # the self-intertwiners of phi are the multiples of (id, id): the solved
    # span is one pair, a nonzero scalar c times (id, id)
    assert len(space) == 1
    ((alpha, beta),) = space
    c = alpha.entries[0][0].constant_term()
    assert not c.is_zero()
    assert alpha == identity_matrix(phi.source).scale(c)
    assert beta == identity_matrix(phi.target).scale(c)


def solve_intertwiners_reference(phi, phi_prime):
    """The two-loop intertwiner solver: the alpha unknowns, their columns and
    their basis entries written out once, and the beta ones once more."""
    algebra = phi.algebra
    F, G = phi.source, phi.target
    Fp, Gp = phi_prime.source, phi_prime.target

    unknowns = []
    for i in range(F.rank):
        for j in range(Fp.rank):
            for mono in algebra.monomials_of_degree(F.shifts[i] - Fp.shifts[j]):
                unknowns.append(("a", i, j, mono))
    for i in range(G.rank):
        for j in range(Gp.rank):
            for mono in algebra.monomials_of_degree(G.shifts[i] - Gp.shifts[j]):
                unknowns.append(("b", i, j, mono))

    columns = []
    for kind, i, j, mono in unknowns:
        if kind == "a":
            columns.append(
                [((i, k), {mono: ONE}, phi_prime.entries[j][k].terms) for k in range(Gp.rank)]
            )
        else:
            columns.append(
                [((i0, j), phi.entries[i0][i].terms, {mono: MINUS_ONE}) for i0 in range(F.rank)]
            )

    null = linalg.nullspace(algebra.slice_matrix(columns), len(unknowns))
    basis = []
    for vec in null:
        a_entries = [[algebra.zero() for _ in range(Fp.rank)] for _ in range(F.rank)]
        b_entries = [[algebra.zero() for _ in range(Gp.rank)] for _ in range(G.rank)]
        for u, (kind, i, j, mono) in enumerate(unknowns):
            c = vec.get(u, ZERO)
            if c.is_zero():
                continue
            term = algebra.monomial(mono, c)
            if kind == "a":
                a_entries[i][j] = a_entries[i][j] + term
            else:
                b_entries[i][j] = b_entries[i][j] + term
        basis.append((GradedMatrix(F, Fp, a_entries), GradedMatrix(G, Gp, b_entries)))
    return basis


def intertwiner_inputs(case, n):
    """(label, phi, phi') for every ordered pair of the entry's families, for
    the self-Hom of each family's C(t) and H(t), and from each family to
    twice itself, where beta = 2*alpha shows which unknown comes last."""
    entry = build(case, n)
    families = [(label, entry.factorization(label)) for label in entry.labels()]
    cover, uv = make_cover(entry.context), make_cover(entry.context, ("u", "v"))
    inputs = [(f"{la}|{lb}", ta.phi, tb.phi) for la, ta in families for lb, tb in families]
    for label, t in families:
        c, h = functor_C(cover, t), functor_H(uv, t)
        inputs += [(f"C({label})", c.phi, c.phi), (f"H({label})", h.phi, h.phi)]
        inputs.append((f"{label}|2*{label}", t.phi, t.phi.scale(Scalar.from_int(2))))
    return inputs


@pytest.mark.parametrize(
    "case, n", [("c", None), ("h", None), ("d-odd", 5), ("g", 3), ("b", 3)]
)
def test_solve_intertwiners_matches_the_two_loop_reference(case, n):
    dimensions = {}
    for label, phi, phi_prime in intertwiner_inputs(case, n):
        got = solve_intertwiners(phi, phi_prime)
        want = solve_intertwiners_reference(phi, phi_prime)
        assert len(got) == len(want), label
        dimensions[label] = len(got)
        # same pairs in the same order, entry by entry and as printed
        for (alpha, beta), (ref_alpha, ref_beta) in zip(got, want):
            for mat, ref in ((alpha, ref_alpha), (beta, ref_beta)):
                assert (mat.source, mat.target) == (ref.source, ref.target), label
                for row, ref_row in zip(mat.entries, ref.entries):
                    assert row == ref_row, label
                    assert [str(e) for e in row] == [str(e) for e in ref_row], label
    # each family's self-Hom is k; the C(t) of (c), (h) and (d-odd) have
    # two-dimensional ones, where the order of the basis shows
    for label in build(case, n).labels():
        assert dimensions[f"{label}|{label}"] == 1


def test_probably_isomorphic_self_and_mismatch():
    A, phi, _ = case_g_phi_psi()
    verdict = probably_isomorphic(phi, phi, trials=8, seed=1)
    assert verdict.isomorphic
    assert compose(verdict.alpha, phi) == compose(phi, verdict.beta)
    # rank mismatch is rejected immediately
    other = zero_matrix(FreeModule(A, (0,)), FreeModule(A, (0,)))
    assert not probably_isomorphic(phi, other).isomorphic


def test_probably_isomorphic_shift_distinguishes():
    A, phi, _ = case_g_phi_psi()
    shifted = shift_matrix(phi, 1)
    assert not probably_isomorphic(phi, shifted, trials=4, seed=2).isomorphic


def test_lambda_compatibility():
    # lambda_f . tw(phi) = phi . lambda_f on the case (g) matrices
    A, phi, psi = case_g_phi_psi()
    f = parse_poly("a1*a3 - t^-2 * a2^2", A)
    sigma = GradedAutomorphism(
        A,
        [A.gen("a1").scale(S("t^-8")), A.gen("a2"), A.gen("a3").scale(S("t^8"))],
    )
    d = 4
    lam_tgt = left_multiplication(phi.target, f, d)
    lam_src = left_multiplication(phi.source, f, d)
    assert compose(twist_matrix(phi, sigma, d), lam_tgt) == compose(lam_src, phi)
