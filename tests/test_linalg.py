import copy
import random
import sys

import pytest

from tmfkit import linalg
from tmfkit.catalog import build, run_suite
from tmfkit.cover import CoverContext, functor_C, functor_H, second_cover
from tmfkit.linalg import rank
from tmfkit.ncalgebra import GradedAlgebra, left_ranks
from tmfkit.scalars import MINUS_ONE, ONE, ZERO, Scalar, parse_scalar
from tmfkit.tmf import coker_hilbert


def n(k):
    return Scalar.from_int(k)


def sparse(rows):
    """The sparse rows, {column: nonzero Scalar}, of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]


def dense(rows, ncols=None):
    """The dense matrix of sparse rows on ncols columns, by default up to the
    last column that a row holds."""
    if ncols is None:
        ncols = 1 + max((j for row in rows for j in row), default=-1)
    return [[row.get(j, ZERO) for j in range(ncols)] for row in rows]


def coker_hilbert_reference(t, max_degree):
    """dim (coker phi)_e for e <= max_degree by brute force: dim G_e minus the
    rank of the image of F_e, one slice matrix per degree.  tmf.coker_hilbert
    reads the series off the shifts; this count must agree with it."""
    algebra = t.context.algebra
    F, G = t.phi.source, t.phi.target
    series = []
    for e in range(max_degree + 1):
        # one column per k-basis element m*e_i of F_e: its image m*phi[i],
        # one product per entry of phi[i]
        columns = [
            [(j, {mono: ONE}, entry.terms) for j, entry in enumerate(t.phi.entries[i])]
            for i in range(F.rank)
            for mono in algebra.monomials_of_degree(e - F.shifts[i])
        ]
        image_rank = linalg.rank(algebra.slice_matrix(columns))
        dim_g = sum(len(algebra.monomials_of_degree(e - s)) for s in G.shifts)
        series.append(dim_g - image_rank)
    return series


# the commutative polynomial ring k[x, y]: y*x rewrites to x*y
XY = GradedAlgebra([("x", 1), ("y", 1)], {(1, 0): [(ONE, (1, 1))]})
ONE_EXPS, X, Y = (0, 0), (1, 0), (0, 1)


def test_slice_matrix_first_seen_rows():
    columns = [
        [("b", {Y: n(2)}, {ONE_EXPS: ONE}), ("a", {ONE_EXPS: ONE}, {X: n(1)})],
        [("c", {X: n(3)}, {ONE_EXPS: ONE}), ("a", {X: n(4)}, {ONE_EXPS: ONE})],
    ]
    # rows (b, y), (a, x), (c, x): the order in which the coordinates first occur
    assert XY.slice_matrix(columns) == [
        {0: n(2)},
        {0: n(1), 1: n(4)},
        {1: n(3)},
    ]


def test_slice_matrix_absent_coordinates_are_zero():
    columns = [[(0, {X: n(5)}, {X: ONE})], [(1, {ONE_EXPS: ONE}, {Y: n(7)})], []]
    rows = XY.slice_matrix(columns)
    # rows (0, x^2) and (1, y); the empty third column holds no entry
    assert rows == [{0: n(5)}, {1: n(7)}]
    assert rank(rows) == 2


def test_slice_matrix_empty_inputs(monkeypatch):
    assert XY.slice_matrix([]) == []
    assert XY.slice_matrix([[], []]) == []
    # products under one key add up, so x*y - y*x leaves no row
    cancel = [[(0, {X: ONE}, {Y: ONE}), (0, {Y: ONE}, {X: MINUS_ONE})]]
    assert XY.slice_matrix(cancel) == []
    # a product with an empty side is never multiplied out
    calls = []
    monkeypatch.setattr(XY, "_mul_into", lambda *args: calls.append(args))
    empty_sides = [[(0, {}, {X: ONE})], [(0, {X: ONE}, {})]]
    assert XY.slice_matrix(empty_sides) == []
    assert calls == []
    assert rank(XY.slice_matrix(empty_sides)) == 0


# -- brute-force reference: dense Gauss-Jordan on every cell -------------------


def dense_rref(rows):
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    m, pivots = dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def dense_solve(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    m, pivots = dense_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def dense_invert(rows):
    size = len(rows)
    aug = [row + [ONE if j == i else ZERO for j in range(size)] for i, row in enumerate(rows)]
    m, pivots = dense_rref(aug)
    if pivots != list(range(size)):
        return None
    return [row[size:] for row in m[:size]]


def matmul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a
    ]


# -- seeded random matrices ------------------------------------------------------

# entries with D != 1: the elimination then runs polynomial gcds
FRACTIONS = [parse_scalar(text) for text in ("1/(t+1)", "(t - i)/(t^2 + 1)", "(2*t)/(t - 3)")]


def random_entry(rng, density, fractions=True):
    if rng.random() > density:
        return ZERO
    if fractions and rng.random() < 0.15:
        return rng.choice(FRACTIONS)
    # a Laurent monomial c*t^k over the Gaussian integers
    c = Scalar.from_int(rng.choice([-3, -2, -1, 1, 2, 5]))
    if rng.random() < 0.3:
        c = c * parse_scalar("i") + Scalar.from_int(rng.randint(-1, 1))
    return c * Scalar.t_power(rng.randint(-4, 4))


def random_matrix(rng, nrows, ncols, density=0.6):
    return [[random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]


def random_case(seed):
    """A small matrix of one of several kinds, chosen by the seed."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    kind = seed % 4
    if kind == 0:
        return random_matrix(rng, nrows, ncols)
    if kind == 1:
        # rank deficient: a product through an inner dimension below both sizes
        inner = rng.randint(1, max(1, min(nrows, ncols) - 1))
        return matmul(random_matrix(rng, nrows, inner), random_matrix(rng, inner, ncols))
    m = random_matrix(rng, nrows, ncols, density=0.8)
    if kind == 2:
        # zero rows and zero columns
        for i in rng.sample(range(nrows), rng.randint(0, nrows)):
            m[i] = [ZERO] * ncols
        for j in rng.sample(range(ncols), rng.randint(0, ncols)):
            for row in m:
                row[j] = ZERO
        return m
    # repeated and combined rows
    if nrows > 1:
        c = random_entry(rng, 1.0)
        m[-1] = [x * c + y for x, y in zip(m[0], m[1 % (nrows - 1)])]
    return m


SEEDS = range(32)


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_and_rank_match_dense_reference(seed):
    m = random_case(seed)
    want = dense_rref(m)
    pairs = linalg.rref(sparse(m))
    # the pivot rows, then the zero rows that rref leaves out
    rows = [row for _, row in pairs] + [{}] * (len(m) - len(pairs))
    assert (dense(rows, len(m[0])), [c for c, _ in pairs]) == want
    assert linalg.rank(sparse(m)) == len(want[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_matches_dense_reference(seed):
    m = random_case(seed)
    ncols = len(m[0])
    basis = dense(linalg.nullspace(sparse(m), ncols), ncols)
    assert basis == dense_nullspace(m, ncols)
    assert len(basis) == ncols - linalg.rank(sparse(m))
    for vec in basis:
        assert matmul(m, [[x] for x in vec]) == [[ZERO]] * len(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_dense_reference(seed):
    m = random_case(seed)
    rng = random.Random(1000 + seed)
    x0 = [random_entry(rng, 0.7, fractions=False) for _ in m[0]]
    consistent = [row[0] for row in matmul(m, [[x] for x in x0])]
    (x,) = dense([linalg.solve(sparse(m), consistent, len(m[0]))], len(m[0]))
    assert x == dense_solve(m, consistent)
    assert [row[0] for row in matmul(m, [[c] for c in x])] == consistent
    if linalg.rank(sparse(m)) == len(m):
        return
    # a generic right-hand side of a rank-deficient system is inconsistent
    rhs = [random_entry(rng, 1.0, fractions=False) for _ in m]
    assert linalg.solve(sparse(m), rhs, len(m[0])) is None
    assert dense_solve(m, rhs) is None


def test_solve_inconsistent_system():
    m = sparse([[ONE, n(2)], [n(2), n(4)], [ZERO, ZERO]])
    assert linalg.solve(m, [ONE, ONE, ZERO], 2) is None
    assert linalg.solve(m, [ZERO, ZERO, ONE], 2) is None
    # x = (1, 0): the sparse solution holds no zero
    assert linalg.solve(m, [ONE, n(2), ZERO], 2) == {0: ONE}


def square_case(seed):
    """random_case(seed) cut or padded with zeros to a square of side 1-5."""
    size = random.Random(seed).randint(1, 5)
    m = random_case(seed)
    return [(row + [ZERO] * size)[:size] for row in (m + [[ZERO] * size] * size)[:size]]


@pytest.mark.parametrize("seed", SEEDS)
def test_invert_matches_dense_reference(seed):
    m = square_case(seed)
    size = len(m)
    inv = linalg.invert(sparse(m))
    inv = inv if inv is None else dense(inv, size)
    assert inv == dense_invert(m)
    identity = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    if inv is None:
        assert linalg.rank(sparse(m)) < size
    else:
        assert matmul(m, inv) == identity


def test_degenerate_shapes():
    assert linalg.rref([]) == []
    assert linalg.rref([{}]) == []
    assert linalg.rank([{}, {}]) == 0
    assert linalg.nullspace([], 2) == [{0: ONE}, {1: ONE}]
    assert linalg.solve([], [], 0) == {}
    assert linalg.invert([]) == []
    assert linalg.invert([{}]) is None


# -- singleton peeling -----------------------------------------------------------


def ranked_matrices(monkeypatch, compute):
    """The matrices that linalg.rank is asked about while compute() runs."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
        compute()
    return seen


def rank_cores(monkeypatch):
    """The cores that rank hands to the elimination, copied before it
    consumes them: the elimination calls whose caller is rank's code, so
    calls through ``from tmfkit.linalg import rank`` count too."""
    cores = []
    eliminate = linalg._eliminate

    def wrapper(rows):
        if sys._getframe(1).f_code is rank.__code__:
            cores.append([dict(row) for row in rows])
        return eliminate(rows)

    monkeypatch.setattr(linalg, "_eliminate", wrapper)
    return cores


@pytest.mark.parametrize(
    "case, n, window",
    [
        ("c", None, None),
        ("h", None, 12),
        ("d-odd", 5, None),
        ("d-odd", 9, None),
        ("g", 3, None),
        ("g", 5, None),
        ("b", 3, None),
    ],
)
def test_rank_matches_dense_reference_on_slice_matrices(monkeypatch, case, n, window):
    entry = build(case, n)
    D = window if window is not None else 2 * entry.context.d

    def slices():
        left_ranks(entry.context.f, D)
        for t in entry.families.values():
            assert coker_hilbert_reference(t, D) == coker_hilbert(t, D)

    seen = ranked_matrices(monkeypatch, slices)
    assert len(seen) >= D + 1
    for rows in seen:
        assert rank(rows) == len(dense_rref(dense(rows))[1])


@pytest.mark.parametrize("names", [("z",), ("u", "v")])
@pytest.mark.parametrize("case, n", [("c", None), ("h", None), ("d-odd", 5), ("g", 3), ("b", 3)])
def test_rank_matches_dense_reference_on_cover_slices(monkeypatch, case, n, names):
    cover = CoverContext(build(case, n).context, names)
    D = 2 * cover.d
    seen = ranked_matrices(monkeypatch, lambda: left_ranks(cover.f, D))
    assert len(seen) == D + 1
    for rows in seen:
        assert rank(rows) == len(dense_rref(dense(rows))[1])


def has_singleton(rows):
    """Some row or column holds exactly one nonzero."""
    lines = rows + [list(col) for col in zip(*rows)]
    return any(sum(not x.is_zero() for x in line) == 1 for line in lines)


def sparse_entry(rng, density):
    """0, or c*t^k with a small integer c and |k| <= 1: entries whose dense
    elimination stays small up to 10 x 10."""
    if rng.random() > density:
        return ZERO
    return n(rng.choice([-2, -1, 1, 2, 3])) * Scalar.t_power(rng.randint(-1, 1))


def test_rank_peels_random_sparse_matrices(monkeypatch):
    cores = rank_cores(monkeypatch)
    kinds = set()
    for seed in range(200):
        rng = random.Random(seed)
        density = rng.uniform(0.1, 0.5)
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        m = [[sparse_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
        cores.clear()
        assert rank(sparse(m)) == len(dense_rref(m)[1])
        nonzero_rows = sum(any(not x.is_zero() for x in row) for row in m)
        if not has_singleton(m):
            # nothing to peel: the whole matrix is the core
            assert [len(core) for core in cores] == ([nonzero_rows] if nonzero_rows else [])
            kinds.add("no singleton" if nonzero_rows else "zero")
        else:
            # a singleton goes, and its row with it
            assert all(len(core) < nonzero_rows for core in cores)
            kinds.add("core left" if cores else "peeled")
    assert {"no singleton", "core left", "peeled"} <= kinds


def test_rank_eliminates_a_rank_deficient_core(monkeypatch):
    cores = rank_cores(monkeypatch)
    t = Scalar.t_power(1)
    m = [
        # column 2 holds one nonzero, in row 0, and row 3 one, in column 3
        [ONE, ONE, n(5), ZERO],
        [ONE, ONE, ZERO, ZERO],
        [ONE, ONE, ZERO, n(2)],
        [ZERO, ZERO, ZERO, t],
    ]
    assert rank(sparse(m)) == 3 == len(dense_rref(m)[1])
    # the core left is the all-ones block of rows 1, 2 and columns 0, 1
    assert cores == [[{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]]


def test_rank_needs_no_elimination_in_a_suite(monkeypatch):
    entry = build("d-odd", 9)
    cores = rank_cores(monkeypatch)
    assert ranked_matrices(monkeypatch, lambda: run_suite(entry))
    assert cores == []


# -- the sparse contract ---------------------------------------------------------


def test_slice_matrix_rows_hold_no_zero_in_first_seen_order(monkeypatch):
    seen = []
    slice_matrix = GradedAlgebra.slice_matrix

    def wrapper(self, columns):
        rows = slice_matrix(self, columns)
        seen.append((len(columns), rows))
        return rows

    monkeypatch.setattr(GradedAlgebra, "slice_matrix", wrapper)
    # the brute-force cokernel count of each family and of its images over
    # the z cover (C) and the u, v cover (H)
    for case, n in [("c", None), ("g", 3), ("b", 3)]:
        entry = build(case, n)
        sc = second_cover(entry.context)
        D = 2 * entry.context.d
        for t in entry.families.values():
            for x in (t, functor_C(sc.first, t), functor_H(sc.uv, t)):
                assert coker_hilbert_reference(x, D) == coker_hilbert(x, D)
    assert len(seen) > 100
    for ncols, rows in seen:
        assert all(row for row in rows)
        assert all(0 <= j < ncols and not x.is_zero() for row in rows for j, x in row.items())
        # a row first seen in column j comes after every row seen before j
        firsts = [min(row) for row in rows]
        assert firsts == sorted(firsts)


@pytest.mark.parametrize("seed", SEEDS)
def test_routines_leave_the_callers_rows_unchanged(seed):
    m = random_case(seed)
    ncols = len(m[0])
    rhs = [random_entry(random.Random(seed), 0.7, fractions=False) for _ in m]
    calls = [
        ("rank", m, linalg.rank),
        ("rref", m, linalg.rref),
        ("nullspace", m, lambda rows: linalg.nullspace(rows, ncols)),
        ("solve", m, lambda rows: linalg.solve(rows, rhs, ncols)),
        ("invert", square_case(seed), linalg.invert),
    ]
    for name, matrix, call in calls:
        rows = sparse(matrix)
        before = copy.deepcopy(rows)
        call(rows)
        assert rows == before, name
