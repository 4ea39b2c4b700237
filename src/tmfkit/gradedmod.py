"""Graded free modules and degree-0 matrices between them.

A free module is its algebra plus the list of generator degrees d_1..d_m
(the module is the direct sum of A[-d_i]).  A matrix row index is the
SOURCE generator: phi(e_i) = sum_j PHI[i][j] e'_j with coefficients written
on the left, and the matrix of "phi then psi" is PHI*PSI with entry
products taken left to right in the algebra.  Entry (i, j) must be zero or
homogeneous of degree d_i - d'_j.

Twisting a map by an automorphism om applies om^{-1} to the entries and
raises every generator degree by the twist's shift; shift_matrix realizes
the categorical [n] and lowers generator degrees by n.
"""

from __future__ import annotations

import operator
import random
from itertools import accumulate
from typing import NamedTuple

from . import linalg
from . import ncalgebra as nca
from .ncalgebra import (
    AlgebraMismatch,
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
)
from .scalars import MINUS_ONE, ONE, Scalar


class ShapeMismatch(ValueError):
    """Ranks or shift vectors do not line up."""


class DegreeMismatch(ValueError):
    """A matrix entry is not homogeneous of its forced degree."""


class FreeModule:
    """Graded free module: algebra plus generator degrees."""

    __slots__ = ("algebra", "shifts")

    def __init__(self, algebra: GradedAlgebra, shifts: tuple[int, ...]) -> None:
        self.algebra = algebra
        self.shifts = tuple(shifts)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def shifted(self, n: int) -> FreeModule:
        """The module [n]: generator degrees drop by n."""
        return FreeModule(self.algebra, tuple(d - n for d in self.shifts))

    def twisted(self, shift: int) -> FreeModule:
        """Underlying module of a twist raising generator degrees by shift."""
        return FreeModule(self.algebra, tuple(d + shift for d in self.shifts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeModule):
            return NotImplemented
        return self.algebra == other.algebra and self.shifts == other.shifts

    def __hash__(self) -> int:
        return hash((self.algebra, self.shifts))

    def __repr__(self) -> str:
        return f"FreeModule{self.shifts}"

    def hilbert(self, max_degree: int) -> list[int]:
        if not self.shifts:
            return [0] * (max_degree + 1)
        reach = max_degree - min(min(self.shifts), 0)
        base = nca.hilbert_series(self.algebra, max(reach, 0))
        dims = [0] * (max_degree + 1)
        for d in self.shifts:
            for e in range(max_degree + 1):
                if e - d >= 0:
                    dims[e] += base[e - d]
        return dims


class GradedMatrix:
    """Degree-0 homomorphism between graded free modules."""

    __slots__ = ("source", "target", "entries")

    def __init__(
        self,
        source: FreeModule,
        target: FreeModule,
        entries: list[list[NCPoly]],
        check: bool = True,
    ) -> None:
        if source.algebra != target.algebra:
            raise AlgebraMismatch("source and target over different algebras")
        if len(entries) != source.rank or any(
            len(row) != target.rank for row in entries
        ):
            raise ShapeMismatch(
                f"entry shape {len(entries)}x? does not match ranks "
                f"{source.rank}x{target.rank}"
            )
        self.source = source
        self.target = target
        self.entries = tuple(tuple(row) for row in entries)
        if check:
            self.check_homogeneous()

    def check_homogeneous(self) -> None:
        degree = self.algebra.exps_degree
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                want = self.source.shifts[i] - self.target.shifts[j]
                if entry.terms and any(degree(e) != want for e in entry.terms):
                    raise DegreeMismatch(
                        f"entry ({i},{j}) must be homogeneous of degree {want}"
                    )

    @property
    def algebra(self) -> GradedAlgebra:
        return self.source.algebra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"GradedMatrix({self.source.shifts}->{self.target.shifts}: [{rows}])"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def _entrywise(self, other: GradedMatrix, op) -> GradedMatrix:
        try:
            entries = other.entries
        except AttributeError:
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("sum of matrices with different shapes")
        return GradedMatrix(
            self.source,
            self.target,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, entries)],
            check=False,
        )

    def __add__(self, other: GradedMatrix) -> GradedMatrix:
        return self._entrywise(other, operator.add)

    def __sub__(self, other: GradedMatrix) -> GradedMatrix:
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> GradedMatrix:
        return GradedMatrix(
            self.source,
            self.target,
            [[-e for e in row] for row in self.entries],
            check=False,
        )

    def scale(self, c: Scalar) -> GradedMatrix:
        return GradedMatrix(
            self.source,
            self.target,
            [[e.scale(c) for e in row] for row in self.entries],
            check=False,
        )

    def map_entries(self, fn, algebra: GradedAlgebra) -> GradedMatrix:
        """Apply fn entrywise and move both modules to `algebra`, keeping
        the shift vectors (caller owns degree sanity)."""
        return GradedMatrix(
            FreeModule(algebra, self.source.shifts),
            FreeModule(algebra, self.target.shifts),
            [[fn(e) for e in row] for row in self.entries],
            check=False,
        )


def identity_matrix(module: FreeModule) -> GradedMatrix:
    return scalar_matrix(module, module, [{i: ONE} for i in range(module.rank)], check=False)


def zero_matrix(source: FreeModule, target: FreeModule) -> GradedMatrix:
    return scalar_matrix(source, target, [{} for _ in range(source.rank)], check=False)


def left_multiplication(module: FreeModule, g: NCPoly, shift: int) -> GradedMatrix:
    """Matrix of left multiplication by homogeneous g, as a map from the
    twist of the module raising generator degrees by `shift`."""
    if g.algebra != module.algebra:
        raise AlgebraMismatch("element lives over a different algebra")
    zero = module.algebra.zero()
    n = module.rank
    return GradedMatrix(
        module.twisted(shift),
        module,
        [[g if i == j else zero for j in range(n)] for i in range(n)],
    )


def compose(
    first: GradedMatrix, second: GradedMatrix, minus: NCPoly | None = None
) -> GradedMatrix:
    """Matrix of "first then second" = FIRST * SECOND; given `minus` = g,
    FIRST * SECOND - g*I, with each diagonal sum started at -g."""
    if first.target != second.source:
        raise ShapeMismatch(
            f"composition mismatch: {first.target.shifts} vs {second.source.shifts}"
        )
    algebra = first.algebra
    seed: dict = {}
    if minus is not None:
        if minus.algebra != algebra:
            raise AlgebraMismatch("diagonal term lives over a different algebra")
        seed = {e: -c for e, c in minus.terms.items()}
    columns = [[row[k] for row in second.entries] for k in range(second.target.rank)]
    rows = []
    for i, first_row in enumerate(first.entries):
        row = []
        for k, column in enumerate(columns):
            acc: dict = dict(seed) if i == k else {}
            for a, b in zip(first_row, column):
                if a.terms and b.terms:
                    algebra._mul_into(acc, a.terms, b.terms)
            row.append(nca._wrap(algebra, acc))
        rows.append(row)
    return GradedMatrix(first.source, second.target, rows, check=False)


def twist_matrix(
    mat: GradedMatrix, auto: GradedAutomorphism, shift: int
) -> GradedMatrix:
    """Matrix of the twisted map: entries auto^{-1}(entry), degrees + shift.
    The identity leaves the entries as they are."""
    if auto.algebra != mat.algebra:
        raise AlgebraMismatch("element lives over a different algebra")
    entries = mat.entries
    if not auto.is_identity():
        inv = auto.inverse()
        entries = [[inv(e) for e in row] for row in entries]
    return GradedMatrix(
        mat.source.twisted(shift),
        mat.target.twisted(shift),
        entries,
        check=False,
    )


def shift_matrix(mat: GradedMatrix, n: int) -> GradedMatrix:
    """The categorical [n]: entries unchanged, generator degrees drop by n."""
    return GradedMatrix(
        mat.source.shifted(n),
        mat.target.shifted(n),
        mat.entries,
        check=False,
    )


def block_matrix(grid: list[list[GradedMatrix]]) -> GradedMatrix:
    """The matrix whose block (r, c) is grid[r][c]: its source is the sum of
    the block rows' sources and its target the sum of the block columns'
    targets.  ShapeMismatch when a block row disagrees on its source or a
    block column on its target."""
    sources = [row[0].source for row in grid]
    targets = [block.target for block in grid[0]]
    for r, (row, source) in enumerate(zip(grid, sources)):
        if [block.target for block in row] != targets:
            raise ShapeMismatch(f"block row {r} disagrees on the column targets")
        if any(block.source != source for block in row):
            raise ShapeMismatch(f"block row {r} disagrees on its source")
    algebra = sources[0].algebra
    rows = [
        [e for block in row for e in block.entries[i]]
        for row, source in zip(grid, sources)
        for i in range(source.rank)
    ]
    return GradedMatrix(
        FreeModule(algebra, sum((m.shifts for m in sources), ())),
        FreeModule(algebra, sum((m.shifts for m in targets), ())),
        rows,
    )


def summands(module: FreeModule, sizes: list[int]) -> list[FreeModule]:
    """Split a module into consecutive summands of the given ranks."""
    if sum(sizes) != module.rank:
        raise ShapeMismatch(f"summand ranks {sizes} do not add up to {module.rank}")
    return [
        FreeModule(module.algebra, module.shifts[end - size : end])
        for size, end in zip(sizes, accumulate(sizes))
    ]


def block_scalar_matrix(
    module: FreeModule, sizes: list[int], pattern: list[dict[int, Scalar]]
) -> GradedMatrix:
    """Endomorphism of `module`, split into summands of the given ranks, whose
    block (a, b) is pattern[a][b] times the identity; the pattern is sparse
    rows {b: nonzero Scalar}.  ShapeMismatch when the pattern does not match
    the summands or a nonzero entry joins summands with different shifts (so
    no entry needs a homogeneity check)."""
    parts = summands(module, sizes)
    if len(pattern) != len(parts) or any(not 0 <= b < len(parts) for row in pattern for b in row):
        raise ShapeMismatch(f"pattern shape does not match {len(parts)} summands")
    for a, row in zip(parts, pattern):
        for b in row:
            if a != parts[b]:
                raise ShapeMismatch(f"scalar block between summands {a} and {parts[b]}")
    starts = [end - size for size, end in zip(sizes, accumulate(sizes))]
    rows = [{starts[b] + k: c for b, c in row.items()}
            for size, row in zip(sizes, pattern) for k in range(size)]
    return scalar_matrix(module, module, rows, check=False)


def direct_sum(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    return block_matrix(
        [[a, zero_matrix(a.source, b.target)], [zero_matrix(b.source, a.target), b]]
    )


def submatrix(
    mat: GradedMatrix, row_idx: list[int], col_idx: list[int]
) -> GradedMatrix:
    source = FreeModule(mat.algebra, tuple(mat.source.shifts[i] for i in row_idx))
    target = FreeModule(mat.algebra, tuple(mat.target.shifts[j] for j in col_idx))
    return GradedMatrix(
        source,
        target,
        [[mat.entries[i][j] for j in col_idx] for i in row_idx],
        check=False,
    )


def scalar_part(mat: GradedMatrix) -> list[dict[int, Scalar]]:
    """Degree-0 entries as sparse rows of nonzero Scalars; positive-degree
    entries are left out.

    Requires equal shift multisets so the notion of an endomorphism-shaped
    matrix makes sense.
    """
    if sorted(mat.source.shifts) != sorted(mat.target.shifts):
        raise ShapeMismatch("scalar part needs equal shift multisets")
    out = []
    for s, row in zip(mat.source.shifts, mat.entries):
        cells = {j: x.constant_term() for j, x in enumerate(row) if mat.target.shifts[j] == s}
        out.append({j: c for j, c in cells.items() if not c.is_zero()})
    return out


def scalar_matrix(
    source: FreeModule, target: FreeModule, rows: list[dict[int, Scalar]], check: bool = True
) -> GradedMatrix:
    """The matrix over k given as sparse rows {column: nonzero Scalar}, lifted
    to the algebra; `check` is GradedMatrix's homogeneity pass."""
    zero, scalar = source.algebra.zero(), source.algebra.scalar
    entries = [[scalar(row[j]) if j in row else zero for j in range(target.rank)] for row in rows]
    return GradedMatrix(source, target, entries, check=check)


def is_invertible(mat: GradedMatrix) -> tuple[bool, GradedMatrix | None]:
    """Invertibility over the graded algebra, with the inverse on success.

    A degree-0 matrix is invertible iff its scalar part S is invertible
    over k; the inverse is the finite Neumann series (I + N)^{-1} S^{-1}
    where N is the strictly-positive-degree remainder (nilpotent because
    entry degrees strictly descend through the finitely many generator
    degrees).  A matrix over k (N = 0) inverts as S^{-1} alone.  Either
    way both composites with the candidate must be identities.
    """
    if sorted(mat.source.shifts) != sorted(mat.target.shifts):
        return False, None
    s = scalar_part(mat)
    s_inv = linalg.invert(s)
    if s_inv is None:
        return False, None
    s_mat = scalar_matrix(mat.source, mat.target, s)
    s_inv_mat = scalar_matrix(mat.target, mat.source, s_inv)
    if mat == s_mat:
        # N = 0: the matrix lives over k, and S^{-1} is its inverse
        inverse = s_inv_mat
    else:
        # M = S (I + S^{-1}N), so M^{-1} = [sum_k (-S^{-1}N)^k] S^{-1}
        n_part = compose(s_inv_mat, mat - s_mat)  # target -> target
        series = identity_matrix(mat.target)
        term = series
        for _ in range(len(set(mat.source.shifts))):
            term = -compose(term, n_part)
            if term.is_zero():
                break
            series = series + term
        inverse = compose(series, s_inv_mat)
    # exactness guard: both composites must be identities
    if compose(mat, inverse) != identity_matrix(mat.source) or compose(
        inverse, mat
    ) != identity_matrix(mat.target):
        return False, None
    return True, inverse


# ---------------------------------------------------------------------------
# intertwiner solving
# ---------------------------------------------------------------------------


def solve_intertwiners(
    phi: GradedMatrix, phi_prime: GradedMatrix
) -> list[tuple[GradedMatrix, GradedMatrix]]:
    """All (alpha: F -> F', beta: G -> G') with compose(alpha, phi') =
    compose(phi, beta), as a k-basis of (alpha, beta) pairs.

    Unknown entries are expanded over the monomial basis of their forced
    degree, all of alpha's before all of beta's, and the homogeneous linear
    system is solved exactly over k.
    """
    if phi.algebra != phi_prime.algebra:
        raise AlgebraMismatch("factorizations over different algebras")
    algebra = phi.algebra
    F, G = phi.source, phi.target
    Gp = phi_prime.target
    # the column of an unknown mono at entry (i, j) of a block holds its
    # coefficients in alpha*phi' - phi*beta, keyed by residual entry

    def alpha_column(i, j, mono):
        # + mono * phi'[j][k] at residual (i, k)
        return [((i, k), {mono: ONE}, phi_prime.entries[j][k].terms) for k in range(Gp.rank)]

    def beta_column(i, j, mono):
        # - phi[i0][i] * mono at residual (i0, j)
        return [((i0, j), phi.entries[i0][i].terms, {mono: MINUS_ONE}) for i0 in range(F.rank)]

    blocks = ((F, phi_prime.source, alpha_column), (G, Gp, beta_column))
    unknowns: list[tuple[int, int, int, tuple]] = []  # (block, i, j, mono)
    columns = []
    for b, (source, target, column) in enumerate(blocks):
        for i in range(source.rank):
            for j in range(target.rank):
                for mono in algebra.monomials_of_degree(source.shifts[i] - target.shifts[j]):
                    unknowns.append((b, i, j, mono))
                    columns.append(column(i, j, mono))

    basis = []
    for vec in linalg.nullspace(algebra.slice_matrix(columns), len(unknowns)):
        entries = [[[algebra.zero()] * t.rank for _ in range(s.rank)] for s, t, _ in blocks]
        for col, c in vec.items():
            b, i, j, mono = unknowns[col]
            entries[b][i][j] = entries[b][i][j] + algebra.monomial(mono, c)
        alpha, beta = (GradedMatrix(s, t, e) for (s, t, _), e in zip(blocks, entries))
        basis.append((alpha, beta))
    return basis


class IsoVerdict(NamedTuple):
    """Outcome of randomized isomorphism testing.

    Iso verdicts carry a checked witness and are certain; negative verdicts
    are probabilistic (failures counts the exhausted trials).
    """

    isomorphic: bool
    alpha: GradedMatrix | None = None
    beta: GradedMatrix | None = None
    failures: int = 0


def probably_isomorphic(
    phi: GradedMatrix,
    phi_prime: GradedMatrix,
    trials: int = 32,
    seed: int = 0,
) -> IsoVerdict:
    """Sample the intertwiner space for a pair with both sides invertible."""
    if sorted(phi.source.shifts) != sorted(phi_prime.source.shifts) or sorted(
        phi.target.shifts
    ) != sorted(phi_prime.target.shifts):
        return IsoVerdict(False, failures=0)
    basis = solve_intertwiners(phi, phi_prime)
    if not basis:
        return IsoVerdict(False, failures=0)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        alpha = zero_matrix(phi.source, phi_prime.source)
        beta = zero_matrix(phi.target, phi_prime.target)
        for a_b, b_b in basis:
            c = Scalar.from_int(rng.randint(-1_000_000, 1_000_000))
            alpha = alpha + a_b.scale(c)
            beta = beta + b_b.scale(c)
        ok_a, _ = is_invertible(alpha)
        if not ok_a:
            failures += 1
            continue
        ok_b, _ = is_invertible(beta)
        if not ok_b:
            failures += 1
            continue
        if compose(alpha, phi_prime) != compose(phi, beta):
            failures += 1
            continue
        return IsoVerdict(True, alpha, beta, failures)
    return IsoVerdict(False, failures=failures)
