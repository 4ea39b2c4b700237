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

import random
from dataclasses import dataclass

from . import linalg
from .ncalgebra import (
    AlgebraMismatch,
    GradedAlgebra,
    GradedAutomorphism,
    NCPoly,
)
from .scalars import ZERO, Scalar


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
        from .ncalgebra import hilbert_series

        if not self.shifts:
            return [0] * (max_degree + 1)
        reach = max_degree - min(min(self.shifts), 0)
        base = hilbert_series(self.algebra, max(reach, 0))
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
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                want = self.source.shifts[i] - self.target.shifts[j]
                if not entry.is_homogeneous() or entry.degree() != want:
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

    def __add__(self, other: GradedMatrix) -> GradedMatrix:
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("sum of matrices with different shapes")
        return GradedMatrix(
            self.source,
            self.target,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            check=False,
        )

    def __sub__(self, other: GradedMatrix) -> GradedMatrix:
        return self + (-other)

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
    one = module.algebra.one()
    zero = module.algebra.zero()
    n = module.rank
    return GradedMatrix(
        module,
        module,
        [[one if i == j else zero for j in range(n)] for i in range(n)],
        check=False,
    )


def zero_matrix(source: FreeModule, target: FreeModule) -> GradedMatrix:
    zero = source.algebra.zero()
    return GradedMatrix(
        source,
        target,
        [[zero for _ in range(target.rank)] for _ in range(source.rank)],
        check=False,
    )


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


def compose(first: GradedMatrix, second: GradedMatrix) -> GradedMatrix:
    """Matrix of "first then second" = FIRST * SECOND."""
    if first.target != second.source:
        raise ShapeMismatch(
            f"composition mismatch: {first.target.shifts} vs {second.source.shifts}"
        )
    algebra = first.algebra
    rows = []
    for i in range(first.source.rank):
        row = []
        for k in range(second.target.rank):
            acc = algebra.zero()
            for j in range(first.target.rank):
                a = first.entries[i][j]
                b = second.entries[j][k]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            row.append(acc)
        rows.append(row)
    return GradedMatrix(first.source, second.target, rows, check=False)


def twist_matrix(
    mat: GradedMatrix, auto: GradedAutomorphism, shift: int
) -> GradedMatrix:
    """Matrix of the twisted map: entries auto^{-1}(entry), degrees + shift."""
    inv = auto.inverse()
    return GradedMatrix(
        mat.source.twisted(shift),
        mat.target.twisted(shift),
        [[inv(e) for e in row] for row in mat.entries],
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


def direct_sum(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    if a.algebra != b.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    algebra = a.algebra
    source = FreeModule(algebra, a.source.shifts + b.source.shifts)
    target = FreeModule(algebra, a.target.shifts + b.target.shifts)
    zero = algebra.zero()
    rows = []
    for i in range(a.source.rank):
        rows.append(list(a.entries[i]) + [zero] * b.target.rank)
    for i in range(b.source.rank):
        rows.append([zero] * a.target.rank + list(b.entries[i]))
    return GradedMatrix(source, target, rows, check=False)


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


def scalar_part(mat: GradedMatrix) -> list[list[Scalar]]:
    """Degree-0 entries as Scalars; positive-degree entries become 0.

    Requires equal shift multisets so the notion of an endomorphism-shaped
    matrix makes sense.
    """
    if sorted(mat.source.shifts) != sorted(mat.target.shifts):
        raise ShapeMismatch("scalar part needs equal shift multisets")
    out = []
    for i in range(mat.source.rank):
        row = []
        for j in range(mat.target.rank):
            if mat.source.shifts[i] == mat.target.shifts[j]:
                row.append(mat.entries[i][j].constant_term())
            else:
                row.append(ZERO)
        out.append(row)
    return out


def is_invertible(mat: GradedMatrix) -> tuple[bool, GradedMatrix | None]:
    """Invertibility over the graded algebra, with the inverse on success.

    A degree-0 matrix is invertible iff its scalar part is invertible over
    k; the inverse is the finite Neumann series (I + N)^{-1} S^{-1} where N
    is the strictly-positive-degree remainder (nilpotent because entry
    degrees strictly descend through the finitely many generator degrees).
    """
    if mat.source.rank != mat.target.rank:
        return False, None
    if sorted(mat.source.shifts) != sorted(mat.target.shifts):
        return False, None
    s = scalar_part(mat)
    s_inv = linalg.invert(s)
    if s_inv is None:
        return False, None
    algebra = mat.algebra
    n = mat.source.rank
    s_mat = GradedMatrix(
        mat.source,
        mat.target,
        [[algebra.scalar(s[i][j]) for j in range(n)] for i in range(n)],
    )
    s_inv_mat = GradedMatrix(
        mat.target,
        mat.source,
        [[algebra.scalar(s_inv[i][j]) for j in range(n)] for i in range(n)],
    )
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


@dataclass
class IntertwinerSpace:
    """k-basis of pairs (alpha, beta) with alpha*PHI' = PHI*beta."""

    phi: GradedMatrix
    phi_prime: GradedMatrix
    basis: list[tuple[GradedMatrix, GradedMatrix]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_intertwiners(
    phi: GradedMatrix, phi_prime: GradedMatrix
) -> IntertwinerSpace:
    """All (alpha: F -> F', beta: G -> G') with compose(alpha, phi') =
    compose(phi, beta), as a k-basis.

    Unknown entries are expanded over the monomial basis of their forced
    degree and the homogeneous linear system is solved exactly over k.
    """
    if phi.algebra != phi_prime.algebra:
        raise AlgebraMismatch("factorizations over different algebras")
    algebra = phi.algebra
    F, G = phi.source, phi.target
    Fp, Gp = phi_prime.source, phi_prime.target

    unknowns: list[tuple[str, int, int, tuple]] = []
    for i in range(F.rank):
        for j in range(Fp.rank):
            for mono in algebra.monomials_of_degree(F.shifts[i] - Fp.shifts[j]):
                unknowns.append(("a", i, j, mono))
    for i in range(G.rank):
        for j in range(Gp.rank):
            for mono in algebra.monomials_of_degree(G.shifts[i] - Gp.shifts[j]):
                unknowns.append(("b", i, j, mono))

    # column u: coefficients of unknown u in alpha*phi' - phi*beta, keyed by
    # (residual entry, PBW monomial)
    columns = []
    for kind, i, j, mono in unknowns:
        mono_poly = algebra.monomial(mono)
        col: dict[tuple[int, int, tuple], Scalar] = {}
        if kind == "a":
            # contributes + mono * phi'[j][k] at residual (i, k)
            for k in range(Gp.rank):
                for exps, c in (mono_poly * phi_prime.entries[j][k]).terms.items():
                    col[(i, k, exps)] = c
        else:
            # contributes - phi[i0][i] * mono at residual (i0, j)
            for i0 in range(F.rank):
                for exps, c in (phi.entries[i0][i] * mono_poly).terms.items():
                    col[(i0, j, exps)] = -c
        columns.append(col)

    null = linalg.nullspace(linalg.coefficient_matrix(columns), len(unknowns))
    basis: list[tuple[GradedMatrix, GradedMatrix]] = []
    for vec in null:
        a_entries = [[algebra.zero() for _ in range(Fp.rank)] for _ in range(F.rank)]
        b_entries = [[algebra.zero() for _ in range(Gp.rank)] for _ in range(G.rank)]
        for u, (kind, i, j, mono) in enumerate(unknowns):
            c = vec[u]
            if c.is_zero():
                continue
            term = algebra.monomial(mono, c)
            if kind == "a":
                a_entries[i][j] = a_entries[i][j] + term
            else:
                b_entries[i][j] = b_entries[i][j] + term
        basis.append(
            (
                GradedMatrix(F, Fp, a_entries),
                GradedMatrix(G, Gp, b_entries),
            )
        )
    return IntertwinerSpace(phi, phi_prime, basis)


@dataclass
class IsoVerdict:
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
    space = solve_intertwiners(phi, phi_prime)
    if not space.basis:
        return IsoVerdict(False, failures=0)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        alpha = zero_matrix(phi.source, phi_prime.source)
        beta = zero_matrix(phi.target, phi_prime.target)
        for a_b, b_b in space.basis:
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
