"""Dense exact linear algebra over the scalar field Q(i)(t).

Matrices are lists of row lists of Scalar.  Everything is plain Gaussian
elimination; sizes stay small (desk scale), exactness is what matters.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar


def coefficient_matrix(columns: list[dict]) -> list[list[Scalar]]:
    """Matrix of a k-linear map on a graded slice, one column per image.

    Each column is a ``{coordinate: Scalar}`` dict; there is one row per
    coordinate that occurs, in first-seen order, and absent ones read as 0.
    """
    index: dict = {}
    for col in columns:
        for key in col:
            index.setdefault(key, len(index))
    rows = [[ZERO] * len(columns) for _ in index]
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows[index[key]][j] = c
    return rows


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
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


def rank(rows: list[list[Scalar]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right nullspace of the matrix (rows of length ncols)."""
    if not rows:
        return [[ONE if j == k else ZERO for j in range(ncols)] for k in range(ncols)]
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def solve(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """One solution of A x = rhs, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [row + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def invert(rows: list[list[Scalar]]) -> list[list[Scalar]] | None:
    """Inverse of a square matrix over the field, or None when singular."""
    n = len(rows)
    aug = [rows[i][:] + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [m[i][n:] for i in range(n)]
