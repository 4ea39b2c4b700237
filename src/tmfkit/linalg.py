"""Sparse exact Gauss-Jordan elimination over the scalar field Q(i)(t).

Matrices come in as lists of row lists of Scalar; ``GradedAlgebra.slice_matrix``
builds the matrix of a map on a graded slice.  One private elimination works
on sparse rows, ``{column: nonzero Scalar}`` dicts, and visits only the
nonzeros of each pivot row: forward-only for ``rank``, Gauss-Jordan for
``rref``, ``nullspace``, ``solve`` and ``invert``.  The reduced row echelon
form is unique, so the results do not depend on the pivot order.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar


def _eliminate(rows: list[list[Scalar]], jordan: bool) -> list[tuple[int, dict]]:
    """Pivot rows of the matrix, as (pivot column, rest of the row) pairs in
    ascending pivot order.  Each pivot entry is one and is left out of the
    rest, a ``{column: nonzero Scalar}`` dict.

    Column by column, the first pending row with a nonzero in the column
    becomes the pivot row and the column is cleared from the pending rows
    below it; with ``jordan`` it is cleared from the earlier pivot rows too,
    which gives the reduced row echelon form."""
    pending = []
    for r in rows:
        row = {j: x for j, x in enumerate(r) if not x.is_zero()}
        if row:
            pending.append(row)
    done: list[tuple[int, dict]] = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is None:
            continue
        rest = pending.pop(k)
        inv = rest.pop(c).inverse()
        if inv != ONE:
            rest = {j: x * inv for j, x in rest.items()}
        for other in (pending + [r for _, r in done]) if jordan else pending:
            factor = other.pop(c, None)
            if factor is None:
                continue
            factor = -factor
            for j, x in rest.items():
                y = other.get(j)
                if y is None:
                    other[j] = factor * x
                else:
                    y = y + factor * x
                    if y.is_zero():
                        del other[j]
                    else:
                        other[j] = y
        done.append((c, rest))
        pending = [row for row in pending if row]
        if not pending:
            break
    return done


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    ncols = len(rows[0]) if rows else 0
    done = _eliminate(rows, jordan=True)
    m = [[ZERO] * ncols for _ in rows]
    for row, (c, rest) in zip(m, done):
        row[c] = ONE
        for j, x in rest.items():
            row[j] = x
    return m, [c for c, _ in done]


def rank(rows: list[list[Scalar]]) -> int:
    return len(_eliminate(rows, jordan=False))


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right nullspace of the matrix (rows of length ncols)."""
    done = _eliminate(rows, jordan=True)
    pivots = {c for c, _ in done}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for pc, rest in done:
            if fc in rest:
                vec[pc] = -rest[fc]
        basis.append(vec)
    return basis


def solve(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """One solution of A x = rhs, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    done = _eliminate([row + [b] for row, b in zip(rows, rhs)], jordan=True)
    if done and done[-1][0] == ncols:
        return None
    x = [ZERO] * ncols
    for pc, rest in done:
        x[pc] = rest.get(ncols, ZERO)
    return x


def invert(rows: list[list[Scalar]]) -> list[list[Scalar]] | None:
    """Inverse of a square matrix over the field, or None when singular."""
    n = len(rows)
    aug = [rows[i][:] + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    done = _eliminate(aug, jordan=True)
    if [c for c, _ in done] != list(range(n)):
        return None
    return [[rest.get(n + j, ZERO) for j in range(n)] for _, rest in done]
