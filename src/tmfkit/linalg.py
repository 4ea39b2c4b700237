"""Sparse exact Gauss-Jordan elimination over the scalar field Q(i)(t).

Matrices come in as lists of row lists of Scalar; ``GradedAlgebra.slice_matrix``
builds the matrix of a map on a graded slice.  One private elimination works
on sparse rows, ``{column: nonzero Scalar}`` dicts, visits only the nonzeros
of each pivot row and always runs Gauss-Jordan; ``rref``, ``nullspace``,
``solve``, ``invert`` and ``rank`` all read its pivot rows.  The reduced row
echelon form is unique, so the results do not depend on the pivot order.

``rank`` first peels singletons (LaMacchia and Odlyzko, 1990): a row or a
column with one nonzero left is zero off that entry, so over any field it
adds exactly one to the rank and goes with the other line through the entry.
Only the core left is eliminated.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar


def _sparse(rows: list[list[Scalar]]) -> list[dict]:
    """The nonzero rows as ``{column: nonzero Scalar}`` dicts; the shared ZERO
    that fills absent slice coordinates is skipped without a call."""
    sparse = (
        {j: x for j, x in enumerate(r) if x is not ZERO and not x.is_zero()} for r in rows
    )
    return [row for row in sparse if row]


def _eliminate(pending: list[dict]) -> list[tuple[int, dict]]:
    """Pivot rows of the sparse rows ``pending`` (consumed), as (pivot column,
    rest of the row) pairs in ascending pivot order; each pivot entry is one
    and is left out of the rest.

    Column by column, the first pending row with a nonzero in the column
    becomes the pivot row and the column is cleared from the other pending
    rows and from the earlier pivot rows, which gives the reduced row echelon
    form.  Fill-in stays in columns that hold a nonzero, so only those are
    visited."""
    done: list[tuple[int, dict]] = []
    for c in sorted({j for row in pending for j in row}):
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is None:
            continue
        rest = pending.pop(k)
        inv = rest.pop(c).inverse()
        if inv != ONE:
            rest = {j: x * inv for j, x in rest.items()}
        for other in pending + [r for _, r in done]:
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
    done = _eliminate(_sparse(rows))
    m = [[ZERO] * ncols for _ in rows]
    for row, (c, rest) in zip(m, done):
        row[c] = ONE
        for j, x in rest.items():
            row[j] = x
    return m, [c for c, _ in done]


def rank(rows: list[list[Scalar]]) -> int:
    """Rank of the matrix.  While a row or a column has one nonzero left, at
    (r, c), the rank goes up by one and row r and column c go: that line is
    zero off (r, c), so rank M = 1 + rank(M without row r and column c) over
    any field, and no entry is read or changed.  Only the core left, a
    submatrix of original entries, is eliminated."""
    sparse = _sparse(rows)
    row_cols = {i: set(row) for i, row in enumerate(sparse)}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(sparse):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    # (lines, crossing lines, line) for each row with one column left and each
    # column with one row left; peeling it removes both lines through its entry
    todo = [(row_cols, col_rows, i) for i, cols in row_cols.items() if len(cols) == 1]
    todo += [(col_rows, row_cols, j) for j, rs in col_rows.items() if len(rs) == 1]
    peeled = 0
    while todo:
        lines, crossing, k = todo.pop()
        if len(lines.get(k, ())) != 1:
            continue
        (x,) = lines.pop(k)
        peeled += 1
        for other in crossing.pop(x) - {k}:
            lines[other].discard(x)
            if len(lines[other]) == 1:
                todo.append((lines, crossing, other))
    core = [{j: sparse[i][j] for j in cols} for i, cols in row_cols.items() if cols]
    return peeled + (len(_eliminate(core)) if core else 0)


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right nullspace of the matrix (rows of length ncols)."""
    done = _eliminate(_sparse(rows))
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
    done = _eliminate(_sparse([row + [b] for row, b in zip(rows, rhs)]))
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
    done = _eliminate(_sparse(aug))
    if [c for c, _ in done] != list(range(n)):
        return None
    return [[rest.get(n + j, ZERO) for j in range(n)] for _, rest in done]
