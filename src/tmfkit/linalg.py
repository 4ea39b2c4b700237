"""Sparse exact Gauss-Jordan elimination over the scalar field Q(i)(t).

A matrix is a list of sparse rows, ``{column: nonzero Scalar}`` dicts; an
entry that a row does not hold is 0.  ``GradedAlgebra.slice_matrix`` builds
the matrix of a map on a graded slice.  One private elimination visits only
the nonzeros of each pivot row and always runs Gauss-Jordan; ``rref``,
``nullspace``, ``solve``, ``invert`` and ``rank`` all read its pivot rows, and
none of them changes the rows it is given.  The reduced row echelon form is
unique, so the results do not depend on the pivot order.

``rank`` first peels singletons (LaMacchia and Odlyzko, 1990): a row or a
column with one nonzero left is zero off that entry, so over any field it
adds exactly one to the rank and goes with the other line through the entry.
Only the core left is eliminated.
"""

from __future__ import annotations

from .scalars import ONE, Scalar

Rows = list[dict[int, Scalar]]


def _eliminate(pending: Rows) -> list[tuple[int, dict]]:
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


def rref(rows: Rows) -> list[tuple[int, dict]]:
    """The nonzero rows of the reduced row echelon form, as (pivot column,
    row) pairs in ascending pivot order; each row holds its pivot entry one."""
    return [(c, {c: ONE, **rest}) for c, rest in _eliminate([dict(row) for row in rows])]


def rank(rows: Rows) -> int:
    """Rank of the matrix.  While a row or a column has one nonzero left, at
    (r, c), the rank goes up by one and row r and column c go: that line is
    zero off (r, c), so rank M = 1 + rank(M without row r and column c) over
    any field, and no entry is read or changed.  Only the core left, a
    submatrix of original entries, is eliminated."""
    row_cols = {i: set(row) for i, row in enumerate(rows) if row}
    col_rows: dict[int, set[int]] = {}
    for i, cols in row_cols.items():
        for j in cols:
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
    core = [{j: rows[i][j] for j in cols} for i, cols in row_cols.items() if cols]
    return peeled + (len(_eliminate(core)) if core else 0)


def nullspace(rows: Rows, ncols: int) -> Rows:
    """Basis of the right nullspace of the matrix on ncols columns, as sparse
    vectors: one per non-pivot column, which holds one there.  A pivot row
    holds no column left of its pivot, so each vector's columns ascend."""
    done = _eliminate([dict(row) for row in rows])
    pivots = {c for c, _ in done}
    return [
        {pc: -rest[fc] for pc, rest in done if fc in rest} | {fc: ONE}
        for fc in range(ncols)
        if fc not in pivots
    ]


def solve(rows: Rows, rhs: list[Scalar], ncols: int) -> dict[int, Scalar] | None:
    """One solution of A x = rhs for A on ncols columns, as a sparse vector,
    or None when inconsistent."""
    aug = [{**row, ncols: b} if not b.is_zero() else dict(row) for row, b in zip(rows, rhs)]
    done = _eliminate(aug)
    if done and done[-1][0] == ncols:
        return None
    return {pc: rest[ncols] for pc, rest in done if ncols in rest}


def invert(rows: Rows) -> Rows | None:
    """Inverse of a square matrix over the field, or None when singular."""
    n = len(rows)
    done = _eliminate([{**row, n + i: ONE} for i, row in enumerate(rows)])
    if [c for c, _ in done] != list(range(n)):
        return None
    # every column below n is a pivot, so each rest lies in the right half
    return [{j - n: x for j, x in rest.items()} for _, rest in done]
