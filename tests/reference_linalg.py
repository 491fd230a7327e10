"""Reference copy of the forward-elimination determinant that `wfk.linalg`
replaced.

`det` eliminated below each pivot on its own, and multiplied the pivots as
it went.  `wfk.linalg.det` now reads the determinant that `row_reduce`
returns, the product of the Gauss-Jordan pivots times the sign of the row
swaps.  The function below is kept as it was, so that
`tests/test_linalg_reference.py` can check the one elimination against it.
"""

from __future__ import annotations

from wfk.linalg import _is_zero


def det(matrix: list[list], one):
    """Determinant by exact Gaussian elimination with row swaps."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    result = one
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not _is_zero(work[r][col]):
                pivot = r
                break
        if pivot is None:
            return one - one  # zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        p = work[col][col]
        result = result * p
        inv = one / p
        for r in range(col + 1, n):
            if not _is_zero(work[r][col]):
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    if sign < 0:
        result = -result
    return result
