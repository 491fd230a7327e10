"""Exact dense linear algebra over any field whose elements support +,-,*,/ and == 0.

Used with Fraction and CycNum entries; matrices are lists of lists.
"""

from __future__ import annotations


def _is_zero(x) -> bool:
    return x == 0


def row_reduce(matrix: list[list], augment: int = 0):
    """In-place fraction-friendly Gauss-Jordan; returns (rank, pivot_columns).

    Only the first len(row) - augment columns are eligible as pivots.
    """
    rows = len(matrix)
    if rows == 0:
        return 0, []
    cols = len(matrix[0]) - augment
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if not _is_zero(matrix[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]
        matrix[rank] = [x / inv for x in matrix[rank]]
        for r in range(rows):
            if r != rank and not _is_zero(matrix[r][col]):
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return rank, pivots


def rank(matrix: list[list]) -> int:
    work = [list(row) for row in matrix]
    r, _ = row_reduce(work)
    return r


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


def invert(matrix: list[list], one, zero) -> list[list]:
    """Exact inverse; raises ValueError when singular."""
    n = len(matrix)
    work = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(matrix)]
    r, pivots = row_reduce(work, augment=n)
    if r < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]

