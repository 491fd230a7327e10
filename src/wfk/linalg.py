"""Exact dense linear algebra over any field whose elements support +,-,*,/ and == 0.

Used with Fraction and CycNum entries; matrices are lists of lists.
"""

from __future__ import annotations


def _is_zero(x) -> bool:
    return x == 0


def row_reduce(matrix: list[list], augment: int = 0):
    """In-place fraction-friendly Gauss-Jordan; returns (rank, pivot_columns, det).

    Only the first len(row) - augment columns are eligible as pivots; `det` is
    their determinant when they form a square block: the product of the
    pivots times the sign of the row swaps.
    """
    rows = len(matrix)
    if rows == 0:
        return 0, [], 1
    cols = len(matrix[0]) - augment
    rank = 0
    pivots = []
    det = 1
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if not _is_zero(matrix[r][col]):
                pivot = r
                break
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            det = -det
        inv = matrix[rank][col]
        det = det * inv
        matrix[rank] = [x / inv for x in matrix[rank]]
        for r in range(rows):
            if r != rank and not _is_zero(matrix[r][col]):
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return rank, pivots, det


def rank(matrix: list[list]) -> int:
    work = [list(row) for row in matrix]
    r, _, _ = row_reduce(work)
    return r


def det(matrix: list[list], one):
    """Determinant of a square matrix by exact Gauss-Jordan elimination."""
    _, _, d = row_reduce([list(row) for row in matrix])
    return one * d


def invert(matrix: list[list], one, zero) -> list[list]:
    """Exact inverse; raises ValueError when singular."""
    n = len(matrix)
    work = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(matrix)]
    r, _, _ = row_reduce(work, augment=n)
    if r < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]

