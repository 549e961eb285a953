"""Dense exact-rational linear algebra for small matrices.

Matrices are lists of lists of Fractions.  Pivot selection prefers nonzero
entries whose numerator and denominator have the fewest bits, which keeps
intermediate values small and, with the fixed tie-break on row order, makes
the elimination deterministic.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _pivot_weight(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _reduce(rows: list, width: int) -> int:
    """Gauss-Jordan elimination, in place, on the first `width` columns of
    `rows`; any further columns undergo the same row operations.  Returns the
    rank of those first columns."""
    rk = 0
    for col in range(width):
        nonzero = [r for r in range(rk, len(rows)) if rows[r][col] != 0]
        if not nonzero:
            continue
        pivot_row = min(nonzero, key=lambda r: _pivot_weight(rows[r][col]))
        rows[rk], rows[pivot_row] = rows[pivot_row], rows[rk]
        pv = rows[rk][col]
        if pv != 1:
            rows[rk] = [x / pv for x in rows[rk]]
        for r, row in enumerate(rows):
            factor = row[col]
            if factor and r != rk:
                rows[r] = [x - factor * y for x, y in zip(row, rows[rk])]
        rk += 1
    return rk


def invert(matrix) -> list:
    """Gauss-Jordan inverse; None when the matrix is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("square matrix required")
    rows = [list(row) + unit for row, unit in zip(matrix, identity(n))]
    if _reduce(rows, n) < n:
        return None
    return [row[n:] for row in rows]


def rank(matrix) -> int:
    """Rank of a matrix, rectangular or square."""
    rows = [list(row) for row in matrix]
    return _reduce(rows, len(rows[0]) if rows else 0)
