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


def invert(matrix) -> list:
    """Gauss-Jordan inverse; None when the matrix is singular."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("square matrix required")
    inv = identity(n)
    for col in range(n):
        pivot_row = -1
        best = None
        for r in range(col, n):
            if a[r][col] != 0:
                w = _pivot_weight(a[r][col])
                if best is None or w < best:
                    pivot_row, best = r, w
        if pivot_row < 0:
            return None
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pv = a[col][col]
        if pv != 1:
            a[col] = [x / pv for x in a[col]]
            inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


def rank(matrix) -> int:
    """Rank by forward elimination (works for rectangular input)."""
    a = [list(row) for row in matrix]
    if not a:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rk = 0
    for col in range(n_cols):
        pivot_row = -1
        best = None
        for r in range(rk, n_rows):
            if a[r][col] != 0:
                w = _pivot_weight(a[r][col])
                if best is None or w < best:
                    pivot_row, best = r, w
        if pivot_row < 0:
            continue
        a[rk], a[pivot_row] = a[pivot_row], a[rk]
        pv = a[rk][col]
        for r in range(rk + 1, n_rows):
            factor = a[r][col]
            if factor:
                a[r] = [x - (factor / pv) * y for x, y in zip(a[r], a[rk])]
        rk += 1
        if rk == n_rows:
            break
    return rk
