"""Test-side oracles: fraction-free Gauss-Jordan elimination (Bareiss) and
what it reads off, the signed determinant, the rank and one rational
solution.  The runtime reads ranks and |det| off Hermite forms instead, so
these share no elimination with it.  ``determinant`` is checked against the
Leibniz sum in ``test_linalg``."""

from fractions import Fraction


def gauss_jordan(matrix, cols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer
    ``matrix`` in its first ``cols`` columns; any further columns (a
    right-hand side) are carried along.  The pivot of each column is its
    first nonzero entry at or below the current row.  A step with pivot p
    replaces every other row x by (p x - x_c r) / p_prev, r the pivot row and
    p_prev the previous pivot (1 at first).  The division is exact: every
    entry is then a minor of the input (Sylvester's identity).  Each earlier
    pivot entry becomes p, so at the end the rows are d times the reduced
    row echelon form, d the last pivot.  Returns the rows, the pivot columns,
    and d negated once per row swap: the determinant when the matrix is
    square of full rank."""
    a = [list(row) for row in matrix]
    nr = len(a)
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        pivots.append(c)
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[c]
        for i in range(nr):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
        r += 1
    return a, pivots, sign * prev


def determinant(m):
    """Exact determinant of a square integer matrix."""
    n = len(m)
    _, pivots, det = gauss_jordan(m, n)
    return det if len(pivots) == n else 0


def gauss_jordan_rank(m):
    """Rank of an integer matrix: its number of elimination pivots."""
    return len(gauss_jordan(m, len(m[0]) if m else 0)[1])


def solve_rational(matrix, rhs):
    """One rational solution of M x = rhs for integer M and rhs, or None if
    inconsistent."""
    nc = len(matrix[0]) if matrix else 0
    a, pivots, _ = gauss_jordan(
        [list(row) + [rhs[i]] for i, row in enumerate(matrix)], nc)
    if any(row[nc] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * nc
    for k, c in enumerate(pivots):
        x[c] = Fraction(a[k][nc], a[k][c])
    return x
