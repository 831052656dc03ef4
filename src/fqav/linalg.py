"""Exact integer/rational linear algebra: Smith and Hermite normal forms,
lattices and their integer kernels (saturation, orthogonal complements,
fixed lattices), and affine congruence solving on the torus R^N / Z^N.

Everything here is exact: matrices are lists/tuples of Python ints, and a
torsion point is an int vector over one common denominator.  Only
``solve_rational`` and the ``TorsionPoint.coords`` view return
fractions.Fraction.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod


# ---------------------------------------------------------------------------
# basic matrix helpers (row-major lists of lists)

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Exact matrix product; entries may be int or Fraction.  Row i of AB is
    the sum of a_ik B_k over the nonzero a_ik only, so a zero entry costs
    nothing: holonomies are block-monomial, with about one nonzero entry per row."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = None
        for x, b_row in zip(row, b):
            if x:
                if acc is None:
                    acc = [x * y for y in b_row]
                else:
                    acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append([0] * width if acc is None else acc)
    return out


def mat_vec(m, v):
    return [sum(map(operator.mul, row, v)) for row in m]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def _gauss_jordan(matrix, cols):
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
        pivots.append(c)
        r += 1
    return a, pivots, sign * prev


def determinant(m):
    """Exact determinant of a square integer matrix."""
    n = len(m)
    _, pivots, det = _gauss_jordan(m, n)
    return det if len(pivots) == n else 0


# ---------------------------------------------------------------------------
# Smith normal form

def snf(matrix):
    """Smith normal form with transforms: returns (S, U, V) with U*M*V = S,
    U and V unimodular, S diagonal with nonnegative entries s1 | s2 | ...

    Pivoting is deterministic: smallest absolute value, ties broken by lowest
    row index then lowest column index.
    """
    a = [[int(x) for x in row] for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):  # row dst += k * row src
        if k:
            a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        if k:
            for row in a:
                row[dst] += k * row[src]
            for row in v:
                row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def diagonalize():
        t = 0
        while t < min(nr, nc):
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    val = abs(a[i][j])
                    if val and (best is None or val < best[0]):
                        best = (val, i, j)
            if best is None:
                break
            swap_rows(t, best[1])
            swap_cols(t, best[2])
            if a[t][t] < 0:
                negate_row(t)
            while True:
                for i in range(t + 1, nr):
                    if a[i][t]:
                        add_row(t, i, -(a[i][t] // a[t][t]))
                rem = [i for i in range(t + 1, nr) if a[i][t]]
                if rem:
                    i = min(rem, key=lambda k: (abs(a[k][t]), k))
                    swap_rows(t, i)
                    if a[t][t] < 0:
                        negate_row(t)
                    continue
                for j in range(t + 1, nc):
                    if a[t][j]:
                        add_col(t, j, -(a[t][j] // a[t][t]))
                rem = [j for j in range(t + 1, nc) if a[t][j]]
                if rem:
                    j = min(rem, key=lambda k: (abs(a[t][k]), k))
                    swap_cols(t, j)
                    if a[t][t] < 0:
                        negate_row(t)
                    continue
                break
            t += 1
        return t

    rank = diagonalize()
    # enforce the divisibility chain s_i | s_{i+1}
    while True:
        bad = None
        for i in range(rank - 1):
            if a[i][i] and a[i + 1][i + 1] % a[i][i] != 0:
                bad = i
                break
        if bad is None:
            break
        add_col(bad + 1, bad, 1)
        rank = diagonalize()
    return a, u, v


def elementary_divisors(matrix):
    s, _, _ = snf(matrix)
    n = min(len(s), len(s[0]) if s else 0)
    return [s[i][i] for i in range(n) if s[i][i] != 0]


# ---------------------------------------------------------------------------
# Hermite-style canonical basis for row lattices

def hermite_basis(vectors, width):
    """Canonical basis (row HNF, positive pivots, reduced above) of the
    lattice generated by the given integer vectors."""
    rows = [list(map(int, vec)) for vec in vectors if any(vec)]
    pivots = []
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            for i in nz:
                if i != i0:
                    q = rows[i][c] // rows[i0][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
        nz = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pivots.append(c)
        r += 1
    rows = [row for row in rows[:r]]
    # reduce above the pivots: for each row, clear against the lower pivot
    # rows left to right so later subtractions cannot un-reduce a column
    for i in range(r - 2, -1, -1):
        for k in range(i + 1, r):
            c = pivots[k]
            q = rows[i][c] // rows[k][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
    return rows


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^ambient_rank, stored via its canonical HNF basis."""

    ambient_rank: int
    basis: tuple

    @classmethod
    def from_vectors(cls, ambient_rank, vectors):
        rows = hermite_basis(vectors, ambient_rank)
        return cls(ambient_rank, tuple(tuple(r) for r in rows))

    @classmethod
    def full(cls, ambient_rank):
        return cls.from_vectors(ambient_rank, identity_matrix(ambient_rank))

    @classmethod
    def zero(cls, ambient_rank):
        return cls(ambient_rank, ())

    @property
    def rank(self):
        return len(self.basis)

    def basis_rows(self):
        return [list(r) for r in self.basis]

    def coordinates(self, vector):
        """The integer x with sum x_k basis_k = vector, or None when the
        vector is not in the lattice.  The basis is in Hermite form, so x_k
        is read off the k-th pivot once the earlier rows are subtracted."""
        rest = list(vector)
        out = []
        for row in self.basis:
            c = next(j for j, x in enumerate(row) if x)
            q, r = divmod(rest[c], row[c])
            if r:
                return None
            if q:
                rest = [x - q * y for x, y in zip(rest, row)]
            out.append(q)
        return None if any(rest) else out


def saturate(lat: Lattice) -> Lattice:
    """Saturation (L tensor Q) intersect Z^N: same rank, torsion-free quotient.
    It is the annihilator of the annihilator of L."""
    return integer_kernel(orthogonal_complement_rows(lat), lat.ambient_rank)


def integer_kernel(matrix, cols) -> Lattice:
    """Saturated lattice {x in Z^cols : M x = 0}.

    The Hermite form of [M^T | I] is [H | U] with U unimodular, and the
    U-parts of its rows whose H-part is zero are a basis of the kernel."""
    nr = len(matrix)
    rows = [[matrix[i][j] for i in range(nr)] + [int(j == k) for k in range(cols)]
            for j in range(cols)]
    h = hermite_basis(rows, nr + cols)
    return Lattice.from_vectors(cols, [row[nr:] for row in h if not any(row[:nr])])


def fixed_lattice(matrices, rank) -> Lattice:
    """Saturated lattice of the vectors fixed by every matrix W: the common
    kernel of the I - W; all of Z^rank when there are no matrices."""
    ident = identity_matrix(rank)
    return integer_kernel([row for w in matrices for row in mat_sub(ident, w)], rank)


def solve_rational(matrix, rhs):
    """One rational solution of M x = rhs for integer M and rhs, or None if
    inconsistent."""
    nc = len(matrix[0]) if matrix else 0
    a, pivots, _ = _gauss_jordan(
        [list(row) + [rhs[i]] for i, row in enumerate(matrix)], nc)
    if any(row[nc] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * nc
    for k, c in enumerate(pivots):
        x[c] = Fraction(a[k][nc], a[k][c])
    return x


# ---------------------------------------------------------------------------
# torsion points and affine congruences on the torus

@dataclass(frozen=True)
class TorsionPoint:
    """A rational point num / den of the torus R^N / Z^N.  den is the least
    common denominator of the coordinates, and num holds ints in [0, den)
    with gcd(den, *num) = 1, so equal points compare and hash equal."""

    num: tuple
    den: int

    @classmethod
    def over(cls, num, den):
        """The point num / den for ints num and den > 0, reduced mod 1 and to
        lowest terms."""
        if den == 1:
            return cls((0,) * len(num), 1)
        num = [x % den for x in num]
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        return cls(tuple(num), den)

    @classmethod
    def of(cls, coords):
        """The point with these int or Fraction coordinates."""
        den = lcm(*(c.denominator for c in coords))
        return cls.over([c.numerator * (den // c.denominator) for c in coords], den)

    @classmethod
    def zero(cls, n):
        return cls((0,) * n, 1)

    @property
    def coords(self):
        """The coordinates in [0, 1), as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def order(self):
        return self.den

    def is_zero(self):
        return self.den == 1

    def __add__(self, other):
        if other.den == 1:
            return self
        if self.den == 1:
            return other
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return TorsionPoint.over([a * fa + b * fb for a, b in zip(self.num, other.num)], den)

    def __neg__(self):
        return TorsionPoint(tuple(-x % self.den for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return TorsionPoint.over([k * x for x in self.num], self.den)

    def apply_matrix(self, m):
        """The point M x for an integer matrix M with N columns."""
        if self.den == 1:
            return TorsionPoint.zero(len(m))
        return TorsionPoint.over(mat_vec(m, self.num), self.den)

    def sort_key(self):
        """(numerator, denominator) of each coordinate in lowest terms."""
        key = []
        for x in self.num:
            g = gcd(x, self.den)
            key.append((x // g, self.den // g))
        return tuple(key)


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solution set of M x == a (mod Z^N) on the torus: empty, or
    ``component_count`` translates of the kernel subtorus.  With U M V = S
    in Smith form, a = num / den and b = U num mod den, they are the V y with
    y_i = (b_i / den + k_i) / s_i, 0 <= k_i < s_i, on the nonzero divisors
    s_i.  ``representatives``, one point per translate, are enumerated when
    first read."""

    nonempty: bool
    kernel: Lattice
    divisors: tuple   # the nonzero s_i
    rhs: tuple        # the b_i
    den: int          # the denominator of a
    transform: tuple  # V

    @property
    def dim(self):
        """Complex dimension of each translate; None when empty."""
        return self.kernel.rank // 2 if self.nonempty else None

    @property
    def component_count(self):
        return prod(self.divisors) if self.nonempty else 0

    @cached_property
    def representatives(self):
        """Over the one denominator den s_r, s_r the last divisor, y_i has
        numerator (b_i + k_i den) (s_r / s_i), an int by s_i | s_r."""
        if not self.nonempty:
            return ()
        den = self.den
        top = self.divisors[-1] if self.divisors else 1
        scales = [top // s for s in self.divisors]
        free = [0] * (self.kernel.ambient_rank - len(self.divisors))
        reps = []
        for combo in itertools.product(*map(range, self.divisors)):
            y = [(b + k * den) * f for b, k, f in zip(self.rhs, combo, scales)]
            reps.append(TorsionPoint.over(mat_vec(self.transform, y + free), den * top))
        return tuple(sorted(reps, key=TorsionPoint.sort_key))


def solve_affine_mod_lattice(matrix, point: TorsionPoint) -> AffineSolutionSet:
    """Describe {x in R^N/Z^N : M x == a (mod Z^N)} via Smith normal form.

    Accepts any integer matrix with N columns; rows need not equal N.  The
    set is nonempty iff b_i == 0 (mod den) for every i at or beyond the rank.
    """
    nr = len(matrix)
    nc = len(matrix[0]) if nr else len(point.num)
    s, u, v = snf(matrix) if nr else ([], [], identity_matrix(nc))
    divisors = tuple(s[i][i] for i in range(min(nr, nc)) if s[i][i] != 0) if nr else ()
    rank = len(divisors)
    kernel = Lattice.from_vectors(nc, mat_transpose(v)[rank:])
    den = point.den
    b = [0] * nr if den == 1 else [x % den for x in mat_vec(u, point.num)]
    nonempty = not any(b[rank:])
    return AffineSolutionSet(nonempty, kernel, divisors, tuple(b[:rank]), den,
                             tuple(map(tuple, v)))


def orthogonal_complement_rows(lat: Lattice) -> list:
    """Basis of the saturated integer lattice {v : v . w = 0 for all w in L}.

    With these rows K, the subtorus (span(L)+Z^N)/Z^N is exactly
    {x : K x in Z^rows}.
    """
    return integer_kernel(lat.basis_rows(), lat.ambient_rank).basis_rows()
