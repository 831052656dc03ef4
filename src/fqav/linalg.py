"""Exact integer/rational linear algebra: Smith and Hermite normal forms,
lattices and their integer kernels (saturation, orthogonal complements,
fixed lattices), and affine congruence solving on the torus R^N / Z^N.

Everything here is exact: matrices are lists/tuples of Python ints, and a
torsion point is an int vector over one common denominator.  Only the
``TorsionPoint.coords`` view returns fractions.Fraction.  No floating point
anywhere.
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


def vec_mat(v, b):
    """The row vector v B, for v and the rows of B of ints or Fractions: the
    sum of v_k B_k over the nonzero v_k only, so a zero entry costs nothing.
    Holonomies are block-monomial, with about one nonzero entry per row."""
    acc = None
    for x, b_row in zip(v, b):
        if x:
            if acc is None:
                acc = [x * y for y in b_row]
            else:
                acc = [s + x * y for s, y in zip(acc, b_row)]
    if acc is None:
        return [0] * (len(b[0]) if b else 0)
    return acc


def mat_mul(a, b):
    """Exact matrix product, row by row: row i of AB is (row i of A) B."""
    return [vec_mat(row, b) for row in a]


def mat_vec(m, v):
    return [sum(map(operator.mul, row, v)) for row in m]


def identity_minus(w):
    """I - W for a square matrix W, in one pass over its entries."""
    return [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(w)]


def mat_transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


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


# ---------------------------------------------------------------------------
# Hermite-style canonical basis for row lattices

def hermite_basis(vectors, width):
    """Canonical basis (row HNF, positive pivots, reduced above) of the
    lattice generated by the given integer vectors.  Each column is cleared
    below its pivot by one extended-gcd row step per row (H. Cohen, A
    Course in Computational Algebraic Number Theory, 2.4.2): rows p and x
    with entries a and b become u p + v x and (a/d) x - (b/d) p, with
    u a + v b = d = gcd(a, b), a unimodular step.  Both rows are 0 left of
    the column, so only the columns from it on change.  The row HNF is
    unique, so the basis does not depend on the steps taken."""
    rows = [list(map(int, vec)) for vec in vectors if any(vec)]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        if r == nr:
            break
        nz = [i for i in range(r, nr) if rows[i][c]]
        if not nz:
            continue
        top = rows[nz[0]]
        rows[nz[0]] = rows[r]
        a = top[c]
        for i in nz[1:]:
            x = rows[i]
            b = x[c]
            if b % a == 0:
                q = b // a
                x[c:] = [xk - q * yk for xk, yk in zip(x[c:], top[c:])]
            else:
                d = gcd(a, b)
                a_d, b_d = a // d, b // d
                u = pow(a_d, -1, abs(b_d))
                v = (d - u * a) // b
                tail, x_tail = top[c:], x[c:]
                top[c:] = [u * yk + v * xk for yk, xk in zip(tail, x_tail)]
                x[c:] = [a_d * xk - b_d * yk for yk, xk in zip(tail, x_tail)]
                a = d
        if a < 0:
            top[c:] = [-y for y in top[c:]]
        rows[r] = top
        pivots.append(c)
        r += 1
    rows = rows[:r]
    # reduce above the pivots: for each row, clear against the lower pivot
    # rows left to right so later subtractions cannot un-reduce a column
    for i in range(r - 2, -1, -1):
        row = rows[i]
        for k in range(i + 1, r):
            c = pivots[k]
            q = row[c] // rows[k][c]
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], rows[k][c:])]
    return rows


def matrix_rank(m):
    """Rank of an integer matrix: the number of rows of its Hermite form."""
    return len(hermite_basis(m, len(m[0]) if m else 0))


def abs_determinant(m):
    """|det M| of a square integer matrix: the product of the diagonal of
    its Hermite form, reached by unimodular row steps, or 0 below full
    rank."""
    n = len(m)
    h = hermite_basis(m, n)
    return prod(row[i] for i, row in enumerate(h)) if len(h) == n else 0


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

    @cached_property
    def complement_rows(self):
        """``orthogonal_complement_rows`` of this lattice, computed once."""
        return orthogonal_complement_rows(self)

    @cached_property
    def pivots(self):
        """The pivot column of each basis row."""
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def coordinates(self, vector):
        """The integer x with sum x_k basis_k = vector, or None when the
        vector is not in the lattice.  The basis is in Hermite form, so x_k
        is read off the k-th pivot once the earlier rows are subtracted."""
        rest = list(vector)
        out = []
        for row, c in zip(self.basis, self.pivots):
            q, r = divmod(rest[c], row[c])
            if r:
                return None
            if q:
                rest = [x - q * y for x, y in zip(rest, row)]
            out.append(q)
        return None if any(rest) else out


def integer_kernel(matrix, cols) -> Lattice:
    """Saturated lattice {x in Z^cols : M x = 0}.

    The Hermite form of [M^T | I] is [H | U] with U unimodular, and the
    U-parts of its rows whose H-part is zero are a basis of the kernel.
    Those rows come last, so their pivots lie in the U-part, and only rows
    among them reduced them above their pivots: their U-parts are already
    the kernel's Hermite basis."""
    nr = len(matrix)
    rows = [[matrix[i][j] for i in range(nr)] + [int(j == k) for k in range(cols)]
            for j in range(cols)]
    h = hermite_basis(rows, nr + cols)
    return Lattice(cols, tuple(tuple(row[nr:]) for row in h if not any(row[:nr])))


def fixed_lattice(matrices, rank) -> Lattice:
    """Saturated lattice of the vectors fixed by every matrix W: the common
    kernel of the I - W; all of Z^rank when there are no matrices."""
    return integer_kernel([row for w in matrices for row in identity_minus(w)], rank)


# ---------------------------------------------------------------------------
# torsion points and affine congruences on the torus

@dataclass(frozen=True)
class TorsionPoint:
    """A rational point num / den of the torus R^N / Z^N.  den is the least
    common denominator of the coordinates, and num holds ints in [0, den)
    with gcd(den, *num) = 1, so equal points compare and hash equal."""

    num: tuple
    den: int
    _sort_key = None  # not a field: ``sort_key`` keeps its value here

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
        """(numerator, denominator) of each coordinate in lowest terms,
        computed once; a zero coordinate is (0, 1) with no gcd."""
        key = self._sort_key
        if key is None:
            key = []
            for x in self.num:
                if x:
                    g = gcd(x, self.den)
                    key.append((x // g, self.den // g))
                else:
                    key.append((0, 1))
            key = tuple(key)
            object.__setattr__(self, "_sort_key", key)
        return key


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


def factor_affine(matrix, cols):
    """The Smith factorisation of an integer matrix with ``cols`` columns,
    for solving M x == a (mod Z^cols) for many a: the tuple (U, divisors, V,
    kernel) with U M V = S, divisors the nonzero s_i and kernel the lattice
    of the last columns of V, {x in Z^cols : M x = 0}.  ``cols`` gives the
    width of a matrix with no rows."""
    nr = len(matrix)
    if not nr:
        return (), (), tuple(map(tuple, identity_matrix(cols))), Lattice.full(cols)
    s, u, v = snf(matrix)
    divisors = tuple(s[i][i] for i in range(min(nr, cols)) if s[i][i] != 0)
    kernel = Lattice.from_vectors(cols, mat_transpose(v)[len(divisors):])
    return u, divisors, tuple(map(tuple, v)), kernel


def solve_factored(factors, point: TorsionPoint) -> AffineSolutionSet:
    """The solutions of M x == a (mod Z^N), a = ``point``, from the
    ``factor_affine`` tuple of M: b = U num mod den, and the set is nonempty
    iff b_i == 0 (mod den) for every i at or beyond the rank."""
    u, divisors, v, kernel = factors
    rank = len(divisors)
    den = point.den
    b = [0] * len(u) if den == 1 else [x % den for x in mat_vec(u, point.num)]
    nonempty = not any(b[rank:])
    return AffineSolutionSet(nonempty, kernel, divisors, tuple(b[:rank]), den, v)


class FixedPointSolver:
    """Solves (I - W) x == a (mod Z^N) for square integer matrices W of
    finite order, as int tuple rows, each (W, a) once, taking the Smith form
    of each I - W at most once, and tells whether rank(I - W) <= 2 by at
    most one Hermite form per W.  Each entry is a function of W or (W, a)
    alone, so the class path and every stage of a decomposition may share
    one solver.  It keeps one object per distinct lattice, the kernel of
    each I - W among them."""

    def __init__(self):
        self._factors = {}    # W -> the factor_affine tuple of I - W
        self._low_rank = {}   # W -> rank(I - W) <= 2
        self._solutions = {}  # (W, a) -> the solutions of (I - W) x == a
        self._lattices = {}   # lattice -> the one object kept for it

    def lattice(self, lat: Lattice) -> Lattice:
        """The first object equal to ``lat`` that this solver was given, so
        that what a ``Lattice`` caches is computed once per lattice."""
        return self._lattices.setdefault(lat, lat)

    def solve(self, w, point: TorsionPoint) -> AffineSolutionSet:
        """The solutions of (I - W) x == a, a = ``point``."""
        key = (w, point)
        if key not in self._solutions:
            if w not in self._factors:
                u, divisors, v, kernel = factor_affine(identity_minus(w), len(w))
                self._factors[w] = (u, divisors, v, self.lattice(kernel))
                self._low_rank[w] = len(divisors) <= 2
            self._solutions[key] = solve_factored(self._factors[w], point)
        return self._solutions[key]

    def may_fix_divisor(self, w):
        """Whether rank(I - W) <= 2.  Each component of a fixed locus of
        x -> W x + a has real codimension rank(I - W), so otherwise it holds
        no divisor.  W need not be complex, so the rank may be odd.  On a
        lattice of rank 2 it always holds and no rank is taken.  W has
        finite order, so its eigenvalues are roots of unity and it is
        diagonalisable: rank(I - W) <= 2 leaves at least N - 2 eigenvalues
        1, and the other two have real part at least -1, so tr W >= N - 4.
        A lower trace answers False with no elimination.  Else it is the
        verdict recorded when ``solve`` factored W, or read off the Hermite
        form of I - W."""
        n = len(w)
        if n <= 2:
            return True
        if sum(row[i] for i, row in enumerate(w)) < n - 4:
            return False
        low = self._low_rank.get(w)
        if low is None:
            low = self._low_rank[w] = matrix_rank(identity_minus(w)) <= 2
        return low


def solve_affine_mod_lattice(matrix, point: TorsionPoint) -> AffineSolutionSet:
    """Describe {x in R^N/Z^N : M x == a (mod Z^N)} via Smith normal form.

    Accepts any integer matrix with N columns; rows need not equal N.  A
    matrix with no rows takes N from the point."""
    cols = len(matrix[0]) if matrix else len(point.num)
    return solve_factored(factor_affine(matrix, cols), point)


def orthogonal_complement_rows(lat: Lattice) -> tuple:
    """Int tuple rows, a basis of the saturated lattice {v : v . w = 0 for
    all w in L}.

    With these rows K, the subtorus (span(L)+Z^N)/Z^N is exactly
    {x : K x in Z^rows}.
    """
    return integer_kernel(lat.basis, lat.ambient_rank).basis
