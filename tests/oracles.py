"""Test-side oracles.

- Fraction-free Gauss-Jordan elimination (Bareiss) and what it reads off,
  the signed determinant, the rank and one rational solution.  The runtime
  reads ranks and |det| off Hermite forms instead, so these share no
  elimination with it.  ``determinant`` is checked against the Leibniz sum
  in ``test_linalg``.
- The conjugacy classes by a union-find over the pairs (s . x, x . s), the
  holonomy exponent by a walk from every class whose matrix no earlier walk
  reached, the group's field Q(zeta_m), m = lcm(12, exponent), and one age
  per element over every m-th root of unity.  The runtime reads the
  classes off orbit walks, and every class's age off one power walk per
  class that no earlier walk reached, counted over lcm(12, d) for the
  walk's holonomy order d; it builds no group-wide field.
- The exact analytic representation over Q(zeta_m), ``analytic_rep``; the
  runtime reduces it modulo a split prime as it builds it.
- The order of an integer matrix by walking its first ``max_finite_order``
  powers, the largest finite order at its rank.  The runtime walks 2n
  powers and factors the characteristic polynomial their traces give.
- ``saturate``, the saturation of a lattice, which no command takes."""

from fractions import Fraction
from functools import cache
from math import lcm

from fqav.action import mat_eq_identity
from fqav.cyclotomic import CycloField, spectrum_mod, split_prime
from fqav.linalg import (
    Lattice,
    identity_matrix,
    integer_kernel,
    mat_mul,
    orthogonal_complement_rows,
)
from fqav.variety import ZETA4, analytic_rep_mod, block_pairs


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


def union_find_class_rep(group):
    """``FiniteGroupAction.class_rep`` by union-find: for a generator s,
    s . x and x . s are conjugate by s, and uniting these pairs gives
    exactly the classes; a class's root is its first element."""
    t = group.tables
    size = len(t.parent)
    root = list(range(size))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for column in t.columns:
        for x, y in zip(t.left(column[0]), column):
            a, b = find(x), find(y)
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
    return [find(i) for i in range(size)]


def walk_group_exponent(group):
    """The lcm of the holonomy orders, by walking the powers of each class's
    first element in the closure's tables, skipping a class whose matrix an
    earlier walk reached."""
    elements, tables = group.elements, group.tables
    rep = union_find_class_rep(group)
    e = 1
    reached = set()
    for g in range(1, len(rep)):
        if rep[g] != g or elements[g].matrix in reached:
            continue
        word = tables.word(g)
        power, k = g, 1
        while not mat_eq_identity(elements[power].matrix):
            reached.add(elements[power].matrix)
            for j in word:
                power = tables.columns[j][power]
            k += 1
        e = lcm(e, k)
    return e


def group_field(group):
    """Q(zeta_m), m = lcm(12, exponent of the holonomy group): it holds
    every eigenvalue of the group and the roots of unity of the zeta4 and
    zeta6 factors."""
    return CycloField(lcm(12, walk_group_exponent(group)))


def analytic_rep(phi, field):
    """The n x n action of the endomorphism phi on the tangent space, with
    entries in the ``CycloField`` Q(zeta_m)."""
    fs = phi.variety.factors
    n = phi.variety.n
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            c, d = phi.blocks[j][k]
            entry = field.rational(c)
            if d:
                tau = field.root_of_unity(4 if fs[k].cm == ZETA4 else 6)
                entry = entry + field.rational(d) * tau
            row.append(entry)
        out.append(row)
    return out


def conductor_age(g, variety, field):
    """The age of g, an automorphism of ``variety``, over Q(zeta_m): the
    counts n - rank_p(A - z^e I) for every e < m, z of order m mod p, until
    they reach n, and then sum(e count_e) / m.  The field must hold the
    spectrum of g's holonomy."""
    m = field.m
    p, z = split_prime(m, 2 * variety.n + 1)
    counts = spectrum_mod(analytic_rep_mod(variety, block_pairs(g.matrix), m, p, z), p, z, m)
    if counts is None:
        raise AssertionError(f"Q(zeta_{m}) does not hold the spectrum of {g}")
    return Fraction(sum(e * count for e, count in enumerate(counts)), m)


def class_ages_over_conductor(group, field):
    """{first element of each nontrivial class: its ``conductor_age``}."""
    rep = union_find_class_rep(group)
    return {i: conductor_age(group.elements[i], group.variety, field)
            for i in range(1, len(rep)) if rep[i] == i}


@cache
def max_finite_order(rank):
    """M = the largest finite order of an integer matrix of this rank.  A
    finite-order integer matrix is diagonalizable with roots of unity as
    eigenvalues; a primitive d-th root has degree phi(d) over Q, so M is the
    largest lcm of distinct d_i with sum phi(d_i) <= rank, which a block
    companion matrix of the Phi_(d_i) attains.  Splitting each d_i into its
    prime powers keeps the lcm and does not raise the sum, except for
    2 q^k, q odd, as phi(2 q^k) = phi(q^k): so M is the largest product of
    powers of distinct primes with sum phi(p^k) <= rank, where a factor 2 is
    free beside an odd prime power."""
    best = [1] * (rank + 1)  # c -> the largest product of odd prime powers of phi sum <= c
    for p in range(3, rank + 2, 2):
        if all(p % q for q in range(3, p, 2)):  # p is prime
            powers = [(p ** k, (p - 1) * p ** (k - 1)) for k in range(1, rank + 1)]
            best = [max([b] + [best[c - cost] * q for q, cost in powers if cost <= c])
                    for c, b in enumerate(best)]
    # 2 itself, or 2^k for k >= 2 at phi(2^k) = 2^(k-1)
    return max([2 * best[rank]] + [2 ** k * best[rank - 2 ** (k - 1)]
                                   for k in range(2, rank.bit_length() + 1)])


def bounded_walk_order(rho):
    """The order of the square integer matrix rho, or None when it is
    infinite: the first k <= ``max_finite_order`` with rho^k = I."""
    ident = identity_matrix(len(rho))
    power = [list(row) for row in rho]
    for k in range(1, max_finite_order(len(rho)) + 1):
        if power == ident:
            return k
        power = mat_mul(power, rho)
    return None


def saturate(lat: Lattice) -> Lattice:
    """Saturation (L tensor Q) intersect Z^N: same rank, torsion-free quotient.
    It is the annihilator of the annihilator of L."""
    return integer_kernel(orthogonal_complement_rows(lat), lat.ambient_rank)
