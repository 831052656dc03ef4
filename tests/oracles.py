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
- ``fixed_solutions``, the divisors of a stage decided element by element:
  each nontrivial element is asked ``may_fix_divisor`` and, if it passes,
  solved.  The runtime asks and solves the first element of each class of
  a certified partition, and reads kappa off the solves of N's kept
  generators.
- ``saturate``, the saturation of a lattice, which no command takes.
- ``fano_elements``, the closure of the generators of a Q-Fano part, and
  ``decompose_fano_part``, the decomposition re-run on it with a solver of
  its own, the idempotence check of the decomposition.  The runtime lists
  no element of the Q-Fano part: it holds its generators and its order.
- ``lattice_poincare_complement``, the complement of B orthogonal for the
  product polarization ``standard_symplectic_form`` averaged over the
  holonomies of N.  The runtime saturates the sum of the images of the
  I - W over N's kept generators instead.
- ``c_restriction_translation``, the gamma with C^T gamma = a on the torus
  by a Smith form of C^T of its own.  The runtime solves it once per
  distinct translation of N's kept generators, off one factorisation of
  C^T, and restricts no other element.
- ``lattice_coordinates``, a vector's integer coordinates on a lattice's
  Hermite basis, with which the oracles solve W|_C coordinate by
  coordinate.  The runtime takes W|_C = L W C^T for the holonomies of N's
  kept generators only.
- ``enumerated_n_tilde``, every lift to B x C of every element of N, one
  per splitting of its translation, and ``generated_group``, the test that
  such a set is a group: it is the closure of some of its elements.  The
  runtime lists no lift; it certifies N-tilde as an extension of N by
  ker mu from the lifts of N's kept generators."""

from fractions import Fraction
from functools import cache
from math import lcm

from fqav.action import LatticeElement, certified_class_rep, mat_eq_identity
from fqav.cyclotomic import CycloField, spectrum_mod, split_prime
from fqav.decompose import (
    DecompositionResult,
    SublatticeAction,
    _decompose_level,
    close_with_tables,
    element_fixed_solution,
)
from fqav.linalg import (
    FixedPointSolver,
    Lattice,
    TorsionPoint,
    abs_determinant,
    factor_affine,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_transpose,
    mat_vec,
    orthogonal_complement_rows,
    solve_factored,
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


def fixed_solutions(elements, solver):
    """The divisors of a stage: the nonempty fixed-locus solves, by
    ``solver``, of the nontrivial elements (W, a) that
    ``solver.may_fix_divisor(W)`` admits, keyed by their positions in
    ``elements``.  Such an element fixes a divisor exactly when its locus
    is nonempty: with rank(I - W) = 0 it is a translation by a != 0 and
    fixes nothing, and with rank 1 or 2 each component has complex
    dimension (2n - rank) // 2 = n - 1.  No other element fixes one."""
    solves = ((x, element_fixed_solution(e, solver)) for x, e in enumerate(elements)
              if x and solver.may_fix_divisor(e.matrix))
    return {x: sol for x, sol in solves if sol.nonempty}


def saturate(lat: Lattice) -> Lattice:
    """Saturation (L tensor Q) intersect Z^N: same rank, torsion-free quotient.
    It is the annihilator of the annihilator of L."""
    return integer_kernel(orthogonal_complement_rows(lat), lat.ambient_rank)


def fano_elements(fano: SublatticeAction):
    """The closure of the generators of a nonempty Q-Fano part, the
    generators it kept, and its tables."""
    return close_with_tables(fano.generators)


def decompose_fano_part(fano: SublatticeAction) -> DecompositionResult:
    """Re-run the decomposition on a Q-Fano stage (idempotence check)."""
    if fano.rank == 0:
        return DecompositionResult((), 0, fano, ())
    elements, kept, tables = fano_elements(fano)
    return _decompose_level(elements, kept, tables, certified_class_rep(elements, tables),
                            fano.rank, FixedPointSolver())


def lattice_coordinates(lat: Lattice, vector):
    """The integer x with sum x_k basis_k = vector, or None when the
    vector is not in the lattice ``lat``.  The basis is in Hermite form, so
    x_k is read off the k-th pivot once the earlier rows are subtracted."""
    rest = list(vector)
    out = []
    for row in lat.basis:
        c = next(j for j, x in enumerate(row) if x)  # the row's pivot
        q, r = divmod(rest[c], row[c])
        if r:
            return None
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
        out.append(q)
    return None if any(rest) else out


def c_restriction_translation(c: Lattice, a: TorsionPoint):
    """The gamma with C^T gamma = a on the torus, unique as the lattice C is
    saturated, or None when a is not in the C-subtorus."""
    sol = solve_factored(factor_affine(mat_transpose(c.basis_rows()), c.rank), a)
    if not sol.nonempty:
        return None
    (gamma,) = sol.representatives
    return gamma


def standard_symplectic_form(n):
    """The product principal polarization seed on E_1 x ... x E_n:
    block-diagonal [[0,1],[-1,0]]."""
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        out[2 * j][2 * j + 1] = 1
        out[2 * j + 1][2 * j] = -1
    return out


def averaged_polarization(n0_reps, seed):
    """Sum of rho^T * E0 * rho over a closed set of rational representations."""
    size = len(seed)
    total = [[0] * size for _ in range(size)]
    for rho in n0_reps:
        term = mat_mul(mat_transpose(rho), mat_mul(seed, rho))
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, term)]
    return total


def lattice_poincare_complement(b: Lattice, holonomies):
    """A complement C of B invariant under the rational holonomies, which
    must leave B invariant and form a group: average
    ``standard_symplectic_form`` over them, take the E-orthogonal
    complement {v : u^T E v = 0 for all u in B}, saturate, and assert that
    C is a complement.  Returns (C, index of B + C in the ambient
    lattice)."""
    form = averaged_polarization(holonomies, standard_symplectic_form(b.ambient_rank // 2))
    # u^T E v = (E^T u) . v
    rows = [mat_vec(mat_transpose(form), u) for u in b.basis_rows()]
    c = integer_kernel(rows, b.ambient_rank)
    index = abs_determinant(b.basis_rows() + c.basis_rows())
    assert b.rank + c.rank == b.ambient_rank and index
    return c, index


def enumerated_n_tilde(n_elements, b: Lattice, c: Lattice):
    """g -> the lifts of g = t_a . W to B x C for each g in N: the maps
    t_p . diag(I, W|_C), one per splitting p of a listed off the Smith form
    of [B^T C^T], with W|_C solved on the C basis coordinate by
    coordinate."""
    n2 = b.ambient_rank
    m = [bt + ct for bt, ct in zip(mat_transpose(b.basis_rows()),
                                   mat_transpose(c.basis_rows()))]
    factors = factor_affine(m, n2)
    on_b = tuple(tuple(int(i == j) for j in range(n2)) for i in range(b.rank))
    lifts = {}
    for g in n_elements:
        w_c = zip(*(lattice_coordinates(c, mat_vec(g.matrix, v)) for v in c.basis_rows()))
        matrix = on_b + tuple((0,) * b.rank + row for row in w_c)
        lifts[g] = [LatticeElement(matrix, p)
                    for p in solve_factored(factors, g.translation).representatives]
    return lifts


def generated_group(elements, generators):
    """True iff the set ``elements`` is the closure of ``generators`` under
    composition: then it is a group, closed under the product of any two of
    its elements.  The walk is breadth first, by right products
    (t_q . M)(t_r . M') = t_(q + M r) . M M', and takes M M' and M r once
    for each matrix M and each generator."""
    n = elements[0].rank
    ident = (tuple(map(tuple, identity_matrix(n))), TorsionPoint.zero(n))
    parts = {}
    seen, frontier = {ident}, [ident]
    while frontier and len(seen) <= len(elements):
        new = []
        for matrix, q in frontier:
            for x, h in enumerate(generators):
                part = parts.get((matrix, x))
                if part is None:
                    part = parts[matrix, x] = (tuple(map(tuple, mat_mul(matrix, h.matrix))),
                                               h.translation.apply_matrix(matrix))
                y = (part[0], q + part[1])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen == {(t.matrix, t.translation) for t in elements}


def ker_mu_generators(identity_lifts):
    """Some of the ``identity_lifts``, the translations by the points of
    ker mu, that generate them all: taken by decreasing order, each is kept
    when the ones kept before do not generate it."""
    kept, span = [], {TorsionPoint.zero(identity_lifts[0].rank)}
    for t in sorted(identity_lifts, key=lambda t: -t.translation.order):
        if t.translation not in span:
            kept.append(t)
            new = span
            while new:
                new = {x + t.translation for x in new} - span
                span |= new
    return kept
