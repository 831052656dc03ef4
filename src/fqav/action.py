"""Affine maps x -> W x + a of a torus, the automorphisms g = t_a . phi
among them, finite group closure and its index tables, conjugacy classes,
fixed loci, ages, and the descending multiplication map."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import add

from .cyclotomic import CycloField, spectrum_mod, split_prime
from .errors import CertificateError, InputError
from .linalg import (
    AffineSolutionSet,
    FixedPointSolver,
    TorsionPoint,
    abs_determinant,
    identity_matrix,
    identity_minus,
    mat_mul,
    mat_vec,
    vec_mat,
)
from .variety import (
    AbelianVarietyModel,
    EndoBlockMatrix,
    SubtorusTranslate,
    analytic_rep_mod,
    block_pairs,
)

DEFAULT_GROUP_CAP = 10000


@cache
def _identity_rows(size):
    return tuple(map(tuple, identity_matrix(size)))


def mat_eq_identity(m):
    return m == _identity_rows(len(m))


@dataclass(frozen=True, eq=False)
class LatticeElement:
    """An affine map x -> W x + a on the torus R^N/Z^N, W unimodular.  It
    equals each element, of either class, with its (matrix, translation)."""

    matrix: tuple  # N x N integer, tuple of tuples
    translation: TorsionPoint

    def __eq__(self, other):
        if not isinstance(other, LatticeElement):
            return NotImplemented
        return self.matrix == other.matrix and self.translation == other.translation

    def __hash__(self):
        return hash((self.matrix, self.translation))

    @classmethod
    def of(cls, matrix, translation=None):
        rows = tuple(tuple(int(x) for x in r) for r in matrix)
        if translation is None:
            translation = TorsionPoint.zero(len(rows))
        return cls(rows, translation)

    @property
    def rank(self):
        return len(self.matrix)

    def is_identity(self):
        return self.translation.is_zero() and mat_eq_identity(self.matrix)

    def with_data(self, matrix, translation):
        return LatticeElement(matrix, translation)

    def compose(self, other):
        """(t_a . W)(t_b . V) = t_(a + W b) . (W V)."""
        return self.with_data(*affine_product(self.matrix, self.translation,
                                              other.matrix, other.translation))

    def sort_key(self):
        return (self.matrix, self.translation.sort_key())

    # ``bfs_closure`` numbers the matrix rows in ``row_key`` order; the
    # numbers of the rows ``key_rows`` then sort as ``sort_key``'s matrix part
    key_rows = slice(None)

    @staticmethod
    def row_key(row):
        return row

    def __str__(self):
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.matrix)
        coords = ", ".join(map(str, self.translation.coords))
        return f"x -> [{rows}] x + [{coords}]"


@dataclass(frozen=True, eq=False)
class AffineAutomorphism(LatticeElement):
    """g = t_a . phi with finite-order holonomy phi and torsion translation
    a: the lattice element (rho(phi), a) of the variety ``variety``."""

    variety: AbelianVarietyModel

    @classmethod
    def of(cls, holonomy, translation=None):
        n2 = holonomy.variety.ambient_rank
        if translation is None:
            translation = TorsionPoint.zero(n2)
        if len(translation.num) != n2:
            raise InputError("translation has wrong length", code="bad-translation")
        g = cls(holonomy.matrix, translation, holonomy.variety)
        g.__dict__["holonomy"] = holonomy  # the cached property, known already
        return g

    @cached_property
    def holonomy(self):
        """phi, the ``EndoBlockMatrix`` read off the matrix."""
        return EndoBlockMatrix(self.variety, block_pairs(self.matrix), self.matrix)

    def with_data(self, matrix, translation):
        """The automorphism of this variety with these data; ``matrix`` must
        be the rational representation of an endomorphism."""
        return AffineAutomorphism(matrix, translation, self.variety)

    def compose(self, other):
        """``LatticeElement.compose``, on this class to be traced apart."""
        return self.with_data(*affine_product(self.matrix, self.translation,
                                              other.matrix, other.translation))

    def sort_key(self):
        return (block_pairs(self.matrix), self.translation.sort_key())

    key_rows = slice(0, None, 2)

    @staticmethod
    def row_key(row):
        """Row 2j of a rational representation is (c, -d) for each block
        (j, k) = c + d tau, so the even rows in this order, (c, d) pair by
        pair, sort as ``block_pairs`` does."""
        return tuple(-x if i % 2 else x for i, x in enumerate(row))


@dataclass(frozen=True)
class ClosureTables:
    """The index tables ``bfs_closure`` records, all plain ints.  Each
    element is numbered by its position in the element list, the identity 0.

    - ``columns[j][x]`` is the number of x . gens[j].
    - The BFS tree: x = parent[x] . gens[via[x]] with parent[x] < x for
      x > 0; both are -1 for the identity."""

    columns: list
    parent: list
    via: list

    def left(self, g):
        """Left multiplication by the element numbered g, as the list x ->
        the number of g . x: g . 1 = g, and for x = p . gens[i], g . x =
        (g . p) . gens[i], so each follows its parent's, |G| look-ups
        whatever g's depth."""
        columns, parent, via = self.columns, self.parent, self.via
        left = [g] * len(parent)
        for x in range(1, len(parent)):
            left[x] = columns[via[x]][left[parent[x]]]
        return left

    def word(self, x):
        """The generator indices on x's BFS path from the identity, so that
        x = gens[j_1] ... gens[j_d] and y . x is y pushed through the
        columns j_1, ..., j_d: d look-ups."""
        parent, via = self.parent, self.via
        word = []
        while x > 0:
            word.append(via[x])
            x = parent[x]
        word.reverse()
        return word


@dataclass(frozen=True)
class FiniteGroupAction:
    variety: AbelianVarietyModel
    generators: tuple
    elements: tuple
    # the tables of the closure that found ``elements`` from ``generators``
    tables: ClosureTables = dataclasses.field(compare=False, repr=False)
    # the one solver of every fixed-point equation of this group, its
    # decomposition's stages included
    solver: FixedPointSolver = dataclasses.field(default_factory=FixedPointSolver, init=False,
                                                 compare=False, repr=False)

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return AffineAutomorphism.of(EndoBlockMatrix.identity(self.variety))

    def nontrivial_elements(self):
        return [g for g in self.elements if not g.is_identity()]

    @cached_property
    def class_rep(self):
        """``class_rep[i]`` is the index of the first element of the
        conjugacy class of ``elements[i]``, read off the closure's tables
        without a composition.  For a generator s, s . x and x . s are
        conjugate by s, and the generators' conjugations generate those of
        the whole group, so uniting these pairs gives exactly the classes."""
        t = self.tables
        size = len(t.parent)
        root = list(range(size))  # union-find on numbers; a class's root is its first

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

    def nontrivial_class_reps(self):
        """The first element of each conjugacy class but the identity's, in
        element order."""
        rep = self.class_rep
        return [self.elements[i] for i in range(1, len(rep)) if rep[i] == i]


def affine_product(m, a, n, b):
    """The data (M N, a + M b) of (t_a . M)(t_b . N), for matrices M, N as
    int tuple rows and TorsionPoints a, b."""
    return tuple(map(tuple, mat_mul(m, n))), a + b.apply_matrix(m)


def bfs_closure(identity, gens, cap, overflow):
    """Breadth-first closure of ``gens`` under right composition, starting at
    the group's ``identity``: the elements, and the ``ClosureTables`` of the
    search.  Each level is ordered by ``sort_key``, so the element order
    depends only on the generator list.  The exception ``overflow`` is raised as soon as
    the closure holds more than ``cap`` elements.

    The elements are affine maps of one kind, with ``matrix``,
    ``translation``, ``with_data``, ``row_key`` and ``key_rows``; two are
    equal iff their data (matrix, translation) are.  Elements are composed
    in the order they are found.

    No matrix product is made.  Row i of M N is (row i of M) N, so the
    search numbers the distinct matrix rows, ``rows``, and keeps for each
    generator s_j = (N_j, b_j) the table ``image[j][i]``, the number of
    rows[i] N_j.  The rows are the orbit of the identity's under the
    holonomy group H, at most N |H| <= N |G| of them, so more than N cap
    rows also prove |G| > cap and raise ``overflow``.  Once closed, the rows
    are renumbered in ``row_key`` order, so the numbers of an element's
    rows ``key_rows`` sort as its matrix does by ``sort_key``.

    Every translation lies in D^-1 Z^N / Z^N, D the lcm of the translation
    denominators of ``gens``, as the matrices are integral; it is kept as
    the int tuple t of its numerators over D, reduced mod D, which is equal
    for two points iff they are.  When b_j != 0, ``shift[j][i]`` = rows[i] .
    b_j D mod D.  An element is keyed by (the numbers of its rows, t), and
    x . s_j is then N look-ups: the image numbers, and t + (the shifts) mod
    D.  One ``TorsionPoint`` is built per distinct translation, with its
    ``sort_key``, and an element only when it is new, its matrix a tuple of
    the shared row tuples, one per distinct holonomy.  The search numbers
    the elements as it finds them; the tables are then renumbered by element
    position, which keeps parent[x] < x, since a parent lies in an earlier
    level."""
    rows = list(identity.matrix)
    row_number = {row: i for i, row in enumerate(rows)}
    row_cap = len(rows) * cap
    image = [[] for _ in gens]
    for row in rows:  # rows grows while it is walked, until it is closed
        for h, column in zip(gens, image):
            c = tuple(vec_mat(row, h.matrix))
            k = row_number.setdefault(c, len(rows))
            if k == len(rows):
                if k >= row_cap:
                    raise overflow
                rows.append(c)
            column.append(k)
    order = sorted(range(len(rows)), key=lambda i: identity.row_key(rows[i]))
    rank = [0] * len(rows)
    for i, k in enumerate(order):
        rank[k] = i
    rows = [rows[k] for k in order]
    den = lcm(*(h.translation.den for h in gens))
    reduce = den.__rmod__  # t -> t mod den
    found_columns = [[] for _ in gens]
    steps = [(j, [rank[column[k]] for k in order].__getitem__,
              None if h.translation.is_zero() else
              [x * (den // h.translation.den) % den
               for x in mat_vec(rows, h.translation.num)].__getitem__,
              found_columns[j].append)
             for j, (h, column) in enumerate(zip(gens, image))]
    key_rows = identity.key_rows

    points, point_keys = {}, {}  # t -> its TorsionPoint, and the point's sort_key
    matrices = {}  # the numbers of an element's rows -> its matrix
    shared = {}  # one object per distinct row-number or translation tuple
    n = len(identity.matrix)
    data = [(tuple(rank[:n]), (0,) * n)]  # by discovery number
    found = [identity]
    number = {data[0]: 0}
    parent, via = [-1], [-1]
    numbers = [0]  # discovery number of each element position
    start, size = 0, 1
    while start < size:
        stop = size
        for x in range(start, stop):
            rx, t = data[x]
            for j, image_j, shift_j, record in steps:
                c = (tuple(map(image_j, rx)),
                     t if shift_j is None else tuple(map(reduce, map(add, t, map(shift_j, rx)))))
                k = number.get(c)
                if k is None:
                    k = size
                    size += 1
                    if k >= cap:
                        raise overflow
                    c = rc, tc = shared.setdefault(c[0], c[0]), shared.setdefault(c[1], c[1])
                    number[c] = k
                    data.append(c)
                    matrix = matrices.get(rc)
                    if matrix is None:
                        matrix = matrices[rc] = tuple(map(rows.__getitem__, rc))
                    p = points.get(tc)
                    if p is None:
                        p = points[tc] = TorsionPoint.over(tc, den)
                        point_keys[tc] = p.sort_key()
                    found.append(identity.with_data(matrix, p))
                    parent.append(x)
                    via.append(j)
                record(k)
        keys = [(rc[key_rows], point_keys[tc]) for rc, tc in data[stop:]]
        numbers.extend(map(stop.__add__, sorted(range(len(keys)), key=keys.__getitem__)))
        start = stop
    position = [0] * len(numbers)
    for i, k in enumerate(numbers):
        position[k] = i
    tables = ClosureTables([[position[col[k]] for k in numbers] for col in found_columns],
                           [-1] + [position[parent[k]] for k in numbers[1:]],
                           [via[k] for k in numbers])
    return [found[k] for k in numbers], tables


def close_group(gens, cap=DEFAULT_GROUP_CAP) -> FiniteGroupAction:
    """Breadth-first closure under composition (lexicographic tie-break per
    level); a finite closed set under composition containing the generators
    is automatically a group.  A generator whose holonomy is not an
    automorphism or has infinite order is rejected before closing, by
    ``holonomy_order``; the others have finite order, since their
    translations are torsion."""
    if not gens:
        raise InputError("no generators", code="no-generators")
    variety = gens[0].variety
    for g in gens:
        if g.variety != variety:
            raise InputError("generators on different varieties", code="mixed-varieties")
        holonomy_order(g.holonomy)
    ident = AffineAutomorphism.of(EndoBlockMatrix.identity(variety))
    gens_sorted = sorted(set(gens), key=AffineAutomorphism.sort_key)
    elements, tables = bfs_closure(
        ident, gens_sorted, cap, InputError("group order exceeds cap", code="cap-exceeded"))
    return FiniteGroupAction(variety, tuple(gens_sorted), tuple(elements), tables)


def fixed_locus(g: AffineAutomorphism, solver=None) -> AffineSolutionSet:
    """Fix(t_a . phi) = solutions of (I - rho(phi)) x == a on the torus, by
    ``solver``, a ``FixedPointSolver`` (a new one when omitted), which keeps
    the solve for every later request of the same data."""
    if solver is None:
        solver = FixedPointSolver()
    return solver.solve(g.matrix, g.translation)


def pointwise_stabilizer(t: SubtorusTranslate, group: FiniteGroupAction):
    """Elements fixing the translate pointwise, and the ramification index e
    (= order of that subgroup)."""
    members = []
    for g in group.elements:
        rho = g.matrix
        m = identity_minus(rho)
        if any(any(x != 0 for x in mat_vec(m, v)) for v in t.lattice.basis_rows()):
            continue
        if t.translate.apply_matrix(m) == g.translation:
            members.append(g)
    return members, len(members)


@cache
def order_bound(rank):
    """K = lcm of the d with phi(d) <= rank.  A finite-order integer matrix
    of this rank is diagonalizable with roots of unity as eigenvalues, so its
    order is the lcm of their orders d; a primitive d-th root has degree
    phi(d) over Q, so each d is one of these and the order divides K.
    phi(d) >= sqrt(d / 2) bounds the search by d <= 2 rank^2."""
    top = 2 * rank * rank
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return lcm(*(d for d in range(1, top + 1) if phi[d] <= rank))


# the prime modulo which ``holonomy_order`` raises phi to the K-th power
_ORDER_PRIME = (1 << 61) - 1


def _power_mod(mat, e, p):
    """mat^e with entries reduced mod p, by repeated squaring."""
    result = identity_matrix(len(mat))
    base = [[x % p for x in row] for row in mat]
    while e:
        if e & 1:
            result = [[x % p for x in row] for row in mat_mul(result, base)]
        base = [[x % p for x in row] for row in mat_mul(base, base)]
        e >>= 1
    return result


def _check_unimodular(rho):
    if abs_determinant(rho) != 1:
        raise InputError("holonomy is not an automorphism", code="not-automorphism")


def holonomy_order(phi: EndoBlockMatrix):
    """Order of phi, the order of its rational representation rho.  Every
    finite order divides K = ``order_bound``, so phi has infinite order when
    none of its first K powers is the identity.  At most DEFAULT_GROUP_CAP
    powers are tried.  When K exceeds that cap, rho^K is first taken mod a
    prime: a result other than I proves infinite order.  Otherwise a search
    that reaches the cap means the order exceeds the default group cap,
    finite or not.  A power whose trace exceeds 2n = rank in absolute value
    ends the walk: one of finite order has 2n roots of unity as eigenvalues,
    so this power, and with it phi, has infinite order.

    A rho that is not unimodular raises not-automorphism, which wins over
    the order errors.  Its determinant is taken only when the walk does not
    settle it: rho^k = I gives det(rho)^k = 1, so det rho = +-1, and a walk
    that reaches I within rank powers needs none.  Otherwise it is taken
    after rank powers, or before the walk raises, whichever comes first, so
    such a rho walks at most rank powers (after rho^K mod a prime, when K
    exceeds the cap)."""
    rho = phi.matrix
    rank = len(rho)
    infinite = InputError("holonomy has infinite order", code="infinite-order")
    bound = order_bound(rank)
    ident = identity_matrix(rank)
    try:
        if bound > DEFAULT_GROUP_CAP and _power_mod(rho, bound, _ORDER_PRIME) != ident:
            raise infinite
        power = [list(row) for row in rho]
        for k in range(1, min(bound, DEFAULT_GROUP_CAP) + 1):
            if power == ident:
                return k
            if k == rank:
                _check_unimodular(rho)
            if abs(sum(row[i] for i, row in enumerate(power))) > rank:
                raise infinite
            power = mat_mul(power, rho)
        if bound <= DEFAULT_GROUP_CAP:
            raise infinite
        raise InputError("holonomy order exceeds cap", code="cap-exceeded")
    except InputError as exc:
        if exc.code != "not-automorphism":
            _check_unimodular(rho)
        raise


def group_exponent(group: FiniteGroupAction):
    """lcm of the orders of the holonomies, found by walking the powers of
    each class's first element g in the closure's tables, g^(k+1) = g^k . g
    by g's word, until the power's holonomy is the identity.  Conjugate
    elements have conjugate holonomies, of one order, and every holonomy is
    that of some element, so these orders have the same lcm as all of them.
    A matrix an earlier walk reached is a power of that walk's, so its order
    divides the one already taken; it is skipped."""
    elements, tables = group.elements, group.tables
    columns = tables.columns
    rep = group.class_rep
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
                power = columns[j][power]
            k += 1
        e = lcm(e, k)
    return e


def cyclo_field_for(group: FiniteGroupAction) -> CycloField:
    """Q(zeta_m), m = lcm(12, exponent of the holonomy group): every
    holonomy order divides m, so the field holds every eigenvalue of the
    group and the roots of unity of the zeta4 and zeta6 factors."""
    return CycloField(lcm(12, group_exponent(group)))


def age(g: AffineAutomorphism, field: CycloField) -> Fraction:
    """Sum of the r_j over the analytic eigenvalues e^(2 pi i r_j) of the
    holonomy A, r_j in [0,1); 0 for identity holonomy.  The holonomy has
    finite order, as every group element's has.

    The spectrum is counted modulo p, with (p, z) = ``split_prime(m, 2n +
    1)``: count_e = n - rank_p(A - z^e I), and zeta_m^e has multiplicity
    count_e.  Reduction modulo a prime above p never raises a rank, so
    count_e is at least the multiplicity over Q(zeta_m).  When A^m = I,
    A mod p is diagonalisable, as m is prime to p, so both kinds of count
    sum to n and are equal.  When the counts sum to n, A^m is congruent to I.
    Its order divides that of A, whose primes q have q - 1 <= 2n, so it is
    prime to p; and B = I + X of order k prime to p with X = 0 mod the prime
    has X (k I + X Y) = 0 with the second factor invertible, so A^m = I.
    The field thus holds the spectrum exactly when the counts reach n."""
    phi = g.holonomy
    n = phi.variety.n
    m = field.m
    p, z = split_prime(m, 2 * n + 1)
    counts = spectrum_mod(analytic_rep_mod(phi, m, p, z), p, z, m)
    if counts is None:
        raise InputError("field too small", code="field-too-small")
    return Fraction(sum(e * count for e, count in enumerate(counts)), m)


def descend_multiplication(group: FiniteGroupAction):
    """Smallest m = 1 + lcm of translation orders; [m] then commutes exactly
    with every group element and so descends to the quotient.  Both read the
    generators only: k a = k b = 0 gives k (a + rho b) = 0, so the
    translation order of a product divides the lcm of its factors', and a
    map commuting with every generator commutes with their products."""
    l = 1
    for g in group.generators:
        l = lcm(l, g.translation.order)
    m = 1 + l
    for g in group.generators:
        # [m](rho x + a) = rho (m x) + a on the torus iff (m-1) a == 0
        if not g.translation.scaled(m - 1).is_zero():
            raise CertificateError("multiplication map does not commute")
    return m
