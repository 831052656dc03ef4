"""Affine maps x -> W x + a of a torus, the automorphisms g = t_a . phi
among them, finite group closure and its index tables, conjugacy classes,
fixed loci, ages, and the descending multiplication map."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import add, eq
from typing import NamedTuple

from .cyclotomic import charpoly_from_power_sums, cyclotomic_orders, spectrum_mod, split_prime
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


@dataclass(frozen=True, eq=False, slots=True)
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
        """The element of this class with these data, ``bfs_closure``'s
        build hook."""
        return type(self)(matrix, translation)

    def compose(self, other):
        """(t_a . W)(t_b . V) = t_(a + W b) . (W V)."""
        return self.with_data(*affine_product(self.matrix, self.translation,
                                              other.matrix, other.translation))

    def apply(self, point):
        """The image W x + a of the torsion point x."""
        return point.apply_matrix(self.matrix) + self.translation

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


@dataclass(frozen=True, eq=False, slots=True)
class AffineAutomorphism(LatticeElement):
    """g = t_a . phi with finite-order holonomy phi and torsion translation
    a: the lattice element (rho(phi), a).  The variety is the group's,
    ``FiniteGroupAction.variety``; ``close_group`` builds the generators,
    and ``block_pairs`` reads phi's blocks back off the matrix."""

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

    @cached_property
    def _generator_lefts(self):
        return {}

    def generator_left(self, j):
        """``left`` of generator j, computed once for these tables: the class
        walk and its certificate read the same list."""
        lefts = self._generator_lefts
        if j not in lefts:
            lefts[j] = self.left(self.columns[j][0])
        return lefts[j]

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

    @cached_property
    def classes(self):
        """The conjugacy classes, as a ``ClassWalk``, read off the tables
        without a composition.  For a generator s_j, u -> s_j^-1 u s_j is
        the permutation s_j x -> x s_j, read off ``left(s_j)`` and column
        j.  The generators' conjugations generate those of the whole group,
        so a class is the orbit of any of its elements under them; that of
        a central generator, the identity, is skipped.  Walking the
        elements in order, each one no orbit reached starts its class, and
        so is that class's first element; its orbit is then walked breadth
        first, and each element v first reached as s_j^-1 u s_j records u
        and j."""
        size = len(self.parent)
        columns = self.columns
        conjugations = []
        for j, column in enumerate(columns):
            s = column[0]
            if all(other[s] == column[other[0]] for other in columns):
                continue  # s_j s_k = s_k s_j for every k: s_j is central
            conjugation = [0] * size
            for y, c in zip(self.generator_left(j), column):  # s_j x -> x s_j
                conjugation[y] = c
            conjugations.append((j, conjugation))
        if not conjugations:  # abelian: each element is its own class
            return ClassWalk(list(range(size)), list(range(size)), list(range(size)), [-1] * size)
        rep, conjugator, via = [-1] * size, list(range(size)), [-1] * size
        reached = []
        for g in range(size):
            if rep[g] >= 0:
                continue
            rep[g] = g
            orbit = [g]
            for u in orbit:  # the loop reaches what it appends
                for j, conjugation in conjugations:
                    v = conjugation[u]
                    if rep[v] < 0:
                        rep[v], conjugator[v], via[v] = g, u, j
                        orbit.append(v)
            reached += orbit
        return ClassWalk(rep, reached, conjugator, via)


class ClassWalk(NamedTuple):
    """The conjugacy classes ``ClosureTables.classes`` walks, lists of
    plain ints indexed by element number.

    - ``rep[v]`` is the number of the first element of v's class.
    - ``reached`` lists every element in the order the walk reached it.
    - ``conjugator[v]`` = u and ``via[v]`` = j, with v = s_j^-1 u s_j and u
      reached before v, for each v that does not start its class; a v
      that does has the record (v, -1)."""

    rep: list
    reached: list
    conjugator: list
    via: list


def certified_class_rep(elements, tables):
    """``tables.classes.rep``, the number of the first element of each
    element's conjugacy class, once the walk's records show every element
    of ``elements`` conjugate to it, on the tables alone.  A class's first
    element starts it.  Any other v, taken in the order the walk reached
    it, must have a record (u, j) with u certified before it, in v's
    class, and s_j v = u s_j, one look-up in the left multiplication by
    s_j, which the walk built, and one in column j: then v = s_j^-1 u s_j.
    By induction on that order every element is then conjugate to its
    class's first element, so a partition that merges two classes fails
    here; one that splits a class is still a partition into sets of
    conjugates."""
    rep, reached, conjugator, via = tables.classes
    linked = bytearray(map(eq, rep, range(len(elements))))  # the first elements
    if linked.find(0) < 0:
        return rep  # every element is its own class
    columns = tables.columns
    lefts = {j: tables.generator_left(j) for j in set(via) if j >= 0}
    for v in reached:
        if not linked[v]:
            u, j = conjugator[v], via[v]
            linked[v] = linked[u] and rep[u] == rep[v] and lefts[j][v] == columns[j][u]
    v = linked.find(0)
    if v >= 0:
        raise CertificateError(f"class walk does not conjugate {elements[v]} to "
                               f"{elements[rep[v]]}, the first element of its class")
    return rep


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

    @cached_property
    def class_rep(self):
        """``class_rep[i]`` is the index of the first element of the
        conjugacy class of ``elements[i]``, ``tables.classes.rep`` once
        ``certified_class_rep`` has checked it: every reader of the
        partition reads it certified, and it is certified once."""
        return certified_class_rep(self.elements, self.tables)

    @cached_property
    def power_walk(self):
        """For the first element c of each conjugacy class, ``power_walk[c]``
        is (root, k, d): class c holds root^k, 1 <= k <= d, and d is the
        order of the holonomy of ``elements[root]``.  A walk starts at the
        first element g of each class that no earlier walk reached, in
        element order, and takes g^(k+1) = g^k . g by g's word in the
        closure's tables until the power's holonomy is the identity, at
        g^d.  It records each class it reaches that no walk reached before,
        so every class is recorded, by its own walk if by no other."""
        elements, tables = self.elements, self.tables
        columns = tables.columns
        rep = self.class_rep
        walk = {}
        for g in range(1, len(rep)):
            if rep[g] != g or g in walk:
                continue
            word = tables.word(g)
            powers = [g]
            while not mat_eq_identity(elements[powers[-1]].matrix):
                x = powers[-1]
                for j in word:
                    x = columns[j][x]
                powers.append(x)
            d = len(powers)
            for k, x in enumerate(powers, 1):
                walk.setdefault(rep[x], (g, k, d))
        return walk


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

    The elements are affine maps of one class, records of the two fields
    ``matrix`` and ``translation``, whose class has ``with_data``,
    ``row_key`` and ``key_rows``; two are equal iff their data are.
    Elements are composed in the order they are found.

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


def close_group(variety, gens, cap=DEFAULT_GROUP_CAP) -> FiniteGroupAction:
    """The group generated by ``gens``, each a pair (blocks, translation):
    the n x n (c, d) rows of its holonomy on ``variety``, and a
    ``TorsionPoint``, or None for zero.  Each generator is validated here,
    in input order: its blocks by ``EndoBlockMatrix.from_rows``, then its
    translation's length.  Then each distinct generator whose holonomy is
    not an automorphism or has infinite order is rejected by
    ``holonomy_order``; the others have finite order, since their
    translations are torsion.  Breadth-first closure under composition
    (lexicographic tie-break per level) follows; a finite closed set under
    composition containing the generators is automatically a group."""
    if not gens:
        raise InputError("no generators", code="no-generators")
    n2 = variety.ambient_rank
    zero = TorsionPoint.zero(n2)
    keys = {}  # each distinct generator -> its sort_key, off its validated blocks
    for blocks, translation in gens:
        phi = EndoBlockMatrix.from_rows(variety, blocks)
        if translation is None:
            translation = zero
        elif len(translation.num) != n2:
            raise InputError("translation has wrong length", code="bad-translation")
        keys.setdefault(AffineAutomorphism(phi.matrix, translation),
                        (phi.blocks, translation.sort_key()))
    for g in keys:
        holonomy_order(g.matrix)
    gens_sorted = sorted(keys, key=keys.__getitem__)
    elements, tables = bfs_closure(
        AffineAutomorphism(_identity_rows(n2), zero), gens_sorted, cap,
        InputError("group order exceeds cap", code="cap-exceeded"))
    return FiniteGroupAction(variety, tuple(gens_sorted), tuple(elements), tables)


def fixed_locus(g: AffineAutomorphism, solver) -> AffineSolutionSet:
    """Fix(t_a . phi) = solutions of (I - rho(phi)) x == a on the torus, by
    the ``FixedPointSolver`` ``solver``, which keeps each solve."""
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


def holonomy_order(rho):
    """The order of the holonomy whose rational representation is the int
    rows rho, of rank N = 2n.  A finite-order integer matrix is
    diagonalizable with roots of unity as eigenvalues, so each of its powers
    has trace at most N in absolute value, and its characteristic polynomial
    chi is a product of Phi_d whose lcm L is its order.

    The walk returns the first k <= N with rho^k = I, and a power of trace
    above N proves infinite order.  Otherwise Newton's identities read chi
    off the N traces, and det rho = +-chi(0).  Then rho has finite order iff
    chi is a product of Phi_d and rho^L = I, by repeated squaring, with L > N
    as the walk did not reach I.  not-automorphism wins over infinite-order:
    the trace screen takes the determinant before it raises."""
    rank = len(rho)
    infinite = InputError("holonomy has infinite order", code="infinite-order")
    not_automorphism = InputError("holonomy is not an automorphism", code="not-automorphism")
    ident = identity_matrix(rank)
    power = [list(row) for row in rho]
    traces = []
    for k in range(1, rank + 1):
        if power == ident:
            return k
        traces.append(sum(row[i] for i, row in enumerate(power)))
        if abs(traces[-1]) > rank:
            raise not_automorphism if abs_determinant(rho) != 1 else infinite
        if k < rank:
            power = mat_mul(power, rho)
    chi = charpoly_from_power_sums(traces)
    if abs(chi[0]) != 1:
        raise not_automorphism
    orders = cyclotomic_orders(chi)
    order = 0 if orders is None else lcm(*orders)
    if order <= rank:
        raise infinite
    power = rho
    for bit in bin(order)[3:]:
        power = mat_mul(power, power)
        if bit == "1":
            power = mat_mul(power, rho)
    if power != ident:
        raise infinite
    return order


def age(g: AffineAutomorphism, d, variety):
    """The function k -> the age of g^k, for d a multiple of the order of
    the holonomy A of g, an automorphism of ``variety``; every command
    passes the order that ``power_walk`` records.  The age of g is the sum
    of the r_j over the analytic eigenvalues e^(2 pi i r_j) of A, r_j in
    [0,1); 0 for identity holonomy.

    The spectrum of A is counted modulo p, with m = lcm(12, d), the least
    conductor that holds the d-th roots of unity and the zeta4 and zeta6
    images ``analytic_rep_mod`` needs, and (p, z) = ``split_prime(m, 2n +
    1)``, over the d-th roots: count_e = n - rank_p(A - z^(e m/d) I), and
    zeta_d^e has multiplicity count_e.  Reduction modulo a prime above p
    never raises a rank, so count_e is at least the multiplicity over
    Q(zeta_m).  When A^d = I, A mod p is diagonalisable, as d <= m < p is
    prime to p, so both kinds of count sum to n and are equal.  When the
    counts sum to n, A^d is congruent to I.  Its order divides that of A,
    whose primes q have q - 1 <= 2n, so it is prime to p; and B = I + X of
    order k prime to p with X = 0 mod the prime has X (k I + X Y) = 0 with
    the second factor invertible, so A^d = I.  The counts thus reach n
    exactly when A^d = I.  Short of n, d is no multiple of the order of A,
    so the walk that gave d is at fault: a ``CertificateError`` naming g.
    Then the eigenvalues of A^k are the k-th powers of the zeta_d^e, so g^k
    has age sum_e count_e ((k e mod d) / d)."""
    m = lcm(12, d)
    p, z = split_prime(m, 2 * variety.n + 1)
    counts = spectrum_mod(analytic_rep_mod(variety, block_pairs(g.matrix), m, p, z),
                          p, pow(z, m // d, p), d)
    if counts is None:
        raise CertificateError(f"order {d} does not kill the spectrum of {g}")
    spectrum = [(e, count) for e, count in enumerate(counts) if count]
    return lambda k: Fraction(sum(count * (k * e % d) for e, count in spectrum), d)


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
