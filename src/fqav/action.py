"""Affine automorphisms g = t_a . phi, finite group closure and its index
tables, conjugacy classes, fixed loci, ages, and the descending
multiplication map."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from .cyclotomic import CycloField, eigen_multiplicity
from .errors import CertificateError, InputError
from .linalg import (
    AffineSolutionSet,
    FixedPointSolver,
    TorsionPoint,
    determinant,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_vec,
)
from .variety import (
    AbelianVarietyModel,
    EndoBlockMatrix,
    SubtorusTranslate,
    analytic_rep,
)

DEFAULT_GROUP_CAP = 10000


@dataclass(frozen=True)
class AffineAutomorphism:
    """g = t_a . phi with finite-order holonomy phi and torsion translation a."""

    holonomy: EndoBlockMatrix
    translation: TorsionPoint

    @classmethod
    def of(cls, holonomy, translation=None):
        n2 = holonomy.variety.ambient_rank
        if translation is None:
            translation = TorsionPoint.zero(n2)
        if len(translation.num) != n2:
            raise InputError("translation has wrong length", code="bad-translation")
        return cls(holonomy, translation)

    @property
    def variety(self):
        return self.holonomy.variety

    def is_identity(self):
        return self.holonomy.is_identity() and self.translation.is_zero()

    @property
    def matrix(self):
        """The rational representation of the holonomy, int tuple rows."""
        return self.holonomy.matrix

    def with_data(self, matrix, translation):
        """The automorphism of this variety whose holonomy has the rational
        representation ``matrix``, which must be one, and with translation
        ``translation``."""
        return AffineAutomorphism(EndoBlockMatrix.of_matrix(self.variety, matrix), translation)

    def compose(self, other):
        """(t_a . phi)(t_b . psi) = t_(a + phi b) . (phi psi)."""
        return self.with_data(*affine_product(self.matrix, self.translation,
                                              other.matrix, other.translation))

    def sort_key(self):
        return (self.holonomy.sort_key(), self.translation.sort_key())


@dataclass(frozen=True)
class ClosureTables:
    """The index tables ``bfs_closure`` records, all plain ints.  Elements
    are numbered in the order the search finds them, the identity 0.

    - ``products[x * r + j]`` is the number of x . gens[j], r = len(gens).
    - The BFS tree: x = parent[x] . gens[via[x]] for x > 0; both are -1
      for the identity.
    - ``numbers[i]`` is the number of the i-th element in sorted order."""

    products: list
    parent: list
    via: list
    numbers: list


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
    # element -> fixed_locus(element), filled one element at a time as asked
    _fixed_loci: dict = dataclasses.field(default_factory=dict, init=False,
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
        without a composition.  For a generator s and x = p . h_j,
        s . x = (s . p) . h_j, so the left products follow the BFS tree.
        s . x and x . s are conjugate by s, and the generators' conjugations
        generate those of the whole group, so uniting these pairs gives
        exactly the classes."""
        t = self.tables
        r = len(self.generators)
        size = len(t.numbers)
        index = [0] * size  # number -> index in ``elements``
        for i, x in enumerate(t.numbers):
            index[x] = i
        root = list(range(size))  # union-find on indices; a class's root is its first

        def find(i):
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        products, parent, via = t.products, t.parent, t.via
        for j in range(r):
            left = [products[j]] * size  # number -> number of gens[j] . x
            for x in range(1, size):
                left[x] = products[left[parent[x]] * r + via[x]]
            for x in range(size):
                a, b = find(index[left[x]]), find(index[products[x * r + j]])
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

    def fixed_locus_of(self, g):
        """``fixed_locus(g)`` for an element g, solved on first request only,
        by the group's solver."""
        loc = self._fixed_loci.get(g)
        if loc is None:
            loc = self._fixed_loci[g] = fixed_locus(g, self.solver)
        return loc


def affine_product(m, a, n, b):
    """The data (M N, a + M b) of (t_a . M)(t_b . N), for matrices M, N as
    int tuple rows and TorsionPoints a, b."""
    return tuple(map(tuple, mat_mul(m, n))), a + b.apply_matrix(m)


def bfs_closure(identity, gens, cap, overflow):
    """Breadth-first closure of ``gens`` under right composition, starting at
    ``identity``: the elements, and the ``ClosureTables`` of the search.
    Each level is ordered by ``sort_key``, so the element order depends only
    on the generator list.  The exception ``overflow`` is raised as soon as
    the closure holds more than ``cap`` elements.

    The elements are affine maps of one kind, with ``matrix``,
    ``translation`` and ``with_data``; two are equal iff their data (matrix,
    translation) are.  Elements are composed in the order they are found.
    Each product is hashed once, as its data, and an element is built from
    its data only when it is new."""
    data = [(identity.matrix, identity.translation)]  # by number
    found = [identity]
    number = {data[0]: 0}
    gen_data = [(h.matrix, h.translation) for h in gens]
    products, parent, via = [], [-1], [-1]
    numbers = [0]
    key = type(identity).sort_key
    start = 0
    while start < len(found):
        stop = len(found)
        for x in range(start, stop):
            m, a = data[x]
            for j, (n, b) in enumerate(gen_data):
                c = affine_product(m, a, n, b)
                k = number.setdefault(c, len(found))
                if k == len(found):
                    if k >= cap:
                        raise overflow
                    data.append(c)
                    found.append(identity.with_data(*c))
                    parent.append(x)
                    via.append(j)
                products.append(k)
        numbers.extend(sorted(range(stop, len(found)), key=lambda y: key(found[y])))
        start = stop
    elements = [found[k] for k in numbers]
    return elements, ClosureTables(products, parent, via, numbers)


def close_group(gens, cap=DEFAULT_GROUP_CAP) -> FiniteGroupAction:
    """Breadth-first closure under composition (lexicographic tie-break per
    level); a finite closed set under composition containing the generators
    is automatically a group.  A generator whose holonomy has infinite order
    is rejected before closing; the others have finite order, since their
    translations are torsion."""
    if not gens:
        raise InputError("no generators", code="no-generators")
    variety = gens[0].variety
    for g in gens:
        if g.variety != variety:
            raise InputError("generators on different varieties", code="mixed-varieties")
        if abs(determinant(g.holonomy.matrix)) != 1:
            raise InputError("holonomy is not an automorphism", code="not-automorphism")
        holonomy_order(g.holonomy)
    ident = AffineAutomorphism.of(EndoBlockMatrix.identity(variety))
    gens_sorted = sorted(set(gens), key=AffineAutomorphism.sort_key)
    elements, tables = bfs_closure(
        ident, gens_sorted, cap, InputError("group order exceeds cap", code="cap-exceeded"))
    return FiniteGroupAction(variety, tuple(gens_sorted), tuple(elements), tables)


def fixed_locus(g: AffineAutomorphism, solver=None) -> AffineSolutionSet:
    """Fix(t_a . phi) = solutions of (I - rho(phi)) x == a on the torus, by
    ``solver``, a ``FixedPointSolver`` (a new one when omitted)."""
    if solver is None:
        solver = FixedPointSolver()
    return solver.solve(g.holonomy.matrix, g.translation)


def pointwise_stabilizer(t: SubtorusTranslate, group: FiniteGroupAction):
    """Elements fixing the translate pointwise, and the ramification index e
    (= order of that subgroup)."""
    members = []
    for g in group.elements:
        rho = g.holonomy.matrix
        m = mat_sub(identity_matrix(len(rho)), rho)
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


def holonomy_order(phi: EndoBlockMatrix):
    """Order of phi.  Every finite order divides K = ``order_bound``, so phi
    has infinite order when none of its first K powers is the identity.  At
    most DEFAULT_GROUP_CAP powers are tried.  When K exceeds that cap, phi^K
    is first taken mod a prime: a result other than I proves infinite order.
    Otherwise a search that reaches the cap means the order exceeds the
    default group cap, finite or not."""
    bound = order_bound(phi.variety.ambient_rank)
    if bound > DEFAULT_GROUP_CAP:
        rho = phi.matrix
        if _power_mod(rho, bound, _ORDER_PRIME) != identity_matrix(len(rho)):
            raise InputError("holonomy has infinite order", code="infinite-order")
    ident = EndoBlockMatrix.identity(phi.variety)
    power = phi
    for k in range(1, min(bound, DEFAULT_GROUP_CAP) + 1):
        if power == ident:
            return k
        power = power.compose(phi)
    if bound <= DEFAULT_GROUP_CAP:
        raise InputError("holonomy has infinite order", code="infinite-order")
    raise InputError("holonomy order exceeds cap", code="cap-exceeded")


def group_exponent(group: FiniteGroupAction):
    """lcm of the orders of the holonomies, found by walking the powers of
    the holonomy of each class's first element.  Conjugate elements have
    conjugate holonomies, of one order, and every holonomy is that of some
    element, so these orders have the same lcm as all of them.  A holonomy
    an earlier walk reached is a power of that walk's holonomy, so its order
    divides the one already taken; it is skipped."""
    e = 1
    reached = set()
    for g in group.nontrivial_class_reps():
        phi = g.holonomy
        if phi in reached:
            continue
        power, k = phi, 1
        while not power.is_identity():
            reached.add(power)
            power, k = power.compose(phi), k + 1
        e = lcm(e, k)
    return e


def cyclo_field_for(group: FiniteGroupAction) -> CycloField:
    """Q(zeta_m), m = lcm(12, exponent of the holonomy group): every
    holonomy order divides m, so the field holds every eigenvalue of the
    group and the roots of unity of the zeta4 and zeta6 factors."""
    return CycloField(lcm(12, group_exponent(group)))


def age(g: AffineAutomorphism, field: CycloField) -> Fraction:
    """Sum of the r_j over the analytic eigenvalues e^(2 pi i r_j) of the
    holonomy, r_j in [0,1); 0 for identity holonomy."""
    phi = g.holonomy
    if phi.is_identity():
        return Fraction(0)
    order = holonomy_order(phi)
    if field.m % order != 0:
        raise InputError("field too small", code="field-too-small")
    mat = analytic_rep(phi, field)
    total = Fraction(0)
    for d in range(2, order + 1):
        if order % d != 0:
            continue
        for k in range(1, d):
            if gcd(k, d) != 1:
                continue
            zeta = field.root_of_unity(d, k)
            mult = eigen_multiplicity(mat, zeta)
            if mult:
                total += Fraction(k, d) * mult
    return total


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
