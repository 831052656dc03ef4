import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fqav import action as action_module
from fqav import linalg
from fqav.action import (
    AffineAutomorphism,
    ClosureTables,
    LatticeElement,
    affine_product,
    age,
    bfs_closure,
    close_group,
    cyclo_field_for,
    descend_multiplication,
    fixed_locus,
    group_exponent,
    holonomy_order,
    order_bound,
    pointwise_stabilizer,
)
from fqav.cli import parse_input
from fqav.cyclotomic import CycloField, eigen_multiplicity, split_prime
from fqav.errors import InputError
from fqav.linalg import (
    TorsionPoint,
    fixed_lattice,
    mat_mul,
)
from fqav.variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    SubtorusTranslate,
    analytic_rep,
    rational_rep,
)

from conftest import FIXTURE_DIR, automorphism
from test_acceptance import FACTOR_POOL, random_automorphism, random_variety
from test_golden import FIXTURES, SL_DIAG, sl_diag_document


class TestClosure:
    def test_orders(self, rot4_square_group, sign_rot4_group, kummer_group, bielliptic_group,
                    p1_group):
        assert rot4_square_group.order == 4
        assert sign_rot4_group.order == 4
        assert kummer_group.order == 2
        assert bielliptic_group.order == 2
        assert p1_group.order == 4

    def test_bielliptic_translation_survives(self, bielliptic_group):
        g = [x for x in bielliptic_group.elements if not x.is_identity()][0]
        assert g.translation == TorsionPoint.of([Fraction(1, 2), 0, 0, 0])

    def test_closed_under_composition(self, sign_rot4_group):
        els = set(sign_rot4_group.elements)
        for a in els:
            for b in els:
                assert a.compose(b) in els

    def test_cap(self, ei_squared):
        g = automorphism(ei_squared, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
        with pytest.raises(InputError) as exc:
            close_group([g], cap=3)
        assert exc.value.code == "cap-exceeded"

    def test_cap_checked_per_new_element(self, ei_squared, monkeypatch):
        gens = [automorphism(ei_squared, [[(0, 1), (0, 0)], [(0, 0), (1, 0)]]),
                automorphism(ei_squared, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]),
                automorphism(ei_squared, [[(1, 0), (0, 0)], [(0, 0), (1, 0)]],
                             ["1/2", 0, 0, 0])]
        built = []
        original = AffineAutomorphism.with_data

        def counting(self, matrix, translation):
            built.append(matrix)
            return original(self, matrix, translation)

        monkeypatch.setattr(AffineAutomorphism, "with_data", counting)
        with pytest.raises(InputError) as exc:
            close_group(gens, cap=4)
        assert exc.value.code == "cap-exceeded"
        # the first level builds one element per generator; the next new
        # element, the first of the second level, exceeds the cap
        assert len(built) == len(gens) == 3

    @pytest.mark.parametrize("block", [((2, 1), (1, 1)), ((1, 1), (0, 1))])
    def test_infinite_order_holonomy_rejected(self, block):
        # det 1, but no power is the identity; the second has the
        # cyclotomic characteristic polynomial (x - 1)^2
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(e, e)
        g = automorphism(variety, [[(c, 0) for c in row] for row in block])
        with pytest.raises(InputError) as exc:
            holonomy_order(g.holonomy)
        assert exc.value.code == "infinite-order"
        with pytest.raises(InputError) as exc:
            close_group([g], cap=1)
        assert exc.value.code == "infinite-order"

    def test_huge_holonomy_rejected_in_one_product(self, monkeypatch):
        # [[N, 1], [-1, 0]] + 1 on E^3 has det 1 and trace 2N + 2 > 6, so it
        # has infinite order; [[1, 1], [1, 0]] + 1 has trace 4, and its
        # square, trace 8.  Neither search walks the 2520 powers, whose
        # entries grow with each one
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(e, e, e)
        one, zero = (1, 0), (0, 0)
        products = []

        def counting(a, b):
            products.append(a)
            return mat_mul(a, b)

        monkeypatch.setattr(action_module, "mat_mul", counting)
        huge = [[(10 ** 1000, 0), one, zero], [(-1, 0), zero, zero], [zero, zero, one]]
        fibonacci = [[one, one, zero], [one, zero, zero], [zero, zero, one]]
        for rows, made in ((huge, 0), (fibonacci, 1)):
            g = automorphism(variety, rows)
            products.clear()
            with pytest.raises(InputError) as exc:
                close_group([g])
            assert exc.value.code == "infinite-order"
            assert len(products) == made

    def test_order_search_stops_at_default_cap(self):
        # on E^5, K = 55440 exceeds the default cap, so the power search
        # would stop there; phi^K != I mod a prime proves the unipotent
        # holonomy has infinite order before that search starts
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(*[e] * 5)
        rows = [[(int(i == j) + int((i, j) == (0, 1)), 0) for j in range(5)]
                for i in range(5)]
        with pytest.raises(InputError) as exc:
            holonomy_order(automorphism(variety, rows).holonomy)
        assert exc.value.code == "infinite-order"

    @pytest.mark.parametrize("images,order", [((1, 2, 3, 4, 0), 5),
                                              ((1, 0, 3, 4, 2), 6)])
    def test_finite_order_above_the_cap_bound(self, images, order):
        # on E^5 a permuting holonomy passes the mod-prime power check and
        # the search finds its order
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(*[e] * 5)
        rows = [[(int(images[k] == j), 0) for k in range(5)] for j in range(5)]
        assert holonomy_order(automorphism(variety, rows).holonomy) == order

    def test_order_bound(self):
        # lcm of the d with phi(d) <= rank
        assert [order_bound(r) for r in (2, 4, 6)] == [12, 120, 2520]

    def test_translation_only_generator_of_finite_order(self, ei_squared):
        g = automorphism(ei_squared,
                         [[(1, 0), (0, 0)], [(0, 0), (1, 0)]],
                         ["1/3", 0, 0, 0])
        group = close_group([g])
        assert group.order == 3

    def test_non_invertible_holonomy_rejected(self, ei_squared):
        doubling = automorphism(ei_squared, [[(2, 0), (0, 0)], [(0, 0), (1, 0)]])
        with pytest.raises(InputError) as exc:
            close_group([doubling])
        assert exc.value.code == "not-automorphism"


class TestFixedLoci:
    def test_mult_by_i_has_four_fixed_points(self, p1_group):
        g = next(x for x in p1_group.elements
                 if holonomy_order(x.holonomy) == 4)
        loc = fixed_locus(g)
        assert loc.nonempty
        assert loc.dim == 0
        assert len(loc.representatives) == 2

    def test_sign_rot4_square_is_curve_times_torsion(self, sign_rot4_group):
        sq = next(x for x in sign_rot4_group.elements
                  if holonomy_order(x.holonomy) == 2)
        loc = fixed_locus(sq)
        assert loc.dim == 1
        assert len(loc.representatives) == 4
        lat = loc.kernel
        assert [list(r) for r in lat.basis_rows()] == [[1, 0, 0, 0], [0, 1, 0, 0]]

    def test_kummer_sixteen_points(self, kummer_group):
        g = kummer_group.nontrivial_elements()[0]
        loc = fixed_locus(g)
        assert loc.dim == 0
        assert len(loc.representatives) == 16

    def test_bielliptic_fixed_free(self, bielliptic_group):
        g = bielliptic_group.nontrivial_elements()[0]
        assert not fixed_locus(g).nonempty
        assert fixed_locus(g).dim is None

    def test_conjugation_moves_fixed_locus(self, rot4_square_group):
        # Fix(h g h^-1) = h(Fix(g)) as sets of components
        from fqav.linalg import Lattice, mat_vec

        els = list(rot4_square_group.elements)
        for g in els:
            for h in els:
                inv = h.holonomy
                while not inv.compose(h.holonomy).is_identity():
                    inv = inv.compose(h.holonomy)
                h_inv = AffineAutomorphism.of(
                    inv, (-h.translation).apply_matrix(rational_rep(inv)))
                assert h.compose(h_inv).is_identity()
                conj = h.compose(g).compose(h_inv)
                left = fixed_locus(conj)
                right = fixed_locus(g)
                assert left.nonempty == right.nonempty
                if not left.nonempty:
                    continue
                rho_h = rational_rep(h.holonomy)
                moved = {
                    SubtorusTranslate(
                        Lattice.from_vectors(
                            4, [mat_vec(rho_h, list(v))
                                for v in right.kernel.basis_rows()]),
                        rep.apply_matrix(rho_h) + h.translation).canonical_key()
                    for rep in right.representatives}
                got = {SubtorusTranslate(left.kernel, rep).canonical_key()
                       for rep in left.representatives}
                assert got == moved


class TestStabilizer:
    def test_sign_rot4_component_stabilizer(self, sign_rot4_group):
        sq = next(x for x in sign_rot4_group.elements
                  if holonomy_order(x.holonomy) == 2)
        loc = fixed_locus(sq)
        comp = SubtorusTranslate(loc.kernel, loc.representatives[0])
        members, e = pointwise_stabilizer(comp, sign_rot4_group)
        assert e == 2
        assert {m.holonomy for m in members} == {
            sign_rot4_group.identity().holonomy, sq.holonomy}

    def test_free_action_trivial_stabilizers(self, bielliptic_group):
        from fqav.linalg import Lattice
        from fqav.variety import SubtorusTranslate

        t = SubtorusTranslate(Lattice.zero(4), TorsionPoint.zero(4))
        members, e = pointwise_stabilizer(t, bielliptic_group)
        assert e == 1


class TestAges:
    def test_mult_by_i_diagonal(self, rot4_square_group):
        field = cyclo_field_for(rot4_square_group)
        ages = sorted(age(g, field) for g in rot4_square_group.elements)
        # id, [i]x[i], [-1]x[-1], [-i]x[-i]
        assert ages == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]

    def test_minus_one_times_i(self, e_times_ei):
        g = automorphism(e_times_ei, [[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
        group = close_group([g])
        field = cyclo_field_for(group)
        assert age(g, field) == Fraction(3, 4)

    def test_kummer_age_one(self, kummer_group):
        field = cyclo_field_for(kummer_group)
        g = kummer_group.nontrivial_elements()[0]
        assert age(g, field) == Fraction(1)

    def test_age_pairing(self, rot4_square_group, sign_rot4_group, p1_group):
        # age(g) + age(g^-1) = codim of the holonomy-fixed analytic subspace
        for group in (rot4_square_group, sign_rot4_group, p1_group):
            field = cyclo_field_for(group)
            by_hol = {g.holonomy: g for g in group.elements}
            for g in group.elements:
                inv = g.holonomy
                while not inv.compose(g.holonomy).is_identity():
                    inv = inv.compose(g.holonomy)
                total = age(g, field) + age(by_hol[inv], field)
                assert total.denominator == 1

    def test_ages_do_not_depend_on_the_field(self):
        # ages are exact, so Q(zeta_2m) gives every class the age that
        # Q(zeta_m), the group's own field, gives it
        texts = [(FIXTURE_DIR / f"{name}.json").read_text() for name in FIXTURES]
        texts += [json.dumps(sl_diag_document(*args)) for args in SL_DIAG.values()]
        for text in texts:
            group = close_group(parse_input(text)[1])
            field = cyclo_field_for(group)
            double = CycloField(2 * field.m)
            for g in group.nontrivial_class_reps():
                assert age(g, double) == age(g, field), text

    def test_mult_by_i_single_factor(self, p1_group):
        field = cyclo_field_for(p1_group)
        g = next(x for x in p1_group.elements
                 if holonomy_order(x.holonomy) == 4)
        assert age(g, field) == Fraction(1, 4)

    def test_field_too_small(self, p1_group):
        g = next(x for x in p1_group.elements
                 if holonomy_order(x.holonomy) == 4)
        variety = AbelianVarietyModel.of(EllipticFactor("zeta4"),
                                         EllipticFactor("zeta4"))
        # [[0, i], [1, 0]] squares to i . Id, so its holonomy order is 8
        order8 = automorphism(variety, [[(0, 0), (0, 1)], [(1, 0), (0, 0)]])
        assert holonomy_order(order8.holonomy) == 8
        group8 = close_group([order8])
        assert cyclo_field_for(group8).m == 24
        with pytest.raises(InputError) as exc:
            age(order8, CycloField(12))
        assert exc.value.code == "field-too-small"
        assert age(g, CycloField(12)) == Fraction(1, 4)


class TestDescend:
    def test_no_translations_gives_two(self, rot4_square_group, kummer_group):
        assert descend_multiplication(rot4_square_group) == 2
        assert descend_multiplication(kummer_group) == 2

    def test_bielliptic(self, bielliptic_group):
        assert descend_multiplication(bielliptic_group) == 3

    def test_order_three_translation(self, ei_squared):
        g = automorphism(ei_squared, [[(1, 0), (0, 0)], [(0, 0), (1, 0)]],
                         ["1/3", 0, 0, 0])
        assert descend_multiplication(close_group([g])) == 4


class TestHolonomyInvariants:
    def test_exponents(self, rot4_square_group, sign_rot4_group, kummer_group):
        assert group_exponent(rot4_square_group) == 4
        assert group_exponent(sign_rot4_group) == 4
        assert group_exponent(kummer_group) == 2
        # S3 permuting E^3: no element has order 6, the exponent
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(e, e, e)
        one, zero = (1, 0), (0, 0)
        s3 = close_group([
            automorphism(variety, [[zero, one, zero], [zero, zero, one], [one, zero, zero]]),
            automorphism(variety, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])])
        assert s3.order == 6 and group_exponent(s3) == 6
        holonomies = dict.fromkeys(g.holonomy for g in s3.elements)
        assert sorted(holonomy_order(phi) for phi in holonomies) == [1, 2, 2, 2, 3, 3]

    def test_fixed_space_dims(self, rot4_square_group, sign_rot4_group, bielliptic_group):
        def fixed_space_dim(group):
            holonomies = dict.fromkeys(g.holonomy for g in group.elements)
            reps = [rational_rep(phi) for phi in holonomies]
            return fixed_lattice(reps, group.variety.ambient_rank).rank

        assert fixed_space_dim(rot4_square_group) == 0
        assert fixed_space_dim(sign_rot4_group) == 0
        assert fixed_space_dim(bielliptic_group) == 2


# ---------------------------------------------------------------------------
# closure tables and conjugacy classes

ORACLE = settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


# the units of End(E) as (c, d) meaning c + d*tau
UNITS = {"zeta4": ((1, 0), (-1, 0), (0, 1), (0, -1)),
         "zeta6": ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)),
         "generic": ((1, 0), (-1, 0))}


def random_generators(rng, denoms=(1, 1, 2)):
    """Generators of one variety, not closed.  Half the draws take one to
    three like acceptance criterion 8, with translations over ``denoms``,
    and may take none.  The other half act on a power of one curve by a
    diagonal of units and a coordinate permutation, each with a 2-torsion
    translation, so that many of the groups they generate are
    non-abelian."""
    if rng.randrange(2):
        variety = random_variety(rng)
        return [g for g in (random_automorphism(rng, variety, max_order=12, denoms=denoms)
                            for _ in range(rng.randint(1, 3))) if g is not None]
    n = rng.randint(2, 3)
    factor = rng.choice(FACTOR_POOL)
    variety = AbelianVarietyModel.of(*[factor] * n)
    units = [rng.choice(UNITS[factor.cm]) for _ in range(n)]
    images = list(range(n))
    rng.shuffle(images)
    monomial = ([[units[j] if j == k else (0, 0) for k in range(n)] for j in range(n)],
                [[(1, 0) if images[k] == j else (0, 0) for k in range(n)]
                 for j in range(n)])
    return [automorphism(variety, rows, [rng.choice((0, "1/2")) for _ in range(2 * n)])
            for rows in monomial]


@st.composite
def small_groups(draw):
    """A closed group of order at most 48, from ``random_generators``."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        gens = random_generators(rng)
        if not gens:
            continue
        try:
            return close_group(gens, cap=48)
        except InputError:
            continue


def nonabelian_groups():
    """Groups with conjugacy classes of more than one element: S3 permuting
    E^3 (its transpositions fix divisors), zeta4^3 by a reflection and a
    swap carrying a 1/2-translation (order 32), and the special-linear
    diagonal groups extended by the cyclic permutation (orders 48, 108)."""
    e = EllipticFactor("generic", "E")
    one, zero, i = (1, 0), (0, 0), (0, 1)
    cycle = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
    swap = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    s3 = close_group([automorphism(AbelianVarietyModel.of(e, e, e), cycle),
                      automorphism(AbelianVarietyModel.of(e, e, e), swap)])
    ei3 = AbelianVarietyModel.of(*[EllipticFactor("zeta4")] * 3)
    reflection_swap = close_group([
        automorphism(ei3, [[i, zero, zero], [zero, one, zero], [zero, zero, one]]),
        automorphism(ei3, swap, [0, 0, 0, 0, "1/2", 0])])
    sl = [close_group(parse_input(json.dumps(sl_diag_document(cm, True)))[1])
          for cm in ("zeta4", "zeta6")]
    return [s3, reflection_swap] + sl


def brute_force_class_rep(group):
    """The index of the first element of {h g h^-1 : h in G} for each g."""
    elements = group.elements
    index = {g: i for i, g in enumerate(elements)}
    ident = elements[0]
    inverse = {h: next(x for x in elements if h.compose(x) == ident) for h in elements}
    return [min(index[h.compose(g).compose(inverse[h])] for h in elements)
            for g in elements]


def assert_tables(elements, generators, tables):
    """The tables of the closure ``elements`` of ``generators``, numbered by
    element position, against compositions of the elements: the columns,
    the BFS tree, and the left multiplication by each element read off
    them."""
    size = len(elements)
    assert elements[0].is_identity()
    assert len(tables.columns) == len(generators)
    for h, column in zip(generators, tables.columns):
        assert len(column) == size
        assert all(elements[column[x]] == elements[x].compose(h) for x in range(size))
    assert tables.parent[0] == tables.via[0] == -1
    for x in range(1, size):
        assert 0 <= tables.parent[x] < x
        assert elements[x] == elements[tables.parent[x]].compose(
            generators[tables.via[x]])
    for g, element in enumerate(elements):
        assert [elements[y] for y in tables.left(g)] == [element.compose(e) for e in elements]
    # y . x by x's word: the identity reaches x, and generator j reaches
    # gens[j] . x
    for x in range(size):
        word = tables.word(x)
        for start in [0] + [column[0] for column in tables.columns]:
            y = start
            for j in word:
                y = tables.columns[j][y]
            assert elements[y] == elements[start].compose(elements[x])
        assert len(word) == (0 if x == 0 else len(tables.word(tables.parent[x])) + 1)


class TestConjugacyClasses:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        for group in groups:
            assert_tables(group.elements, group.generators, group.tables)
            assert group.class_rep == brute_force_class_rep(group)
        # classes of S3, the order-32 group, and of orders 48 and 108
        assert [len(set(g.class_rep)) for g in groups[5:]] == [3, 14, 8, 20]

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_tables(group.elements, group.generators, group.tables)
        assert group.class_rep == brute_force_class_rep(group)

    def test_first_elements_in_order(self):
        for group in nonabelian_groups():
            reps = [i for i, r in enumerate(group.class_rep) if r == i]
            assert group.nontrivial_class_reps() == [group.elements[i] for i in reps[1:]]
            assert group.class_rep[0] == 0


def product_closure(identity, gens, cap, overflow):
    """Reference for ``bfs_closure``: the same search, level order and
    tables, with one ``affine_product`` of matrices and translations for
    each product, keyed by its data (matrix, translation)."""
    data = [(identity.matrix, identity.translation)]  # by discovery number
    found = [identity]
    number = {data[0]: 0}
    gen_data = [(h.matrix, h.translation) for h in gens]
    found_columns, parent, via = [[] for _ in gens], [-1], [-1]
    numbers = [0]  # discovery number of each element position
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
                found_columns[j].append(k)
        numbers.extend(sorted(range(stop, len(found)), key=lambda y: key(found[y])))
        start = stop
    position = [0] * len(numbers)
    for i, k in enumerate(numbers):
        position[k] = i
    tables = ClosureTables([[position[col[k]] for k in numbers] for col in found_columns],
                           [-1] + [position[parent[k]] for k in numbers[1:]],
                           [via[k] for k in numbers])
    return [found[k] for k in numbers], tables


def closure_outcome(closure, identity, gens, cap):
    """The elements and tables ``closure`` finds, or "overflow" when it
    raises the exception it is handed."""
    overflow = InputError("closure too large", code="cap-exceeded")
    try:
        return closure(identity, gens, cap, overflow)
    except InputError as exc:
        assert exc is overflow
        return "overflow"


def assert_closure_matches_product_closure(identity, gens, cap):
    """``bfs_closure`` finds what ``product_closure`` finds: the same
    elements in the same order and the same tables, or the same overflow,
    raised exactly when the order exceeds ``cap``."""
    want = closure_outcome(product_closure, identity, gens, cap)
    assert closure_outcome(bfs_closure, identity, gens, cap) == want
    return want


def lattice_elements(automorphisms):
    """Each automorphism as the plain lattice element of its data."""
    return [LatticeElement(g.matrix, g.translation) for g in automorphisms]


def assert_closure_matches_oracle(group):
    """bfs_closure equals the product closure, on the automorphisms and on
    their lattice elements, with the group's order as the cap."""
    assert assert_closure_matches_product_closure(
        group.identity(), list(group.generators), group.order) == (
        list(group.elements), group.tables)
    assert_closure_matches_product_closure(lattice_elements([group.identity()])[0],
                                           lattice_elements(group.generators), group.order)


def assert_lattice_data(group):
    """Each element and generator equals the plain lattice element of its
    data, hashes like it and sorts by its holonomy's blocks, and its matrix
    is the rational representation of the holonomy read off it."""
    for g in group.elements + group.generators:
        plain = LatticeElement(g.matrix, g.translation)
        assert g == plain and plain == g and hash(g) == hash(plain)
        assert tuple(map(tuple, rational_rep(g.holonomy))) == g.matrix
        assert EndoBlockMatrix.from_rows(group.variety, g.holonomy.blocks) == g.holonomy
        assert g.sort_key() == (g.holonomy.sort_key(), g.translation.sort_key())


class TestOneElementType:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        for group in [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group] + nonabelian_groups():
            assert_lattice_data(group)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_lattice_data(group)

    def test_variety_is_not_data(self, ei_squared):
        # the automorphisms of two varieties with the same data are equal
        # as lattice elements; a closure never mixes them
        e = EllipticFactor("generic", "E")
        generic = AbelianVarietyModel.of(e, e)
        rows = [[(-1, 0), (0, 0)], [(0, 0), (1, 0)]]
        g, h = automorphism(ei_squared, rows), automorphism(generic, rows)
        assert g == h and g.variety != h.variety
        with pytest.raises(InputError) as exc:
            close_group([g, h])
        assert exc.value.code == "mixed-varieties"


class TestRawKeyClosure:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        for group in [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group] + nonabelian_groups():
            assert_closure_matches_oracle(group)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_closure_matches_oracle(group)

    def test_elements_built_only_when_new(self, monkeypatch):
        group = nonabelian_groups()[-1]
        built = []
        original = AffineAutomorphism.with_data

        def counting(self, matrix, translation):
            built.append(matrix)
            return original(self, matrix, translation)

        monkeypatch.setattr(AffineAutomorphism, "with_data", counting)
        closed = close_group(list(group.generators))
        # one build per element but the identity, though most products repeat
        assert len(built) == closed.order - 1 < closed.order * len(closed.generators) // 2


class TestRowTableClosure:
    """``bfs_closure`` reads each product off its row tables, against the
    product closure on generator sets that are not closed, with caps below
    and above their orders."""

    @ORACLE
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
    def test_random_generators(self, seed, cap):
        rng = random.Random(seed)
        gens = []
        while not gens:
            gens = random_generators(rng, denoms=(1, 2, 3, 4))
        identity = AffineAutomorphism.of(EndoBlockMatrix.identity(gens[0].variety))
        assert_closure_matches_product_closure(identity, gens, cap)
        assert_closure_matches_product_closure(lattice_elements([identity])[0],
                                               lattice_elements(gens), cap)

    def test_order_108_makes_no_product(self, monkeypatch):
        gens = sorted(set(parse_input(json.dumps(sl_diag_document("zeta6", True)))[1]),
                      key=AffineAutomorphism.sort_key)
        identity = AffineAutomorphism.of(EndoBlockMatrix.identity(gens[0].variety))
        overflow = AssertionError("closure too large")
        want = product_closure(identity, gens, 108, overflow)

        def refuse(*args):
            raise AssertionError("a matrix product in the closure")

        monkeypatch.setattr(action_module, "affine_product", refuse)
        monkeypatch.setattr(action_module, "mat_mul", refuse)
        monkeypatch.setattr(linalg, "mat_mul", refuse)
        assert bfs_closure(identity, gens, 108, overflow) == want
        assert len(want[0]) == 108


class TestDescendOnGenerators:
    """``descend_multiplication`` reads the generators only; this is the
    lcm over every element, with [m] checked on every element."""

    @staticmethod
    def all_elements_m(group):
        m = 1 + lcm(*(g.translation.order for g in group.elements))
        assert all(g.translation.scaled(m - 1).is_zero() for g in group.elements)
        return m

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert descend_multiplication(group) == self.all_elements_m(group)

    def test_gallery(self, bielliptic_group):
        for group in [bielliptic_group] + nonabelian_groups():
            assert descend_multiplication(group) == self.all_elements_m(group)


def reference_group_exponent(group):
    """The lcm of the holonomy orders of the classes' first elements, by
    matrix powers of each holonomy's rational representation."""
    e = 1
    for g in group.nontrivial_class_reps():
        power, k = g.matrix, 1
        while power != tuple(map(tuple, linalg.identity_matrix(len(power)))):
            power, k = tuple(map(tuple, mat_mul(power, g.matrix))), k + 1
        e = lcm(e, k)
    return e


class TestExponentOnTables:
    """``group_exponent`` walks powers in the closure tables; the oracle
    multiplies matrices."""

    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        exponents = [group_exponent(group) for group in groups]
        assert exponents == [reference_group_exponent(group) for group in groups]
        assert exponents == [4, 4, 2, 4, 2, 6, 8, 12, 6]

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert group_exponent(group) == reference_group_exponent(group)

    def test_order_108_makes_no_product(self, monkeypatch):
        group = nonabelian_groups()[-1]
        assert group.order == 108

        def refuse(*args):
            raise AssertionError("a matrix product in group_exponent")

        monkeypatch.setattr(action_module, "mat_mul", refuse)
        monkeypatch.setattr(linalg, "mat_mul", refuse)
        assert group_exponent(group) == 6


# ---------------------------------------------------------------------------
# ages from the spectrum mod p against the cyclotomic reference

def reference_age(phi, field):
    """The age by eigen_multiplicity over Q(zeta_m): one kernel rank per
    primitive root of each order dividing the holonomy order; None when the
    field does not hold the spectrum."""
    order = holonomy_order(phi)
    if field.m % order:
        return None
    mat = analytic_rep(phi, field)
    total = Fraction(0)
    for d in range(2, order + 1):
        if order % d == 0:
            for k in range(1, d):
                if gcd(k, d) == 1:
                    total += Fraction(k, d) * eigen_multiplicity(mat, field.root_of_unity(d, k))
    return total


@st.composite
def finite_order_holonomies(draw, sizes=st.integers(1, 4), monomial_only=False):
    """A block-monomial holonomy of units, which permutes factors with
    homomorphisms between them, conjugated by up to two transvections
    I + x e_jk between such factors (x with entries in [-2, 2])."""
    n = draw(sizes)
    factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=n, max_size=n))
    variety = AbelianVarietyModel.of(*factors)
    image = list(range(n))
    for key in dict.fromkeys(f.hom_key(f) for f in factors):
        slots = [j for j, f in enumerate(factors) if f.hom_key(f) == key]
        for j, k in zip(slots, draw(st.permutations(slots))):
            image[j] = k
    units = [draw(st.sampled_from(UNITS[f.cm])) for f in factors]
    rows = [[units[j] if image[j] == k else (0, 0) for k in range(n)] for j in range(n)]
    phi = EndoBlockMatrix.from_rows(variety, rows)
    pairs = [(j, k) for j in range(n) for k in range(n)
             if j != k and factors[j].hom_key(factors[k]) is not None]
    for _ in range(0 if monomial_only or not pairs else draw(st.integers(0, 2))):
        j, k = draw(st.sampled_from(pairs))
        c = draw(st.integers(-2, 2))
        d = draw(st.integers(-2, 2)) if factors[j].has_cm else 0

        def transvection(sign):
            return EndoBlockMatrix.from_rows(variety, [
                [(sign * c, sign * d) if (a, b) == (j, k) else ((1, 0) if a == b else (0, 0))
                 for b in range(n)] for a in range(n)])

        phi = transvection(1).compose(phi).compose(transvection(-1))
    return phi


class TestSpectrumModP:
    def assert_matches_reference(self, phi, field):
        g = AffineAutomorphism.of(phi)
        want = reference_age(phi, field)
        if want is None:
            with pytest.raises(InputError) as exc:
                age(g, field)
            assert exc.value.code == "field-too-small"
            return
        assert age(g, field) == want

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(finite_order_holonomies(), st.booleans())
    def test_random_holonomies(self, phi, smallest):
        # the group's field, lcm(12, order), or Q(zeta_12), which may be too
        # small for the spectrum
        m = 12 if smallest else lcm(12, holonomy_order(phi))
        self.assert_matches_reference(phi, CycloField(m))

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(finite_order_holonomies(sizes=st.just(6), monomial_only=True))
    def test_six_factors(self, phi):
        # p > 2n + 1 = 13 rules out 13 for m = 12
        assert split_prime(12, 13)[0] == 37
        self.assert_matches_reference(phi, CycloField(lcm(12, holonomy_order(phi))))

    def test_order_eight(self):
        z4 = EllipticFactor("zeta4")
        order8 = EndoBlockMatrix.from_rows(AbelianVarietyModel.of(z4, z4),
                                           [[(0, 0), (0, 1)], [(1, 0), (0, 0)]])
        assert holonomy_order(order8) == 8
        self.assert_matches_reference(order8, CycloField(12))
        self.assert_matches_reference(order8, CycloField(24))

    def test_split_prime(self):
        for m in (12, 24, 36, 60, 120):
            for above in (3, 5, 13, 37):
                p, z = split_prime(m, above)
                primes = [q for q in range(above + 1, p + 1)
                          if q % m == 1 and all(q % f for f in range(2, q))]
                assert primes == [p]
                assert [e for e in range(1, m + 1) if pow(z, e, p) == 1] == [m]
