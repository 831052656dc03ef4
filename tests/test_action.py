import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fqav import action as action_module
from fqav.action import (
    AffineAutomorphism,
    ClosureTables,
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
from fqav.cyclotomic import CycloField
from fqav.decompose import group_to_lattice_elements, to_lattice_elements
from fqav.errors import InputError
from fqav.linalg import TorsionPoint, fixed_lattice
from fqav.variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    SubtorusTranslate,
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
        products = []

        def counting(*data):
            products.append(data)
            return affine_product(*data)

        monkeypatch.setattr(action_module, "affine_product", counting)
        with pytest.raises(InputError) as exc:
            close_group(gens, cap=2)
        assert exc.value.code == "cap-exceeded"
        # the first level takes one product per generator; the third
        # element exceeds the cap after the second
        assert len(products) == 2 < len(gens)

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
                h_inv = AffineAutomorphism(
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


@st.composite
def small_groups(draw):
    """A closed group of order at most 48.  Half the draws take one to three
    generators like acceptance criterion 8.  The other half act on a power
    of one curve by a diagonal of units and a coordinate permutation, each
    with a 2-torsion translation, so that many groups are non-abelian."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        if rng.randrange(2):
            variety = random_variety(rng)
            gens = [g for g in (random_automorphism(rng, variety, max_order=12,
                                                    denoms=(1, 1, 2))
                                for _ in range(rng.randint(1, 3))) if g is not None]
        else:
            n = rng.randint(2, 3)
            factor = rng.choice(FACTOR_POOL)
            variety = AbelianVarietyModel.of(*[factor] * n)
            units = [rng.choice(UNITS[factor.cm]) for _ in range(n)]
            images = list(range(n))
            rng.shuffle(images)
            monomial = ([[units[j] if j == k else (0, 0) for k in range(n)] for j in range(n)],
                        [[(1, 0) if images[k] == j else (0, 0) for k in range(n)]
                         for j in range(n)])
            gens = [automorphism(variety, rows, [rng.choice((0, "1/2")) for _ in range(2 * n)])
                    for rows in monomial]
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


def assert_tables(group):
    """The recorded tables against compositions of the elements."""
    t = group.tables
    r = len(group.generators)
    size = group.order
    assert sorted(t.numbers) == list(range(size))
    element = [None] * size  # number -> element
    for i, x in enumerate(t.numbers):
        element[x] = group.elements[i]
    assert element[0].is_identity()
    assert len(t.products) == size * r
    for x in range(size):
        for j, h in enumerate(group.generators):
            assert element[t.products[x * r + j]] == element[x].compose(h)
    assert t.parent[0] == t.via[0] == -1
    for x in range(1, size):
        assert 0 <= t.parent[x] < x
        assert element[x] == element[t.parent[x]].compose(group.generators[t.via[x]])


class TestConjugacyClasses:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        for group in groups:
            assert_tables(group)
            assert group.class_rep == brute_force_class_rep(group)
        # classes of S3, the order-32 group, and of orders 48 and 108
        assert [len(set(g.class_rep)) for g in groups[5:]] == [3, 14, 8, 20]

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_tables(group)
        assert group.class_rep == brute_force_class_rep(group)

    def test_first_elements_in_order(self):
        for group in nonabelian_groups():
            reps = [i for i, r in enumerate(group.class_rep) if r == i]
            assert group.nontrivial_class_reps() == [group.elements[i] for i in reps[1:]]
            assert group.class_rep[0] == 0


def object_keyed_closure(identity, gens, cap, overflow):
    """Reference for ``bfs_closure``: the same search, hashing each product
    as the element ``compose`` builds."""
    found = [identity]
    number = {identity: 0}
    products, parent, via = [], [-1], [-1]
    numbers = [0]
    start = 0
    while start < len(found):
        stop = len(found)
        for x in range(start, stop):
            for j, h in enumerate(gens):
                c = found[x].compose(h)
                k = number.setdefault(c, len(found))
                if k == len(found):
                    if k >= cap:
                        raise overflow
                    found.append(c)
                    parent.append(x)
                    via.append(j)
                products.append(k)
        numbers.extend(sorted(range(stop, len(found)), key=lambda y: found[y].sort_key()))
        start = stop
    return [found[k] for k in numbers], ClosureTables(products, parent, via, numbers)


def assert_closure_matches_oracle(group):
    """bfs_closure equals the object-keyed closure, on the automorphisms and
    on their lattice elements: the same elements in the same order, and the
    same tables."""
    overflow = AssertionError("closure too large")
    want = object_keyed_closure(group.identity(), list(group.generators), group.order,
                                overflow)
    assert (list(group.elements), group.tables) == want
    identity = group_to_lattice_elements(group)[0]
    gens = to_lattice_elements(group.generators)
    assert bfs_closure(identity, gens, group.order, overflow) == object_keyed_closure(
        identity, gens, group.order, overflow)


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
        assert len(built) == closed.order - 1 < len(closed.tables.products) // 2


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
