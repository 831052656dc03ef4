import dataclasses
import inspect
import json
import random
import textwrap
from collections import Counter
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
    descend_multiplication,
    fixed_locus,
    holonomy_order,
    pointwise_stabilizer,
)
from fqav.cli import main, parse_input
from fqav.cyclotomic import CycloField, eigen_multiplicity, split_prime
from fqav.decompose import decompose
from fqav.errors import CertificateError, InputError
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
    rational_rep,
)

from conftest import (
    FIXTURE_DIR,
    as_generator,
    automorphism,
    class_ages,
    element,
    element_age,
    generator,
    holonomy,
    identity,
    identity_blocks,
    nontrivial_elements,
)
from oracles import (
    analytic_rep,
    bounded_walk_order,
    class_ages_over_conductor,
    group_field,
    max_finite_order,
    union_find_class_rep,
    walk_group_exponent,
)
from test_acceptance import FACTOR_POOL, random_generator, random_variety
from test_golden import FIXTURES, SL_DIAG, sl_diag_document, translated_sl_diag_document


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
        g = generator([[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
        with pytest.raises(InputError) as exc:
            close_group(ei_squared, [g], cap=3)
        assert exc.value.code == "cap-exceeded"

    def test_cap_checked_per_new_element(self, ei_squared, monkeypatch):
        gens = [generator([[(0, 1), (0, 0)], [(0, 0), (1, 0)]]),
                generator([[(1, 0), (0, 0)], [(0, 0), (0, 1)]]),
                generator([[(1, 0), (0, 0)], [(0, 0), (1, 0)]], ["1/2", 0, 0, 0])]
        built = []
        original = AffineAutomorphism.with_data

        def counting(self, matrix, translation):
            built.append(matrix)
            return original(self, matrix, translation)

        monkeypatch.setattr(AffineAutomorphism, "with_data", counting)
        with pytest.raises(InputError) as exc:
            close_group(ei_squared, gens, cap=4)
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
            holonomy_order(g.matrix)
        assert exc.value.code == "infinite-order"
        with pytest.raises(InputError) as exc:
            close_group(variety, [as_generator(g)], cap=1)
        assert exc.value.code == "infinite-order"

    def test_huge_holonomy_rejected_in_one_product(self, monkeypatch):
        # [[N, 1], [-1, 0]] + 1 on E^3 has det 1 and trace 2N + 2 > 6, so it
        # has infinite order; [[1, 1], [1, 0]] + 1 has trace 4, and its
        # square, trace 8.  Each walk stops at that power, short of the 6
        # powers whose traces give the characteristic polynomial, as their
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
            products.clear()
            with pytest.raises(InputError) as exc:
                close_group(variety, [generator(rows)])
            assert exc.value.code == "infinite-order"
            assert len(products) == made

    @pytest.mark.parametrize("images,order", [((1, 2, 3, 4, 0), 5),
                                              ((1, 0, 3, 4, 2), 6)])
    def test_finite_order_above_the_cap_bound(self, images, order):
        # on E^14, where the largest finite order 13860 exceeds the default
        # group cap, the order of a permuting holonomy is found all the same:
        # the order test reads no cap
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(*[e] * 14)
        images += tuple(range(5, 14))
        rows = [[(int(images[k] == j), 0) for k in range(14)] for j in range(14)]
        assert holonomy_order(automorphism(variety, rows).matrix) == order

    def test_max_finite_order(self):
        # the oracle's walk bound, the largest lcm of distinct d_i with sum
        # phi(d_i) <= rank, by search over the sets of such d_i
        def largest_lcm(budget, ds, current=1):
            return max([current] + [largest_lcm(budget - totient(d), ds[i + 1:], lcm(current, d))
                                    for i, d in enumerate(ds) if totient(d) <= budget])

        def totient(d):
            return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

        for rank in range(1, 11):
            ds = [d for d in range(1, 2 * rank * rank + 1) if totient(d) <= rank]
            assert max_finite_order(rank) == largest_lcm(rank, ds), rank
        assert [max_finite_order(r) for r in (2, 4, 6, 10, 26, 28)] == \
            [6, 12, 30, 120, 9240, 13860]

    def test_translation_only_generator_of_finite_order(self, ei_squared):
        g = generator([[(1, 0), (0, 0)], [(0, 0), (1, 0)]], ["1/3", 0, 0, 0])
        group = close_group(ei_squared, [g])
        assert group.order == 3

    def test_non_invertible_holonomy_rejected(self, ei_squared):
        doubling = generator([[(2, 0), (0, 0)], [(0, 0), (1, 0)]])
        with pytest.raises(InputError) as exc:
            close_group(ei_squared, [doubling])
        assert exc.value.code == "not-automorphism"


# holonomies on E_i^n that are not automorphisms or have infinite order, as
# their top-left 2 x 2 blocks; the rest of the diagonal is 1
REJECTED = {
    "zero-block": [[(0, 0), (0, 0)], [(0, 0), (1, 0)]],     # singular
    "nilpotent": [[(0, 0), (1, 0)], [(0, 0), (0, 0)]],      # singular
    "one-plus-i": [[(1, 1), (0, 0)], [(0, 0), (1, 0)]],     # block det 1 + i
    "doubled-row": [[(2, 0), (2, 0)], [(0, 0), (1, 0)]],    # block det 2
    "unipotent": [[(1, 0), (1, 0)], [(0, 0), (1, 0)]],      # det 1, infinite order
}
REJECTION = {"not-automorphism": "holonomy is not an automorphism",
             "infinite-order": "holonomy has infinite order"}
# n -> the rejection code and the number of mat_mul calls of each holonomy
# on E_i^n.  A walk that does not reach I takes 2n powers in 2n - 1
# products, and reads the determinant off the characteristic polynomial, or
# fewer when a power's trace exceeds 2n first: none for doubled-row, and 6
# for one-plus-i on E_i^5, whose seventh power has trace 24.  The unipotent
# one has characteristic polynomial (x - 1)^(2n), so its order would be 1,
# which the walk has already ruled out
CHECKS = {
    2: {"zero-block": ("not-automorphism", 3), "nilpotent": ("not-automorphism", 3),
        "one-plus-i": ("not-automorphism", 3), "doubled-row": ("not-automorphism", 0),
        "unipotent": ("infinite-order", 3)},
    3: {"zero-block": ("not-automorphism", 5), "nilpotent": ("not-automorphism", 5),
        "one-plus-i": ("not-automorphism", 5), "doubled-row": ("not-automorphism", 0),
        "unipotent": ("infinite-order", 5)},
    5: {"zero-block": ("not-automorphism", 9), "nilpotent": ("not-automorphism", 9),
        "one-plus-i": ("not-automorphism", 6), "doubled-row": ("not-automorphism", 0),
        "unipotent": ("infinite-order", 9)},
}


def rejected_document(n, names):
    """E_i^n with one generator per name of ``REJECTED``."""
    def holonomy(name):
        corner = REJECTED[name]
        return [[list(corner[j][k]) if j < 2 and k < 2 else [int(j == k), 0]
                 for k in range(n)] for j in range(n)]
    return {"schema_version": 1, "factors": [{"cm": "zeta4"}] * n,
            "generators": [{"holonomy": holonomy(name), "translation": ["0"] * (2 * n)}
                           for name in names]}


class TestGeneratorChecks:
    """Each rejected holonomy, alone and before or after another, exits 1
    with the code of the first generator that fails, not-automorphism
    before an order error, in a bounded number of products: the
    determinant is read only when the order walk does not settle it."""

    @pytest.mark.parametrize("n", sorted(CHECKS))
    def test_rejections(self, n, monkeypatch, tmp_path, capsys):
        products = []

        def counting(a, b):
            products.append(a)
            return mat_mul(a, b)

        monkeypatch.setattr(action_module, "mat_mul", counting)
        path = tmp_path / "rejected.json"
        cases = [[a] for a in REJECTED] + [[a, b] for a in REJECTED for b in REJECTED if a != b]
        for names in cases:
            code, made = CHECKS[n][names[0]]
            path.write_text(json.dumps(rejected_document(n, names)))
            products.clear()
            assert main(["validate", str(path)]) == 1, names
            assert capsys.readouterr() == ("", f"error[{code}]: {REJECTION[code]}\n"), names
            assert len(products) == made, names

    def validate(self, factors, holonomy, monkeypatch, tmp_path, capsys):
        """``validate`` of one generator on these factors: the exit code,
        the standard output and error, and the number of mat_mul calls."""
        products = []

        def counting(a, b):
            products.append(a)
            return mat_mul(a, b)

        monkeypatch.setattr(action_module, "mat_mul", counting)
        path = tmp_path / "one-generator.json"
        path.write_text(json.dumps({"factors": factors, "generators": [{"holonomy": holonomy}]}))
        return main(["validate", str(path)]), capsys.readouterr(), len(products)

    def congruent_to_the_identity(self, n, monkeypatch, tmp_path, capsys):
        # I + (2^61 - 1) e_(0, 2): its 2n powers have trace 2n, so its
        # characteristic polynomial is (x - 1)^(2n) and its order would be 1
        holonomy = [[[int(j == k) + (2 ** 61 - 1) * ((j, k) == (0, 1)), 0]
                     for k in range(n)] for j in range(n)]
        generic = {"cm": "generic", "label": "E"}
        assert self.validate([generic] * n, holonomy, monkeypatch, tmp_path, capsys) == \
            (1, ("", "error[infinite-order]: holonomy has infinite order\n"), 2 * n - 1)

    def test_infinite_order_congruent_to_the_identity(self, monkeypatch, tmp_path, capsys):
        self.congruent_to_the_identity(5, monkeypatch, tmp_path, capsys)

    def test_infinite_order_congruent_to_the_identity_on_e14(self, monkeypatch, tmp_path,
                                                             capsys):
        # where the largest finite order, 13860, exceeds the default group
        # cap, and no cap is read
        self.congruent_to_the_identity(14, monkeypatch, tmp_path, capsys)

    def test_order_above_2n_from_the_characteristic_polynomial(self, monkeypatch, tmp_path,
                                                               capsys):
        # diag(i, zeta6) on E_i x E_zeta6 has order 12 > 2n = 4: the walk
        # takes 4 powers in 3 products, chi = Phi_4 Phi_6, and rho^12 = I by
        # 4 products of repeated squaring
        factors = [{"cm": "zeta4"}, {"cm": "zeta6"}]
        holonomy = [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]
        code, (out, err), made = self.validate(factors, holonomy, monkeypatch, tmp_path, capsys)
        assert (code, err, made) == (0, "", 3 + 4)
        assert json.loads(out)["group_order"] == 12

    def test_order_70_permutation_on_e14(self, monkeypatch, tmp_path, capsys):
        # the cycles (0 1), (2 3 4 5 6) and (7 ... 13)
        images = [1, 0, 3, 4, 5, 6, 2, 8, 9, 10, 11, 12, 13, 7]
        holonomy = [[[int(images[k] == j), 0] for k in range(14)] for j in range(14)]
        code, (out, err), _ = self.validate([{"cm": "generic", "label": "E"}] * 14, holonomy,
                                            monkeypatch, tmp_path, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["group_order"] == 70


class TestFixedLoci:
    def test_mult_by_i_has_four_fixed_points(self, p1_group):
        g = next(x for x in p1_group.elements
                 if holonomy_order(x.matrix) == 4)
        loc = fixed_locus(g, p1_group.solver)
        assert loc.nonempty
        assert loc.dim == 0
        assert len(loc.representatives) == 2

    def test_sign_rot4_square_is_curve_times_torsion(self, sign_rot4_group):
        sq = next(x for x in sign_rot4_group.elements
                  if holonomy_order(x.matrix) == 2)
        loc = fixed_locus(sq, sign_rot4_group.solver)
        assert loc.dim == 1
        assert len(loc.representatives) == 4
        lat = loc.kernel
        assert [list(r) for r in lat.basis_rows()] == [[1, 0, 0, 0], [0, 1, 0, 0]]

    def test_kummer_sixteen_points(self, kummer_group):
        g = nontrivial_elements(kummer_group)[0]
        loc = fixed_locus(g, kummer_group.solver)
        assert loc.dim == 0
        assert len(loc.representatives) == 16

    def test_bielliptic_fixed_free(self, bielliptic_group):
        g = nontrivial_elements(bielliptic_group)[0]
        assert not fixed_locus(g, bielliptic_group.solver).nonempty
        assert fixed_locus(g, bielliptic_group.solver).dim is None

    def test_conjugation_moves_fixed_locus(self, rot4_square_group):
        # Fix(h g h^-1) = h(Fix(g)) as sets of components
        from fqav.linalg import Lattice, mat_vec

        els = list(rot4_square_group.elements)
        for g in els:
            for h in els:
                phi = holonomy(h, rot4_square_group.variety)
                inv = phi
                while inv.compose(phi).blocks != identity_blocks(2):
                    inv = inv.compose(phi)
                h_inv = AffineAutomorphism(
                    inv.matrix, (-h.translation).apply_matrix(rational_rep(inv)))
                assert h.compose(h_inv).is_identity()
                conj = h.compose(g).compose(h_inv)
                left = fixed_locus(conj, rot4_square_group.solver)
                right = fixed_locus(g, rot4_square_group.solver)
                assert left.nonempty == right.nonempty
                if not left.nonempty:
                    continue
                rho_h = rational_rep(phi)
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
                  if holonomy_order(x.matrix) == 2)
        loc = fixed_locus(sq, sign_rot4_group.solver)
        comp = SubtorusTranslate(loc.kernel, loc.representatives[0])
        members, e = pointwise_stabilizer(comp, sign_rot4_group)
        assert e == 2
        assert {m.matrix for m in members} == {sign_rot4_group.elements[0].matrix, sq.matrix}

    def test_free_action_trivial_stabilizers(self, bielliptic_group):
        from fqav.linalg import Lattice
        from fqav.variety import SubtorusTranslate

        t = SubtorusTranslate(Lattice.zero(4), TorsionPoint.zero(4))
        members, e = pointwise_stabilizer(t, bielliptic_group)
        assert e == 1


class TestAges:
    def test_mult_by_i_diagonal(self, rot4_square_group):
        ages = sorted(element_age(g, rot4_square_group.variety)
                      for g in rot4_square_group.elements)
        # id, [i]x[i], [-1]x[-1], [-i]x[-i]
        assert ages == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]

    def test_minus_one_times_i(self, e_times_ei):
        g = automorphism(e_times_ei, [[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
        assert element_age(g, e_times_ei) == Fraction(3, 4)

    def test_kummer_age_one(self, kummer_group):
        g = nontrivial_elements(kummer_group)[0]
        assert element_age(g, kummer_group.variety) == Fraction(1)

    def test_age_pairing(self, rot4_square_group, sign_rot4_group, p1_group):
        # age(g) + age(g^-1) = codim of the holonomy-fixed analytic subspace
        for group in (rot4_square_group, sign_rot4_group, p1_group):
            by_hol = {holonomy(g, group.variety): g for g in group.elements}
            for g in group.elements:
                phi = holonomy(g, group.variety)
                inv = phi
                while inv.compose(phi).blocks != identity_blocks(group.variety.n):
                    inv = inv.compose(phi)
                total = element_age(g, group.variety) + element_age(by_hol[inv], group.variety)
                assert total.denominator == 1

    def test_ages_do_not_depend_on_the_field(self):
        # ages are exact, so counting over the 2d-th roots, in
        # Q(zeta_lcm(12, 2d)) modulo its own prime, gives every class the age
        # that the d-th roots give it in Q(zeta_lcm(12, d))
        texts = [(FIXTURE_DIR / f"{name}.json").read_text() for name in FIXTURES]
        texts += [json.dumps(sl_diag_document(*args)) for args in SL_DIAG.values()]
        for text in texts:
            group = close_group(*parse_input(text)[:2])
            for root, k, d in group.power_walk.values():
                g = group.elements[root]
                assert age(g, 2 * d, group.variety)(k) == age(g, d, group.variety)(k), text

    def test_mult_by_i_single_factor(self, p1_group):
        g = next(x for x in p1_group.elements
                 if holonomy_order(x.matrix) == 4)
        assert element_age(g, p1_group.variety) == Fraction(1, 4)

    def test_wrong_order_is_a_certificate_error(self):
        variety = AbelianVarietyModel.of(EllipticFactor("zeta4"),
                                         EllipticFactor("zeta4"))
        # [[0, i], [1, 0]] squares to i . Id, so its holonomy order is 8 and
        # its eigenvalues are zeta_8 and zeta_8^5
        order8 = automorphism(variety, [[(0, 0), (0, 1)], [(1, 0), (0, 0)]])
        assert holonomy_order(order8.matrix) == 8
        assert element_age(order8, variety) == Fraction(3, 4)
        # the 4th roots of unity hold no eigenvalue: the counts stay below n
        with pytest.raises(CertificateError) as exc:
            age(order8, 4, variety)
        assert str(exc.value) == f"order 4 does not kill the spectrum of {order8}"


class TestDescend:
    def test_no_translations_gives_two(self, rot4_square_group, kummer_group):
        assert descend_multiplication(rot4_square_group) == 2
        assert descend_multiplication(kummer_group) == 2

    def test_bielliptic(self, bielliptic_group):
        assert descend_multiplication(bielliptic_group) == 3

    def test_order_three_translation(self, ei_squared):
        g = generator([[(1, 0), (0, 0)], [(0, 0), (1, 0)]], ["1/3", 0, 0, 0])
        assert descend_multiplication(close_group(ei_squared, [g])) == 4


def exponent(group):
    """The lcm of the holonomy orders ``power_walk`` records."""
    return lcm(*(d for _, _, d in group.power_walk.values()))


class TestHolonomyInvariants:
    def test_exponents(self, rot4_square_group, sign_rot4_group, kummer_group):
        assert exponent(rot4_square_group) == 4
        assert exponent(sign_rot4_group) == 4
        assert exponent(kummer_group) == 2
        # S3 permuting E^3: no element has order 6, the exponent
        e = EllipticFactor("generic", "E")
        variety = AbelianVarietyModel.of(e, e, e)
        one, zero = (1, 0), (0, 0)
        s3 = close_group(variety, [
            generator([[zero, one, zero], [zero, zero, one], [one, zero, zero]]),
            generator([[zero, one, zero], [one, zero, zero], [zero, zero, one]])])
        assert s3.order == 6 and exponent(s3) == 6
        holonomies = dict.fromkeys(g.matrix for g in s3.elements)
        assert sorted(holonomy_order(rho) for rho in holonomies) == [1, 2, 2, 2, 3, 3]

    def test_fixed_space_dims(self, rot4_square_group, sign_rot4_group, bielliptic_group):
        def fixed_space_dim(group):
            holonomies = dict.fromkeys(holonomy(g, group.variety) for g in group.elements)
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
    """A variety and generators on it, not closed.  Half the draws take one to
    three like acceptance criterion 8, with translations over ``denoms``,
    and may take none.  The other half act on a power of one curve by a
    diagonal of units and a coordinate permutation, each with a 2-torsion
    translation, so that many of the groups they generate are
    non-abelian."""
    if rng.randrange(2):
        variety = random_variety(rng)
        return variety, [g for g in (random_generator(rng, variety, max_order=12,
                                                      denoms=denoms)
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
    return variety, [generator(rows, [rng.choice((0, "1/2")) for _ in range(2 * n)])
                     for rows in monomial]


@st.composite
def small_groups(draw):
    """A closed group of order at most 48, from ``random_generators``."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        variety, gens = random_generators(rng)
        if not gens:
            continue
        try:
            return close_group(variety, gens, cap=48)
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
    e3 = AbelianVarietyModel.of(e, e, e)
    s3 = close_group(e3, [generator(cycle), generator(swap)])
    ei3 = AbelianVarietyModel.of(*[EllipticFactor("zeta4")] * 3)
    reflection_swap = close_group(ei3, [
        generator([[i, zero, zero], [zero, one, zero], [zero, zero, one]]),
        generator(swap, [0, 0, 0, 0, "1/2", 0])])
    sl = [close_group(*parse_input(json.dumps(sl_diag_document(cm, True)))[:2])
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
            assert group.class_rep == union_find_class_rep(group)
        # classes of S3, the order-32 group, and of orders 48 and 108
        assert [len(set(g.class_rep)) for g in groups[5:]] == [3, 14, 8, 20]

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_tables(group.elements, group.generators, group.tables)
        assert group.class_rep == brute_force_class_rep(group)
        assert group.class_rep == union_find_class_rep(group)

    def test_first_elements_in_order(self):
        # each class is named by its first element in element order
        for group in nonabelian_groups():
            rep = group.class_rep
            assert rep[0] == 0
            assert all(rep[i] <= i and rep[rep[i]] == rep[i] for i in range(group.order))


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
        group.elements[0], list(group.generators), group.order) == (
        list(group.elements), group.tables)
    assert_closure_matches_product_closure(lattice_elements(group.elements[:1])[0],
                                           lattice_elements(group.generators), group.order)


def assert_lattice_data(group):
    """Each element and generator equals the plain lattice element of its
    data, hashes like it and sorts by its holonomy's blocks, and its matrix
    is the rational representation of the holonomy read off it, an
    endomorphism of the group's variety."""
    for g in group.elements + group.generators:
        plain = LatticeElement(g.matrix, g.translation)
        assert g == plain and plain == g and hash(g) == hash(plain)
        phi = holonomy(g, group.variety)
        assert tuple(map(tuple, rational_rep(phi))) == g.matrix
        assert g.sort_key() == (phi.blocks, g.translation.sort_key())


# blocks on E_i^2: i x 1, and 2 x 1, an endomorphism but no automorphism
I_FIRST = [[(0, 1), (0, 0)], [(0, 0), (1, 0)]]
DOUBLING = [[(2, 0), (0, 0)], [(0, 0), (1, 0)]]


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
        # the same rows on two varieties are one lattice element, and either
        # variety closes them to the same group; the variety is the group's,
        # which refuses blocks that are no endomorphism of it
        e = EllipticFactor("generic", "E")
        generic = AbelianVarietyModel.of(e, e)
        rows = [[(-1, 0), (0, 0)], [(0, 0), (1, 0)]]
        assert automorphism(ei_squared, rows) == automorphism(generic, rows)
        sign = generator(rows)
        assert close_group(generic, [sign]).elements == close_group(ei_squared, [sign]).elements
        i_first = generator(I_FIRST)
        refused = [
            # blocks a curve without CM does not admit
            (generic, [sign, i_first]),
            # the wrong rank
            (ei_squared, [generator([[(0, 1)]])]),
            (AbelianVarietyModel.of(*[EllipticFactor("zeta4")] * 3), [i_first]),
        ]
        for variety, gens in refused:
            with pytest.raises(InputError) as exc:
                close_group(variety, gens)
            assert exc.value.code == "not-endomorphism", (variety, gens)

    @pytest.mark.parametrize("gens, code", [
        ([], "no-generators"),
        ([generator(I_FIRST, ["1/2", 0])], "bad-translation"),
        ([generator([[(0, 1)]])], "not-endomorphism"),
        # every generator's blocks and translation are checked before any
        # holonomy's order
        ([generator(DOUBLING), generator([[(0, 1)]])], "not-endomorphism"),
        ([generator(DOUBLING), generator(I_FIRST, [0])], "bad-translation"),
    ], ids=["none", "short-translation", "wrong-rank", "wrong-rank-second",
            "short-translation-second"])
    def test_generators_validated(self, gens, code, ei_squared):
        with pytest.raises(InputError) as exc:
            close_group(ei_squared, gens)
        assert exc.value.code == code


def assert_slotted_records(elements):
    """Each element is a slotted record of its data alone: no instance
    ``__dict__``, and the dataclass fields (matrix, translation)."""
    for g in elements:
        assert not hasattr(g, "__dict__"), g
        assert tuple(f.name for f in dataclasses.fields(g)) == ("matrix", "translation")


class TestSlottedRecord:
    def test_classes(self):
        # AffineAutomorphism adds no field, cache or build hook of its own
        for cls in (LatticeElement, AffineAutomorphism):
            assert tuple(f.name for f in dataclasses.fields(cls)) == ("matrix", "translation")
        assert AffineAutomorphism.__slots__ == ()
        assert not {"holonomy", "with_data", "variety"} & set(vars(AffineAutomorphism))

    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        for group in [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group] + nonabelian_groups():
            assert_slotted_records(group.elements + group.generators)

    def test_decomposition_stage(self, sign_rot4_group):
        fano = decompose(sign_rot4_group).fano_part
        assert fano.order == 2
        assert all(type(x) is LatticeElement for x in fano.generators)
        assert_slotted_records(fano.generators)

    def test_parsed_generators(self):
        for name in FIXTURES:
            group = close_group(*parse_input((FIXTURE_DIR / f"{name}.json").read_text())[:2])
            assert_slotted_records(group.generators)


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
        closed = close_group(group.variety, list(map(as_generator, group.generators)))
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
            variety, gens = random_generators(rng, denoms=(1, 2, 3, 4))
        gens = [element(variety, g) for g in gens]
        identity = element(variety, (identity_blocks(variety.n), None))
        assert_closure_matches_product_closure(identity, gens, cap)
        assert_closure_matches_product_closure(lattice_elements([identity])[0],
                                               lattice_elements(gens), cap)

    def test_order_108_makes_no_product(self, monkeypatch):
        variety, gens, _ = parse_input(json.dumps(sl_diag_document("zeta6", True)))
        gens = sorted({element(variety, g) for g in gens}, key=AffineAutomorphism.sort_key)
        identity = element(variety, (identity_blocks(variety.n), None))
        overflow = AssertionError("closure too large")
        want = product_closure(identity, gens, 108, overflow)

        def refuse(*args):
            raise AssertionError("a matrix product in the closure")

        monkeypatch.setattr(action_module, "affine_product", refuse)
        monkeypatch.setattr(action_module, "mat_mul", refuse)
        monkeypatch.setattr(linalg, "mat_mul", refuse)
        assert bfs_closure(identity, gens, 108, overflow) == want
        assert len(want[0]) == 108


def count_calls(monkeypatch, owner, name, calls):
    """Count in ``calls[name]`` the calls of the function or method
    ``owner.name``; a classmethod stays one."""
    original = getattr(owner, name)
    bound = getattr(original, "__self__", None) is owner

    def counting(*args):
        calls[name] += 1
        return original(*args[1:]) if bound else original(*args)

    monkeypatch.setattr(owner, name, classmethod(counting) if bound else counting)


def mutant(function, old, new):
    """``function`` compiled from its source with the one occurrence of
    ``old`` replaced by ``new``, over a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


class TestClosureKeys:
    """The closure sorts by row numbers and sums translations over one
    denominator: it builds no per-element key and reduces no point per
    product, and each of the two rules is caught when broken.  The
    generators' keys are their validated blocks, so none is read back off a
    matrix."""

    def closure_calls(self, monkeypatch, document):
        calls = Counter()
        count_calls(monkeypatch, action_module, "block_pairs", calls)
        count_calls(monkeypatch, EndoBlockMatrix, "from_rows", calls)
        count_calls(monkeypatch, TorsionPoint, "sort_key", calls)
        count_calls(monkeypatch, TorsionPoint, "over", calls)
        variety, gens, options = parse_input(json.dumps(document))
        assert "from_rows" not in calls
        calls.clear()
        group = close_group(variety, gens, cap=options["group_cap"])
        assert calls.pop("from_rows") == len(gens)
        return group, calls

    def test_order_108_sorts_the_generators_only(self, monkeypatch):
        group, calls = self.closure_calls(monkeypatch, sl_diag_document("zeta6", True))
        assert group.order == 108
        # TorsionPoint.sort_key runs once per generator, in their sort;
        # every translation is 0, one point of one sort_key
        assert calls == {"sort_key": 3 + 1, "over": 1}

    def test_order_6912_keys_each_translation_once(self, monkeypatch):
        group, calls = self.closure_calls(monkeypatch, translated_sl_diag_document())
        translations = len({g.translation for g in group.elements})
        assert (group.order, translations) == (6912, 64)
        assert calls["block_pairs"] == 0 and len(group.generators) == 3
        assert calls["over"] <= translations
        assert calls["sort_key"] <= translations + len(group.generators)

    def test_rows_in_plain_order_are_caught(self, monkeypatch):
        # row 2j of a rational representation is (c, -d) per block: ranked
        # without the sign flip, the rows no longer sort as block_pairs
        groups = nonabelian_groups()
        monkeypatch.setattr(AffineAutomorphism, "row_key", staticmethod(lambda row: row))
        for caught in groups[1:]:
            with pytest.raises(AssertionError):
                assert_closure_matches_oracle(caught)

    def test_translations_not_reduced_are_caught(self, monkeypatch, bielliptic_group):
        # without the reduction mod D the keys of equal points differ, so
        # the search never closes and overflows the group's order
        reflection_swap = nonabelian_groups()[1]
        unreduced = mutant(bfs_closure, "map(reduce, map(add,", "map(int, map(add,")
        monkeypatch.setitem(globals(), "bfs_closure", unreduced)
        for caught in (bielliptic_group, reflection_swap):
            with pytest.raises(AssertionError):
                assert_closure_matches_oracle(caught)


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
    """The lcm of the holonomy orders of the elements, by matrix powers of
    each holonomy's rational representation."""
    e = 1
    for g in group.elements:
        power, k = g.matrix, 1
        while power != tuple(map(tuple, linalg.identity_matrix(len(power)))):
            power, k = tuple(map(tuple, mat_mul(power, g.matrix))), k + 1
        e = lcm(e, k)
    return e


class TestExponentOnTables:
    """``power_walk`` walks powers in the closure tables, and its orders
    have the exponent's lcm; the oracle multiplies matrices."""

    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        exponents = [exponent(group) for group in groups]
        assert exponents == [reference_group_exponent(group) for group in groups]
        assert exponents == [walk_group_exponent(group) for group in groups]
        assert exponents == [4, 4, 2, 4, 2, 6, 8, 12, 6]

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert exponent(group) == reference_group_exponent(group)
        assert exponent(group) == walk_group_exponent(group)

    def test_order_108_makes_no_product(self, monkeypatch):
        group = nonabelian_groups()[-1]
        assert group.order == 108

        def refuse(*args):
            raise AssertionError("a matrix product in power_walk")

        monkeypatch.setattr(action_module, "mat_mul", refuse)
        monkeypatch.setattr(linalg, "mat_mul", refuse)
        assert exponent(group) == 6


def assert_power_walk(group):
    """The walk records every nontrivial class, as a power of a root that
    starts its own class and walk, with the root's holonomy order; and every
    class's age read off its root's spectrum is the one over every m-th root
    of unity."""
    elements, rep, walk = group.elements, group.class_rep, group.power_walk
    firsts = {i for i in range(1, group.order) if rep[i] == i}
    assert firsts <= set(walk)
    for c, (root, k, d) in walk.items():
        assert walk[root] == (root, 1, d)
        assert d == holonomy_order(elements[root].matrix)
        assert 1 <= k <= d
        power = 0
        for _ in range(k):
            power = group.tables.left(power)[root]
        assert rep[power] == c
    assert class_ages(group) == class_ages_over_conductor(group, group_field(group))


class TestPowerWalkAges:
    """``reid_tai`` reads each class's age off the spectrum of its walk's
    root; the oracle takes one age per class over every m-th root."""

    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        for group in groups:
            assert_power_walk(group)
        # the 19 nontrivial classes of the order-108 group: 7 walk roots
        walk = groups[-1].power_walk
        assert len({root for root, _, _ in walk.values()}) == 7

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_power_walk(group)

    def test_translated_group(self):
        # order 6912: classes that share a holonomy but not a translation
        group = close_group(*parse_input(json.dumps(translated_sl_diag_document()))[:2],
                            cap=200000)
        assert group.order == 6912
        assert group.class_rep == union_find_class_rep(group)
        assert_power_walk(group)


# ---------------------------------------------------------------------------
# ages from the spectrum mod p against the cyclotomic reference

def reference_age(phi, field):
    """The age by eigen_multiplicity over Q(zeta_m), which must hold the
    spectrum: one kernel rank per primitive root of each order dividing the
    holonomy order."""
    order = holonomy_order(phi.matrix)
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
    if monomial_only or not transvection_pairs(variety):
        return phi
    for _ in range(draw(st.integers(0, 2))):
        transvection, inverse = draw(transvections(variety))
        phi = transvection.compose(phi).compose(inverse)
    return phi


def transvection_pairs(variety):
    """The (j, k), j != k, with a homomorphism from factor k to factor j."""
    factors = variety.factors
    return [(j, k) for j in range(variety.n) for k in range(variety.n)
            if j != k and factors[j].hom_key(factors[k]) is not None]


@st.composite
def transvections(draw, variety):
    """A transvection I + x e_jk of ``variety`` and its inverse I - x e_jk,
    (j, k) one of ``transvection_pairs`` and x with entries in [-2, 2]."""
    n = variety.n
    j, k = draw(st.sampled_from(transvection_pairs(variety)))
    c = draw(st.integers(-2, 2))
    d = draw(st.integers(-2, 2)) if variety.factors[j].has_cm else 0

    def transvection(sign):
        return EndoBlockMatrix.from_rows(variety, [
            [(sign * c, sign * d) if (a, b) == (j, k) else ((1, 0) if a == b else (0, 0))
             for b in range(n)] for a in range(n)])

    return transvection(1), transvection(-1)


class TestHolonomyOrder:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_agrees_with_the_bounded_walk(self, data):
        # a finite-order holonomy on n <= 5 factors, or its product with a
        # transvection, of finite or infinite order, against the walk of
        # max_finite_order(2n) powers
        phi = data.draw(finite_order_holonomies(sizes=st.integers(1, 5)))
        if transvection_pairs(phi.variety) and data.draw(st.booleans()):
            phi = phi.compose(data.draw(transvections(phi.variety))[0])
        order = bounded_walk_order(phi.matrix)
        if order is not None:
            assert holonomy_order(phi.matrix) == order
            return
        with pytest.raises(InputError) as exc:
            holonomy_order(phi.matrix)
        assert exc.value.code == "infinite-order"


class TestSpectrumModP:
    def assert_matches_reference(self, phi, wrong_order=False):
        # the age of every power phi^k, read off the one spectrum of phi,
        # against the reference over Q(zeta_lcm(12, d)); d - 1, no multiple
        # of the order d > 1, is a certificate failure naming the root
        g = element(phi.variety, (phi.blocks, None))
        d = holonomy_order(phi.matrix)
        if wrong_order and d > 1:
            with pytest.raises(CertificateError) as exc:
                age(g, d - 1, phi.variety)
            assert str(exc.value) == f"order {d - 1} does not kill the spectrum of {g}"
        field = CycloField(lcm(12, d))
        ages = age(g, d, phi.variety)
        power = identity(phi.variety)
        for k in range(d):
            assert ages(k) == reference_age(power, field), k
            power = power.compose(phi)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(finite_order_holonomies(), st.booleans())
    def test_random_holonomies(self, phi, wrong_order):
        self.assert_matches_reference(phi, wrong_order)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(finite_order_holonomies(sizes=st.just(6), monomial_only=True))
    def test_six_factors(self, phi):
        # p > 2n + 1 = 13 rules out 13 for m = 12
        assert split_prime(12, 13)[0] == 37
        self.assert_matches_reference(phi)

    def test_order_eight(self):
        z4 = EllipticFactor("zeta4")
        order8 = EndoBlockMatrix.from_rows(AbelianVarietyModel.of(z4, z4),
                                           [[(0, 0), (0, 1)], [(1, 0), (0, 0)]])
        assert holonomy_order(order8.matrix) == 8
        self.assert_matches_reference(order8, wrong_order=True)

    def test_split_prime(self):
        for m in (12, 24, 36, 60, 120):
            for above in (3, 5, 13, 37):
                p, z = split_prime(m, above)
                primes = [q for q in range(above + 1, p + 1)
                          if q % m == 1 and all(q % f for f in range(2, q))]
                assert primes == [p]
                assert [e for e in range(1, m + 1) if pow(z, e, p) == 1] == [m]
