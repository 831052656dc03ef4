import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqav.action import close_group
from fqav.cyclotomic import CycloField
from fqav.decompose import decompose
from fqav.errors import InputError
from fqav.linalg import Lattice, TorsionPoint, identity_matrix, mat_mul
from fqav.variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    SubtorusTranslate,
    analytic_rep,
    connected_intersection,
    is_abelian_subvariety,
    kappa_divisor,
    poincare_complement,
    q_linear_equivalent,
    rational_rep,
)

from conftest import automorphism

Z4 = EllipticFactor("zeta4")
J = [[0, -1], [1, 0]]
# zeta4, zeta6, and generic curves with equal and with distinct labels
FACTORS = (Z4, EllipticFactor("zeta6"), EllipticFactor("generic", "E"),
           EllipticFactor("generic", "F"))


def block_product(variety, blocks1, blocks2):
    """Oracle: the block matrix product, with tau-multiplication by the CM
    type of the middle factor (tau^2 = -1 on zeta4, tau^2 = tau - 1 on
    zeta6; generic blocks have d = 0)."""
    fs = variety.factors
    n = variety.n
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            c_acc, d_acc = 0, 0
            for t in range(n):
                c1, d1 = blocks1[j][t]
                c2, d2 = blocks2[t][k]
                c_acc += c1 * c2 - d1 * d2
                d_acc += c1 * d2 + d1 * c2
                if fs[t].cm == "zeta6":
                    d_acc += d1 * d2
            row.append((c_acc, d_acc))
        out.append(tuple(row))
    return tuple(out)


@st.composite
def endomorphism_pairs(draw):
    """A variety of one to three factors and two random endomorphisms of
    it: a block is zero between factors without homomorphisms, and has
    d = 0 on generic factors."""
    fs = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
    variety = AbelianVarietyModel(tuple(fs))
    entry = st.integers(-3, 3)

    def block(j, k):
        if fs[j].hom_key(fs[k]) is None:
            return (0, 0)
        return (draw(entry), draw(entry) if fs[j].has_cm else 0)

    n = len(fs)
    return variety, [[[block(j, k) for k in range(n)] for j in range(n)] for _ in range(2)]


def blockdiag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[o + i][o + j] = x
        o += len(b)
    return out


class TestRationalRep:
    def test_mult_by_i_on_both_factors(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        phi = EndoBlockMatrix.from_rows(a, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
        assert rational_rep(phi) == blockdiag(J, J)

    def test_identity(self):
        a = AbelianVarietyModel.of(Z4, EllipticFactor("generic", "E"))
        assert rational_rep(EndoBlockMatrix.identity(a)) == identity_matrix(4)
        # built once per variety: an equal variety gets the same object
        same = AbelianVarietyModel.of(Z4, EllipticFactor("generic", "E"))
        assert EndoBlockMatrix.identity(same) is EndoBlockMatrix.identity(a)

    def test_swap_functorial(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        swap = EndoBlockMatrix.from_rows(a, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
        rho = rational_rep(swap)
        assert rho == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        assert mat_mul(rho, rho) == identity_matrix(4)
        assert swap.compose(swap) == EndoBlockMatrix.identity(a)

    @settings(max_examples=200, deadline=None)
    @given(endomorphism_pairs())
    def test_homomorphism_on_random_pairs(self, case):
        variety, (rows1, rows2) = case
        p1 = EndoBlockMatrix.from_rows(variety, rows1)
        p2 = EndoBlockMatrix.from_rows(variety, rows2)
        product = p1.compose(p2)
        assert product.blocks == block_product(variety, p1.blocks, p2.blocks)
        # the product is an endomorphism, and its stored matrix is the
        # representation of its blocks
        assert EndoBlockMatrix.from_rows(variety, product.blocks) == product
        rho = rational_rep(product)
        assert [list(r) for r in product.matrix] == rho
        assert rho == mat_mul(rational_rep(p1), rational_rep(p2))

    def test_stored_matrix(self):
        a = AbelianVarietyModel.of(Z4, EllipticFactor("zeta6"))
        phi = EndoBlockMatrix.from_rows(a, [[(2, -1), (0, 0)], [(0, 0), (1, 3)]])
        assert [list(r) for r in phi.matrix] == rational_rep(phi)
        ident = EndoBlockMatrix.identity(a)
        assert [list(r) for r in ident.matrix] == rational_rep(ident)
        assert ident == EndoBlockMatrix.from_rows(a, [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])

    def test_products_are_not_validated(self, monkeypatch):
        """A product of endomorphisms is one: once the generators are
        built, closure and decomposition never ask which factors admit
        homomorphisms."""
        variety = AbelianVarietyModel.of(Z4, Z4, Z4)
        one, zero, i = (1, 0), (0, 0), (0, 1)
        gens = [automorphism(variety, [[i, zero, zero], [zero, one, zero],
                                       [zero, zero, one]]),
                automorphism(variety, [[zero, one, zero], [one, zero, zero],
                                       [zero, zero, one]], [0, 0, 0, 0, "1/2", 0])]

        def run():
            group = close_group(gens)
            return group.elements, decompose(group)

        expected = run()
        assert len(expected[0]) == 32 and len(expected[1].stages) == 2

        def no_hom_key(self, other):
            raise AssertionError("a product was validated again")

        monkeypatch.setattr(EllipticFactor, "hom_key", no_hom_key)
        assert run() == expected

    def test_zeta6_functoriality(self):
        z6 = EllipticFactor("zeta6")
        a = AbelianVarietyModel.of(z6)
        tau = EndoBlockMatrix.from_rows(a, [[(0, 1)]])
        # tau has order 6 in the lattice representation
        power = tau
        for _ in range(5):
            power = power.compose(tau)
        assert power == EndoBlockMatrix.identity(a)

    def test_block_constraint_violations(self):
        mixed = AbelianVarietyModel.of(Z4, EllipticFactor("generic", "E"))
        with pytest.raises(InputError):
            EndoBlockMatrix.from_rows(mixed, [[(1, 0), (1, 0)], [(0, 0), (1, 0)]])
        with pytest.raises(InputError):
            EndoBlockMatrix.from_rows(mixed, [[(1, 0), (0, 0)], [(0, 0), (1, 1)]])
        distinct = AbelianVarietyModel.of(EllipticFactor("generic", "E"),
                                          EllipticFactor("generic", "F"))
        with pytest.raises(InputError):
            EndoBlockMatrix.from_rows(distinct, [[(1, 0), (1, 0)], [(0, 0), (1, 0)]])


class TestAnalyticRep:
    def test_mult_by_i(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        field = CycloField(12)
        phi = EndoBlockMatrix.from_rows(a, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
        m = analytic_rep(phi, field)
        z4 = field.root_of_unity(4, 1)
        assert m[0][0] == z4 and m[1][1] == z4
        assert m[0][1].is_zero() and m[1][0].is_zero()

    def test_minus_one_times_i(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"), Z4)
        field = CycloField(12)
        phi = EndoBlockMatrix.from_rows(a, [[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
        m = analytic_rep(phi, field)
        assert m[0][0] == field.rational(-1)
        assert m[1][1] == field.root_of_unity(4, 1)

    def test_identity(self):
        a = AbelianVarietyModel.of(Z4)
        field = CycloField(12)
        m = analytic_rep(EndoBlockMatrix.identity(a), field)
        assert m[0][0] == field.one()


class TestIsAbelianSubvariety:
    def test_diagonal_of_ei_squared(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        diag = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert is_abelian_subvariety(diag, a)

    def test_odd_rank(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        assert not is_abelian_subvariety(Lattice.from_vectors(4, [[1, 0, 0, 0]]), a)

    def test_diagonal_across_distinct_generic_labels(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"),
                                   EllipticFactor("generic", "F"))
        diag = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert not is_abelian_subvariety(diag, a)

    def test_diagonal_across_same_generic_label(self):
        f = EllipticFactor("generic", "E")
        a = AbelianVarietyModel.of(f, f)
        diag = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert is_abelian_subvariety(diag, a)

    def test_factor_lattices(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"), Z4)
        assert is_abelian_subvariety(Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]]), a)
        assert is_abelian_subvariety(Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]]), a)
        assert is_abelian_subvariety(Lattice.zero(4), a)
        assert is_abelian_subvariety(Lattice.full(4), a)

    def test_zeta6_factor(self):
        a = AbelianVarietyModel.of(EllipticFactor("zeta6"), EllipticFactor("zeta6"))
        diag = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert is_abelian_subvariety(diag, a)
        skew = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 1, 1]])
        assert not is_abelian_subvariety(skew, a)


class TestConnectedIntersection:
    def test_self_intersection(self):
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        s = SubtorusTranslate(lat, TorsionPoint.zero(4))
        d, comps = connected_intersection(s, s)
        assert d == lat
        assert len(comps) == 1

    def test_diagonal_meets_antidiagonal(self):
        diag = SubtorusTranslate(
            Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]]),
            TorsionPoint.zero(4))
        anti = SubtorusTranslate(
            Lattice.from_vectors(4, [[1, 0, -1, 0], [0, 1, 0, -1]]),
            TorsionPoint.zero(4))
        d, comps = connected_intersection(diag, anti)
        assert d.rank == 0
        assert len(comps) == 4
        # oracle: brute force over 2-torsion of the torus
        points = set()
        for combo in itertools.product((Fraction(0), Fraction(1, 2)), repeat=4):
            x, y, z, w = combo
            if (x - z).denominator == 1 and (y - w).denominator == 1 \
                    and (x + z).denominator == 1 and (y + w).denominator == 1:
                points.add(combo)
        assert {tuple(c.translate.coords) for c in comps} == points

    def test_disjoint_parallel_translates(self):
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        s1 = SubtorusTranslate(lat, TorsionPoint.zero(4))
        s2 = SubtorusTranslate(lat, TorsionPoint.of([0, 0, Fraction(1, 2), 0]))
        _, comps = connected_intersection(s1, s2)
        assert comps == ()


class TestDivisors:
    def test_q_linear_equivalence(self):
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        t0 = SubtorusTranslate(lat, TorsionPoint.zero(4))
        t2 = SubtorusTranslate(lat, TorsionPoint.of([0, 0, Fraction(1, 2), 0]))
        assert q_linear_equivalent(t0, t2)
        assert q_linear_equivalent(t0, t0)
        diag = SubtorusTranslate(
            Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]]),
            TorsionPoint.zero(4))
        assert not q_linear_equivalent(t0, diag)
        with pytest.raises(InputError):
            q_linear_equivalent(
                SubtorusTranslate(Lattice.zero(4), TorsionPoint.zero(4)), t0)

    def test_kappa_two_transverse_factors(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        f1 = SubtorusTranslate(Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                               TorsionPoint.zero(4))
        f2 = SubtorusTranslate(Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
                               TorsionPoint.zero(4))
        kappa, ample = kappa_divisor([(Fraction(1), f1), (Fraction(1), f2)], a)
        assert (kappa, ample) == (2, True)

    def test_kappa_single_factor(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"), Z4)
        f = SubtorusTranslate(Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                              TorsionPoint.zero(4))
        kappa, ample = kappa_divisor([(Fraction(1), f)], a)
        assert (kappa, ample) == (1, False)

    def test_kappa_empty_divisor(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        assert kappa_divisor([], a) == (0, False)

    def test_kappa_invariant_under_equivalence(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        other = Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        t0 = SubtorusTranslate(lat, TorsionPoint.zero(4))
        t1 = SubtorusTranslate(lat, TorsionPoint.of([0, 0, Fraction(1, 4), 0]))
        o = SubtorusTranslate(other, TorsionPoint.zero(4))
        k_a = kappa_divisor([(Fraction(1), t0), (Fraction(1), o)], a)
        k_b = kappa_divisor([(Fraction(1), t1), (Fraction(1), o)], a)
        assert k_a == k_b


class TestPoincareComplement:
    def test_orthogonal_product_factors(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        b = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        c, order = poincare_complement(b, [EndoBlockMatrix.identity(a)], a)
        assert c == Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert order == 1

    def test_diagonal_with_swap(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        b = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        swap = EndoBlockMatrix.from_rows(a, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
        c, order = poincare_complement(b, [EndoBlockMatrix.identity(a), swap], a)
        assert c == Lattice.from_vectors(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
        assert order == 4
        assert is_abelian_subvariety(c, a)

    def test_sign_rot4_shape(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"), Z4)
        b = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        n0 = [EndoBlockMatrix.identity(a),
              EndoBlockMatrix.from_rows(a, [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]])]
        c, order = poincare_complement(b, n0, a)
        assert c == Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert order == 1

    def test_not_invariant_raises(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        diag = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        i_times_one = EndoBlockMatrix.from_rows(a, [[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
        with pytest.raises(InputError):
            poincare_complement(diag, [i_times_one], a)
