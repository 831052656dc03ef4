from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqav import linalg
from fqav.action import close_group
from fqav.cyclotomic import CycloField
from fqav.decompose import decompose
from fqav.errors import InputError
from fqav.linalg import (
    Lattice,
    TorsionPoint,
    identity_matrix,
    mat_mul,
    mat_transpose,
    mat_vec,
)
from fqav.variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    SubtorusTranslate,
    rational_rep,
    subtorus_kappa,
)

from conftest import generator, identity
from oracles import (
    analytic_rep,
    lattice_poincare_complement,
    solve_rational,
)

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
        assert rational_rep(identity(a)) == identity_matrix(4)

    def test_swap_functorial(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        swap = EndoBlockMatrix.from_rows(a, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
        rho = rational_rep(swap)
        assert rho == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        assert mat_mul(rho, rho) == identity_matrix(4)
        assert swap.compose(swap) == identity(a)

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
        ident = identity(a)
        assert [list(r) for r in ident.matrix] == rational_rep(ident) == identity_matrix(4)

    def test_products_are_not_validated(self, monkeypatch):
        """A product of endomorphisms is one: ``close_group`` checks each
        generator's blocks on the variety once, and closure and
        decomposition never again ask which factors admit homomorphisms."""
        variety = AbelianVarietyModel.of(Z4, Z4, Z4)
        one, zero, i = (1, 0), (0, 0), (0, 1)
        gens = [generator([[i, zero, zero], [zero, one, zero], [zero, zero, one]]),
                generator([[zero, one, zero], [one, zero, zero], [zero, zero, one]],
                          [0, 0, 0, 0, "1/2", 0])]

        def run():
            group = close_group(variety, gens)
            return group.elements, decompose(group)

        expected = run()
        assert len(expected[0]) == 32 and len(expected[1].stages) == 2

        asked = []
        original = EllipticFactor.hom_key

        def counting(self, other):
            asked.append((self, other))
            return original(self, other)

        monkeypatch.setattr(EllipticFactor, "hom_key", counting)
        assert run() == expected
        # one question per block of each generator, none per product
        assert len(asked) == len(gens) * variety.n

    def test_zeta6_functoriality(self):
        z6 = EllipticFactor("zeta6")
        a = AbelianVarietyModel.of(z6)
        tau = EndoBlockMatrix.from_rows(a, [[(0, 1)]])
        # tau has order 6 in the lattice representation
        power = tau
        for _ in range(5):
            power = power.compose(tau)
        assert power == identity(a)

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
        m = analytic_rep(identity(a), field)
        assert m[0][0] == field.one()


def complex_structure_matrices(variety):
    """Rational matrices whose simultaneous stabilization of a subspace is
    equivalent to stability under the (generally irrational) complex
    structure of the product.

    Per factor the scaled complex structure is [[-x, -(x^2+y^2)], [1, x]]
    with period tau = x + iy; the terms are grouped by the Q-linear
    independence class of their irrational scalars: all zeta4 factors
    together, all zeta6 factors together, and three coefficient matrices per
    generic label."""
    n = variety.n
    groups = {}

    def block_into(key, j, block):
        mat = groups.setdefault(key, [[0] * (2 * n) for _ in range(2 * n)])
        for a in range(2):
            for b in range(2):
                mat[2 * j + a][2 * j + b] = block[a][b]

    for j, f in enumerate(variety.factors):
        if f.cm == "zeta4":  # x = 0, x^2+y^2 = 1
            block_into(("cm", "zeta4"), j, [[0, -1], [1, 0]])
        elif f.cm == "zeta6":  # x = 1/2, x^2+y^2 = 1 (scaled by 2)
            block_into(("cm", "zeta6"), j, [[-1, -2], [2, 1]])
        else:
            block_into(("gen", f.label, "const"), j, [[0, 0], [1, 0]])
            block_into(("gen", f.label, "x"), j, [[-1, 0], [0, 1]])
            block_into(("gen", f.label, "norm"), j, [[0, -1], [0, 0]])
    return list(groups.values())


def is_abelian_subvariety(lat, variety):
    """Oracle: True iff the lattice has even rank and a rational span stable
    under the complex structure of the product, that is, its subtorus is
    complex."""
    if lat.rank % 2:
        return False
    cols = mat_transpose(lat.basis_rows())
    return all(solve_rational(cols, mat_vec(m, v)) is not None
               for m in complex_structure_matrices(variety) for v in lat.basis_rows())


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

    def test_decomposition_parts_are_complex(self, rot4_square_group, sign_rot4_group,
                                             kummer_group, p1_group, bielliptic_group):
        """B, the lattice fixed by complex-linear holonomies, and C, its
        complement invariant under them, are complex subtori by
        construction, so the decomposition certifies neither: C is the
        kernel of the average of the holonomies, which commutes with the
        complex structure.  Each stage's C is the span of the later
        abelian factors and the Q-Fano part, so this checks both."""
        z4 = EllipticFactor("zeta4")
        ei_cubed = AbelianVarietyModel.of(z4, z4, z4)
        one, zero, i = (1, 0), (0, 0), (0, 1)
        # two stages, glued by 2-torsion
        two_stage = close_group(ei_cubed, [
            generator([[i, zero, zero], [zero, one, zero], [zero, zero, one]]),
            generator([[zero, one, zero], [one, zero, zero], [zero, zero, one]],
                      [0, 0, 0, 0, "1/2", 0])])
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group, two_stage]
        for group in groups:
            result = decompose(group)
            n2 = group.variety.ambient_rank
            fano = Lattice.from_vectors(n2, [list(v) for v in result.fano_part.embedding])
            for lat in result.abelian_factors + (fano,):
                assert is_abelian_subvariety(lat, group.variety)
        assert len(decompose(two_stage).stages) == 2


class TestDivisors:
    def test_kappa_two_transverse_factors(self):
        f1 = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        f2 = Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        # kappa = n: the divisor is ample
        assert subtorus_kappa([f1, f2], 4) == 2

    def test_kappa_single_factor(self):
        f = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert subtorus_kappa([f], 4) == 1

    def test_kappa_empty_divisor(self):
        assert subtorus_kappa([], 4) == 0

    def test_kappa_invariant_under_equivalence(self):
        """Parallel translates are Q-linearly equivalent, and kappa reads
        only their lattice."""
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        other = Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        t0 = SubtorusTranslate(lat, TorsionPoint.zero(4))
        t1 = SubtorusTranslate(lat, TorsionPoint.of([0, 0, Fraction(1, 4), 0]))
        assert t0.canonical_key() != t1.canonical_key()
        assert subtorus_kappa([t0.lattice, other], 4) == subtorus_kappa([t1.lattice, other], 4)

    def test_kappa_complements_each_lattice_once(self, monkeypatch):
        # subtorus_kappa reads each lattice's cached complement_rows, so a
        # lattice object is complemented once, by whichever reader is first
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        other = Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        complemented = []
        original = linalg.orthogonal_complement_rows

        def recording(l):
            complemented.append(l)
            return original(l)

        monkeypatch.setattr(linalg, "orthogonal_complement_rows", recording)
        assert subtorus_kappa([lat, other, lat, lat, other], 4) == 2
        assert complemented == [lat, other]
        assert subtorus_kappa([other, lat], 4) == 2
        assert SubtorusTranslate(lat, TorsionPoint.zero(4)).canonical_key()
        assert complemented == [lat, other]
        # one lattice is its own common subtorus, and needs no complement
        single = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert subtorus_kappa([single, single], 4) == subtorus_kappa([single], 4) == 1
        assert complemented == [lat, other]

    def test_complement_rows_are_tuples(self):
        lat = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        rows = lat.complement_rows
        assert rows == ((0, 0, 1, 0), (0, 0, 0, 1))
        assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
        assert lat.complement_rows is rows


def complement(b, holonomies):
    """The complement of B from the standard seed form averaged over the
    holonomies' rational representations: the oracle for the complement
    the decomposition takes."""
    return lattice_poincare_complement(b, [phi.matrix for phi in holonomies])


class TestPoincareComplement:
    def test_orthogonal_product_factors(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        b = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        c, order = complement(b, [identity(a)])
        assert c == Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert order == 1

    def test_diagonal_with_swap(self):
        a = AbelianVarietyModel.of(Z4, Z4)
        b = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        swap = EndoBlockMatrix.from_rows(a, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
        c, order = complement(b, [identity(a), swap])
        assert c == Lattice.from_vectors(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
        assert order == 4
        assert is_abelian_subvariety(c, a)

    def test_sign_rot4_shape(self):
        a = AbelianVarietyModel.of(EllipticFactor("generic", "E"), Z4)
        b = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        n0 = [identity(a),
              EndoBlockMatrix.from_rows(a, [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]])]
        c, order = complement(b, n0)
        assert c == Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert order == 1
