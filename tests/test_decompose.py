import random

import pytest

from fqav.action import bfs_closure, close_group
from fqav.decompose import (
    LatticeElement,
    _element_inverse,
    check_normal,
    close_elements,
    decompose,
    decompose_fano_part,
    element_fixed_solution,
    fixed_solutions,
    group_to_lattice_elements,
    lattice_kappa,
    lattice_quasietale_outside,
    lattice_ramification_subgroup,
    to_lattice_elements,
)
from fqav.errors import CertificateError, InputError
from fqav.linalg import Lattice, fixed_lattice, identity_matrix

from test_acceptance import random_automorphism, random_variety


def fixed_dim(e):
    """Complex dimension of the stage solve of e's fixed locus, None if empty."""
    return element_fixed_solution(e).dim


def invariant_torus(subgroup):
    return fixed_lattice([e.matrix for e in subgroup], subgroup[0].rank)


class TestLatticeElements:
    def test_roundtrip_from_group(self, sign_rot4_group):
        els = group_to_lattice_elements(sign_rot4_group)
        assert len(els) == 4
        closed = close_elements([e for e in els if not e.is_identity()])
        assert set(closed) == set(els)

    def test_fixed_dims(self, sign_rot4_group):
        els = group_to_lattice_elements(sign_rot4_group)
        dims = sorted((fixed_dim(e) for e in els), key=str)
        # identity fixes everything (dim 2); g and g^3 fix points; g^2 a curve
        assert dims == [0, 0, 1, 2]


class TestRamificationSubgroup:
    def test_sign_rot4_is_order_two(self, sign_rot4_group):
        els = group_to_lattice_elements(sign_rot4_group)
        sub = lattice_ramification_subgroup(els, fixed_solutions(els))
        assert len(sub) == 2
        nontrivial = [e for e in sub if not e.is_identity()]
        assert fixed_dim(nontrivial[0]) == 1

    def test_quasietale_group_is_trivial(self, kummer_group, bielliptic_group):
        for group in (kummer_group, bielliptic_group):
            els = group_to_lattice_elements(group)
            sub = lattice_ramification_subgroup(els, fixed_solutions(els))
            assert all(e.is_identity() for e in sub)

    def test_p1_is_whole_group(self, p1_group):
        els = group_to_lattice_elements(p1_group)
        sub = lattice_ramification_subgroup(els, fixed_solutions(els))
        assert set(sub) == set(els)


class TestInvariantTorus:
    def test_sign_rot4(self, sign_rot4_group):
        els = group_to_lattice_elements(sign_rot4_group)
        sub = lattice_ramification_subgroup(els, fixed_solutions(els))
        b = invariant_torus(sub)
        assert b == Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_p1_trivial(self, p1_group):
        els = group_to_lattice_elements(p1_group)
        sub = lattice_ramification_subgroup(els, fixed_solutions(els))
        assert invariant_torus(sub).rank == 0


class TestKappaCertificate:
    def test_minus_one_on_elliptic_curve(self):
        e = LatticeElement.of([[-1, 0], [0, -1]])
        els = close_elements([e])
        assert lattice_kappa(els, fixed_solutions(els)) == 1

    def test_order_four_rotation(self):
        e = LatticeElement.of([[0, -1], [1, 0]])
        els = close_elements([e])
        assert lattice_kappa(els, fixed_solutions(els)) == 1


class TestDecompose:
    def test_rot4_square_fully_abelian(self, rot4_square_group):
        result = decompose(rot4_square_group)
        assert result.is_q_abelian
        assert result.total_abelian_dim == 2
        assert result.abelian_factors == (Lattice.full(4),)
        assert result.stages == ()

    def test_sign_rot4_one_stage(self, sign_rot4_group):
        result = decompose(sign_rot4_group)
        assert not result.is_q_abelian
        assert result.total_abelian_dim == 1
        assert [lat.rank for lat in result.abelian_factors] == [2]
        assert result.abelian_factors[0] == Lattice.from_vectors(
            4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert result.fano_part.dim == 1
        assert result.fano_part.order == 2
        assert len(result.stages) == 2
        stage = result.stages[0]
        assert stage.n_order == 2
        assert stage.ker_mu_order == 1
        assert stage.quasietale_outside_check
        fano_stage = result.stages[1]
        assert fano_stage.fano_kappa_check is True

    def test_fano_part_is_minus_one(self, sign_rot4_group):
        result = decompose(sign_rot4_group)
        mats = sorted(e.matrix for e in result.fano_part.elements)
        assert mats == [((-1, 0), (0, -1)), ((1, 0), (0, 1))]
        # embedded in the second factor of the original lattice
        embedding = [list(v) for v in result.fano_part.embedding]
        assert Lattice.from_vectors(4, embedding) == Lattice.from_vectors(
            4, [[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_kummer_quasietale(self, kummer_group):
        result = decompose(kummer_group)
        assert result.is_q_abelian
        assert result.total_abelian_dim == 2

    def test_bielliptic_quasietale(self, bielliptic_group):
        result = decompose(bielliptic_group)
        assert result.is_q_abelian
        assert result.total_abelian_dim == 2

    def test_p1_pure_fano(self, p1_group):
        result = decompose(p1_group)
        assert not result.is_q_abelian
        assert result.abelian_factors == ()
        assert result.total_abelian_dim == 0
        assert result.fano_part.dim == 1
        assert result.fano_part.order == 4
        assert result.stages[0].fano_kappa_check is True

    def test_dimension_bookkeeping(self, rot4_square_group, sign_rot4_group, kummer_group,
                                   p1_group, bielliptic_group):
        for group in (rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group):
            result = decompose(group)
            assert result.total_abelian_dim + result.fano_part.dim == group.variety.n


class TestIdempotence:
    def test_fano_part_stays_fano(self, sign_rot4_group, p1_group):
        for group in (sign_rot4_group, p1_group):
            result = decompose(group)
            again = decompose_fano_part(result.fano_part)
            assert again.total_abelian_dim == 0
            assert again.fano_part.dim == result.fano_part.dim
            assert again.fano_part.order == result.fano_part.order

    def test_empty_fano_part(self, kummer_group):
        result = decompose(kummer_group)
        again = decompose_fano_part(result.fano_part)
        assert again.total_abelian_dim == 0
        assert again.fano_part.rank == 0


class TestSplitWithTorsionGlue:
    def test_diagonal_antidiagonal_kernel(self):
        # involution swapping the two factors of a square: B = diagonal,
        # C = antidiagonal, kernel of the addition map has order 4
        swap = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        neg_swap = [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        e = LatticeElement.of(neg_swap)
        els = close_elements([e])
        sub = lattice_ramification_subgroup(els, fixed_solutions(els))
        assert len(sub) == 2
        b = invariant_torus(sub)
        assert b == Lattice.from_vectors(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
        from fqav.decompose import split_action
        from fqav.variety import lattice_poincare_complement, standard_symplectic_form

        seed = standard_symplectic_form(2)
        holonomies = [tuple(tuple(r) for r in identity_matrix(4)),
                      tuple(tuple(r) for r in neg_swap)]
        c, ker_mu = lattice_poincare_complement(b, holonomies, seed)
        assert ker_mu == 4
        n_tilde, n_c, reps = split_action(sub, b, c, ker_mu)
        assert len(n_tilde) == 2 * 4
        assert len(reps) == 4
        # the first factor is a complement of B that the swap does not keep
        first = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(CertificateError, match="complement is not invariant"):
            split_action(sub, b, first, 1)


# ---------------------------------------------------------------------------
# the generator-only certificates against the all-elements checks they replace

def normal_by_all_elements(elements, subgroup):
    """Reference: g h g^-1 in N for every g in G and h in N, with g^-1 found
    by scanning G."""
    sub = set(subgroup)
    for g in elements:
        g_inv = next(h for h in elements if g.compose(h).is_identity())
        if any(g.compose(h).compose(g_inv) not in sub for h in subgroup):
            return False
    return True


def normal_by_generators(generators, subgroup, order):
    try:
        check_normal(generators, subgroup, order)
    except CertificateError:
        return False
    return True


def quasietale_outside_by_pairs(elements, subgroup):
    """Reference: the fixed locus of every product h g, h in N, g not in N."""
    sub = set(subgroup)
    n = elements[0].rank // 2
    for g in elements:
        if g in sub:
            continue
        for h in subgroup:
            d = fixed_dim(h.compose(g))
            if d is not None and d > n - 2:
                return False
    return True


def unpruned_closure(gens):
    ident = LatticeElement.of(identity_matrix(gens[0].rank))
    gens_sorted = sorted(set(gens), key=LatticeElement.sort_key)
    elements, _ = bfs_closure(ident, gens_sorted, 100000, AssertionError("closure too large"))
    return elements


def random_groups(seed, count, cap=48):
    """Closed groups drawn like the cross-theorem acceptance criterion."""
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        variety = random_variety(rng)
        gens = [g for g in (random_automorphism(rng, variety, max_order=12, denoms=(1, 1, 2))
                            for _ in range(rng.randint(1, 2))) if g is not None]
        if not gens:
            continue
        try:
            groups.append(close_group(gens, cap=cap))
        except InputError:
            continue
    return groups


def cyclic_subgroups(elements):
    seen = []
    for x in elements:
        sub = close_elements([x])
        if set(sub) not in seen:
            seen.append(set(sub))
            yield sub


@pytest.fixture
def gallery(rot4_square_group, sign_rot4_group, kummer_group, p1_group, bielliptic_group):
    return [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
            bielliptic_group] + random_groups(4861, 25)


class TestGeneratorNormality:
    def test_agrees_with_all_elements_check(self, gallery):
        verdicts = set()
        for group in gallery:
            elements = group_to_lattice_elements(group)
            gens = to_lattice_elements(group.generators)
            subgroups = [lattice_ramification_subgroup(elements, fixed_solutions(elements))]
            subgroups += list(cyclic_subgroups(elements))
            for sub in subgroups:
                want = normal_by_all_elements(elements, sub)
                assert normal_by_generators(gens, sub, len(elements)) == want
                verdicts.add(want)
        assert verdicts == {True, False}  # both outcomes were exercised

    def test_non_normal_subgroup_raises(self):
        # D4 on E x E: <swap, (-1) x 1>; the reflection (-1) x 1 is not normal
        swap = LatticeElement.of([[0, 0, 1, 0], [0, 0, 0, 1],
                                  [1, 0, 0, 0], [0, 1, 0, 0]])
        flip = LatticeElement.of([[-1, 0, 0, 0], [0, -1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]])
        elements = close_elements([swap, flip])
        assert len(elements) == 8
        sub = close_elements([flip])
        with pytest.raises(CertificateError, match="not normal"):
            check_normal([swap, flip], sub, len(elements))

    def test_inverse_through_powers(self, gallery):
        for group in gallery:
            for g in group_to_lattice_elements(group):
                assert g.compose(_element_inverse(g, group.order)).is_identity()

    def test_inverse_needs_finite_order(self):
        shift = LatticeElement.of([[1, 1], [0, 1]])  # infinite order
        with pytest.raises(CertificateError):
            _element_inverse(shift, 12)


class TestOnePassQuasietale:
    def test_agrees_with_double_loop(self, gallery):
        verdicts = set()
        for group in gallery:
            elements = group_to_lattice_elements(group)
            fixed = fixed_solutions(elements)
            subgroups = [lattice_ramification_subgroup(elements, fixed)]
            if group.order <= 8:
                subgroups += list(cyclic_subgroups(elements))
            for sub in subgroups:
                want = quasietale_outside_by_pairs(elements, sub)
                assert lattice_quasietale_outside(elements, sub, fixed) == want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestPrunedClosure:
    def test_same_set_as_unpruned_bfs(self, gallery):
        rng = random.Random(7)
        for group in gallery:
            elements = group_to_lattice_elements(group)
            reflections = [e for e in elements if fixed_dim(e) == e.rank // 2 - 1]
            for gens in (elements, reflections, rng.sample(elements, min(3, len(elements)))):
                if gens:
                    assert set(close_elements(gens)) == set(unpruned_closure(gens))

    def test_redundant_generators_skipped(self):
        rot = LatticeElement.of([[0, -1], [1, 0]])
        minus_one = LatticeElement.of([[-1, 0], [0, -1]])
        powers = unpruned_closure([rot])
        multipliers = []
        original = LatticeElement.compose

        def counting(self, other):
            multipliers.append(other)
            return original(self, other)

        LatticeElement.compose = counting
        try:
            closed = close_elements(powers)
        finally:
            LatticeElement.compose = original
        assert set(closed) == set(powers)
        # in sort order -1 comes first and rot is kept next; rot^3 and the
        # identity are already in the closure and never used
        assert set(multipliers) == {minus_one, rot}
