import importlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fqav.action import (
    LatticeElement,
    bfs_closure,
    certified_class_rep,
    close_group,
)
from fqav.decompose import (
    _check_n_tilde_group,
    _element_inverse,
    check_normal,
    check_normal_on_tables,
    class_divisors,
    close_elements,
    close_with_tables,
    decompose,
    element_fixed_solution,
    lattice_kappa,
    lattice_quasietale_outside,
    may_have_divisors,
    ramification_on_tables,
    split_action,
)
from fqav import action, linalg
from fqav.cli import build_report, parse_input
from fqav.errors import CertificateError, InputError
from fqav.linalg import (
    AffineSolutionSet,
    FixedPointSolver,
    Lattice,
    TorsionPoint,
    fixed_lattice,
    identity_matrix,
    identity_minus,
    mat_vec,
    matrix_rank,
    solve_affine_mod_lattice,
)
from fqav.variety import AbelianVarietyModel, EllipticFactor, subtorus_kappa

from conftest import generator
from oracles import (
    c_restriction_translation,
    decompose_fano_part,
    enumerated_n_tilde,
    fano_elements,
    fixed_solutions,
    generated_group,
    ker_mu_generators,
    lattice_coordinates,
    lattice_poincare_complement,
    union_find_class_rep,
)
from test_acceptance import random_generator, random_variety
from test_action import (
    ORACLE,
    assert_closure_matches_product_closure,
    assert_tables,
    nonabelian_groups,
    small_groups,
)
from test_cli import RAMIFIED_CM_DOCS, count_calls
from test_golden import (
    SPLIT,
    diag_perm_document,
    glue_document,
    s4_split_document,
    sl_diag_document,
    symmetric_document,
    translated_sl_diag_document,
)

# the module, which the package's ``decompose`` function shadows
decompose_module = importlib.import_module("fqav.decompose")

# D4 on E x E is generated by the swap and the reflection (-1) x 1; the
# swap conjugates that reflection to 1 x (-1), so <(-1) x 1> is not normal
SWAP = LatticeElement.of([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
FLIP = LatticeElement.of([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
FLIP_SECOND = LatticeElement.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
D4_WITNESS = (f"ramification subgroup is not normal: generator {SWAP} conjugates "
              f"{FLIP} to {FLIP_SECOND}, outside the subgroup")


def fixed_dim(e):
    """Complex dimension of the stage solve of e's fixed locus, None if empty."""
    return element_fixed_solution(e, FixedPointSolver()).dim


def n_listed(elements, ramification):
    """N in stage order: the elements numbered by the members of a
    ``ramification_on_tables`` result, which lists none of them."""
    return [elements[x] for x in sorted(ramification[1])]


def stage_ramification(elements):
    """N of the closed group ``elements`` and the generators its closure
    kept, on the tables of the closure of ``elements``."""
    closed, _, tables = close_with_tables(elements)
    ramification = ramification_on_tables(closed, tables,
                                          fixed_solutions(closed, FixedPointSolver()))
    return n_listed(closed, ramification), ramification[0]


def invariant_torus(subgroup):
    return fixed_lattice([e.matrix for e in subgroup], subgroup[0].rank)


class TestLatticeElements:
    def test_roundtrip_from_group(self, sign_rot4_group):
        els = sign_rot4_group.elements
        assert len(els) == 4
        closed, _ = close_elements([e for e in els if not e.is_identity()])
        assert set(closed) == set(els)

    def test_fixed_dims(self, sign_rot4_group):
        els = sign_rot4_group.elements
        dims = sorted((fixed_dim(e) for e in els), key=str)
        # identity fixes everything (dim 2); g and g^3 fix points; g^2 a curve
        assert dims == [0, 0, 1, 2]


class TestRamificationSubgroup:
    def test_sign_rot4_is_order_two(self, sign_rot4_group):
        els = sign_rot4_group.elements
        sub, _ = stage_ramification(els)
        assert len(sub) == 2
        nontrivial = [e for e in sub if not e.is_identity()]
        assert fixed_dim(nontrivial[0]) == 1

    def test_quasietale_group_is_trivial(self, kummer_group, bielliptic_group):
        for group in (kummer_group, bielliptic_group):
            els = group.elements
            sub, _ = stage_ramification(els)
            assert all(e.is_identity() for e in sub)

    def test_p1_is_whole_group(self, p1_group):
        els = p1_group.elements
        sub, _ = stage_ramification(els)
        assert set(sub) == set(els)


class TestInvariantTorus:
    def test_sign_rot4(self, sign_rot4_group):
        els = sign_rot4_group.elements
        sub, _ = stage_ramification(els)
        b = invariant_torus(sub)
        assert b == Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_p1_trivial(self, p1_group):
        els = p1_group.elements
        sub, _ = stage_ramification(els)
        assert invariant_torus(sub).rank == 0


class TestKappaCertificate:
    def test_minus_one_on_elliptic_curve(self):
        e = LatticeElement.of([[-1, 0], [0, -1]])
        els, _ = close_elements([e])
        assert lattice_kappa(fixed_solutions(els, FixedPointSolver()).values(), 2) == 1

    def test_order_four_rotation(self):
        e = LatticeElement.of([[0, -1], [1, 0]])
        els, _ = close_elements([e])
        assert lattice_kappa(fixed_solutions(els, FixedPointSolver()).values(), 2) == 1


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
        mats = sorted(e.matrix for e in fano_elements(result.fano_part)[0])
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


def glue_split():
    """The involution -swap of the two factors of a square: N = <-swap>,
    B = diagonal, C = antidiagonal, and the kernel of the addition map has
    order 4.  The arguments of split_action."""
    e = LatticeElement.of([[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    els, _ = close_elements([e])
    sub, kept = stage_ramification(els)
    b = invariant_torus(sub)
    c, ker_mu = lattice_poincare_complement(b, [x.matrix for x in sub])
    return len(sub), kept, b, c, ker_mu


class TestSplitWithTorsionGlue:
    def test_diagonal_antidiagonal_kernel(self):
        n_order, kept, b, c, ker_mu = glue_split()
        sub = close_elements(kept)[0]
        assert n_order == len(sub) == 2 and len(kept) == 1
        assert b == Lattice.from_vectors(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
        assert ker_mu == 4
        n_tilde_order, n_c_kept = split_action(n_order, kept, b, c, ker_mu)
        assert n_tilde_order == 2 * 4
        lifts = assert_enumerated_n_tilde(sub, kept, b, c, n_tilde_order)
        # the lifts of the identity are the 4 translations by ker mu
        ident = identity_matrix(4)
        (one,) = [g for g in sub if g.is_identity()]
        assert [t.matrix for t in lifts[one]] == [tuple(map(tuple, ident))] * 4
        assert len({t.translation for t in lifts[one]}) == 4
        # the restriction of the kept generator is -1 on C, and closes to
        # N_C of order 2
        assert n_c_kept == [LatticeElement.of([[-1, 0], [0, -1]])]
        assert len(close_elements(n_c_kept)[0]) == 2
        # the first factor is a complement of B that the swap does not keep
        first = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(CertificateError, match="complement is not invariant"):
            split_action(n_order, kept, b, first, 1)


def translated_ei_square():
    """diag(i, 1) on E_i^2, translated by (1/2, 1/2) on the first factor:
    N is the whole group, B the second factor and C the first, and the
    translations lie in C, so some restriction to C has gamma != 0."""
    ei = EllipticFactor("zeta4")
    return close_group(AbelianVarietyModel.of(ei, ei),
                       [generator([[(0, 1), (0, 0)], [(0, 0), (1, 0)]],
                                  ["1/2", "1/2", 0, 0])])


def recorded_splits(monkeypatch, groups):
    """The arguments and result of every ``split_action`` call in the
    decompositions of ``groups``."""
    calls = []

    def recording(*args):
        out = split_action(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(decompose_module, "split_action", recording)
    for group in groups:
        decompose(group)
    monkeypatch.undo()
    return calls


def oracle_restriction(g, c):
    """t_gamma . W|_C for g = t_a . W, gamma from the Smith form of C^T,
    which must solve C^T gamma = a."""
    gamma = c_restriction_translation(c, g.translation)
    assert gamma is not None
    w_c = zip(*(lattice_coordinates(c, mat_vec(g.matrix, v)) for v in c.basis_rows()))
    return LatticeElement.of(w_c, gamma)


def assert_enumerated_n_tilde(n_elements, n_generators, b, c, n_tilde_order):
    """The enumerating check of N-tilde: every lift of every element of N,
    one per splitting, is ``n_tilde_order`` distinct maps, the closure of
    one lift of each of ``n_generators`` and of translations by ker mu that
    generate the lifts of the identity, so a group; when there are at most
    256, every product of two of them is one of them.  The lifts by
    element."""
    lifts = enumerated_n_tilde(n_elements, b, c)
    n_tilde = [t for g in n_elements for t in lifts[g]]
    assert len(set(n_tilde)) == len(n_tilde) == n_tilde_order
    (one,) = [g for g in n_elements if g.is_identity()]
    assert generated_group(n_tilde, [lifts[g][0] for g in n_generators]
                           + ker_mu_generators(lifts[one]))
    if len(n_tilde) <= 256:
        entries = set(n_tilde)
        assert all(s.compose(t) in entries for s in n_tilde for t in n_tilde)
    return lifts


def trace(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


def assert_split_matches_oracles(calls):
    """At each split stage, N, enumerated as the closure of its kept
    generators, has the order given; C and the index of B + C are those of
    the polarization averaged over every holonomy of N, N-tilde passes the
    enumerating check with |N| |ker mu| elements, and every element of N
    restricts to C, its a solved by the Smith form of C^T, to
    t_gamma . W|_C, W|_C the coordinate solve of W C^T on the C basis,
    which is also the C block of each enumerated lift of t_a . W.  The
    split's restrictions are those of N's kept generators, and their
    closure N_C has |N| elements: the set of all the restrictions, with
    the pair (tr W|_C, gamma) as often as N holds (tr W - rank B, gamma),
    as W is the identity on B.  The number of stages with some
    gamma != 0."""
    nonzero = 0
    for (n_order, n_generators, b, c, ker_mu), (n_tilde_order, n_c_generators) in calls:
        n_elements = close_elements(n_generators)[0]
        assert len(n_elements) == n_order
        holonomies = list(dict.fromkeys(g.matrix for g in n_elements))
        assert lattice_poincare_complement(b, holonomies) == (c, ker_mu)
        assert n_tilde_order == n_order * ker_mu
        lifts = assert_enumerated_n_tilde(n_elements, n_generators, b, c, n_tilde_order)
        assert n_c_generators == [oracle_restriction(g, c) for g in n_generators]
        restrictions = [oracle_restriction(g, c) for g in n_elements]
        n_c = close_elements(n_c_generators)[0]
        assert len(n_c) == n_order and set(n_c) == set(restrictions)
        assert Counter((trace(r.matrix), r.translation) for r in n_c) == Counter(
            (trace(g.matrix) - b.rank, r.translation) for g, r in zip(n_elements, restrictions))
        for g, r in zip(n_elements, restrictions):
            assert {tuple(row[b.rank:] for row in t.matrix[b.rank:]) for t in lifts[g]} == \
                {r.matrix}
        nonzero += any(not e.translation.is_zero() for e in n_c)
    return nonzero


class TestRestrictionToC:
    """``invariant_complement`` on the holonomies of N's kept generators
    against the averaged polarization over all of N, and the one-product
    W|_C and the restrictions of ``split_action`` against coordinate and
    Smith solves."""

    def test_every_split_stage(self, monkeypatch, gallery):
        groups = gallery + nonabelian_groups() + [translated_ei_square()]
        calls = recorded_splits(monkeypatch, groups)
        assert len(calls) > 5
        # some stage has non-symmetric holonomies, and some C is not a sum
        # of coordinate factors
        assert any(any(w != tuple(zip(*w)) for w in {g.matrix for g in close_elements(args[1])[0]})
                   for args, _ in calls)
        assert any(any(sum(map(bool, row)) > 1 for row in args[3].basis) for args, _ in calls)
        assert assert_split_matches_oracles(calls)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        with pytest.MonkeyPatch.context() as patch:
            assert_split_matches_oracles(recorded_splits(patch, [group]))

    def test_next_stage_generators(self, monkeypatch, gallery):
        # N_C, the Q-Fano part after a split, is held as the restrictions of
        # N's kept generators, in their order, and |N|
        splits, recorded = [], []

        def recording_split(n_order, n_generators, b, c, ker_mu):
            out = split_action(n_order, n_generators, b, c, ker_mu)
            splits.append(([oracle_restriction(g, c) for g in n_generators], n_order, out))
            return out

        monkeypatch.setattr(decompose_module, "split_action", recording_split)
        for group in gallery + nonabelian_groups() + [translated_ei_square()]:
            del splits[:]
            result = decompose(group)
            for want, n_order, (_, n_c_generators) in splits:
                assert n_c_generators == want
                assert result.fano_part.generators == tuple(want)
                assert result.fano_part.order == n_order == len(close_elements(want)[0])
            recorded.extend(want for want, _, _ in splits)
        assert len(recorded) > 5 and max(map(len, recorded)) > 1

    def test_no_closure_per_split_stage(self, monkeypatch, gallery):
        # a split closes neither N_C nor N-tilde, whatever the number of N's
        # kept generators: N-tilde is certified from its generators, and
        # |N_C| = |N| by the restriction being a one-to-one homomorphism
        closures, per_stage = Counter(), []

        def counted_split(n_order, n_generators, *args):
            before = closures["bfs_closure"]
            out = split_action(n_order, n_generators, *args)
            per_stage.append((len(n_generators), closures["bfs_closure"] - before))
            return out

        count_calls(monkeypatch, "bfs_closure", closures)
        monkeypatch.setattr(decompose_module, "split_action", counted_split)
        for group in gallery + nonabelian_groups() + [translated_ei_square()]:
            decompose(group)
        assert len(per_stage) > 5 and max(kept for kept, _ in per_stage) > 1
        assert all(calls == 0 for _, calls in per_stage)

    @pytest.mark.parametrize("doc", [s4_split_document(), symmetric_document(8)],
                             ids=["s4-split", "sym-8"])
    def test_report_closes_only_g(self, doc, monkeypatch):
        # a report on a split input makes one closure, that of G
        closures, splits = Counter(), []
        count_calls(monkeypatch, "bfs_closure", closures)
        count_calls(monkeypatch, "split_action", Counter(), splits)
        build_report(*parse_input(json.dumps(doc)), "report")
        assert len(splits) == 1 and closures["bfs_closure"] == 1

    def test_one_solve_per_translation_of_n(self, monkeypatch, gallery):
        # a split solves ker mu once and each distinct translation of N's
        # kept generators once, by one C^T solve, and lists no point of
        # ker mu or of any solution set
        solves, listed, per_stage = [], [], []
        solve = decompose_module.solve_factored
        representatives = AffineSolutionSet.representatives.func

        def counting_solve(*args):
            solves.append(args)
            return solve(*args)

        def counting_representatives(sol):
            listed.append(sol)
            return representatives(sol)

        def counted_split(n_order, n_generators, *args):
            before = len(solves), len(listed)
            out = split_action(n_order, n_generators, *args)
            per_stage.append((n_order, len({g.translation for g in n_generators}),
                              args[2], len(solves) - before[0], len(listed) - before[1]))
            return out

        monkeypatch.setattr(decompose_module, "solve_factored", counting_solve)
        monkeypatch.setattr(AffineSolutionSet, "representatives",
                            property(counting_representatives))
        monkeypatch.setattr(decompose_module, "split_action", counted_split)
        groups = gallery + nonabelian_groups() + [translated_ei_square()]
        groups += [document_group(doc) for doc in (symmetric_document(5), glue_document())]
        for group in groups:
            decompose(group)
        # S_5 has no translation, and glue-2's N of order 5184 has 2
        assert len(per_stage) > 5 and (120, 1, 25, 2, 0) in per_stage
        assert (5184, 2, 4, 3, 0) in per_stage
        assert all((solved, read) == (translations + 1, 0)
                   for _, translations, _, solved, read in per_stage)

    @pytest.mark.parametrize("doc, order, products", [
        (symmetric_document(5), 120, 13), (glue_document(), 5184, 16)])
    def test_products_per_kept_holonomy(self, doc, order, products, monkeypatch):
        # a split takes L and, for each distinct holonomy W of N's kept
        # generators, W C^T, W|_C = L W C^T and C^T W|_C: no product per
        # element or holonomy of N, none of which is restricted.  S_5's N
        # has 120 holonomies and 4 kept generators; glue-2's has 2592
        # holonomies and 6 kept generators with 5 holonomies
        calls, per_stage = [], []
        product = decompose_module.mat_mul

        def counting_product(*args):
            calls.append(args)
            return product(*args)

        def counted_split(n_order, n_generators, *args):
            before = len(calls)
            out = split_action(n_order, n_generators, *args)
            per_stage.append((n_order, len({g.matrix for g in n_generators}),
                              len(calls) - before))
            return out

        monkeypatch.setattr(decompose_module, "mat_mul", counting_product)
        monkeypatch.setattr(decompose_module, "split_action", counted_split)
        decompose(document_group(doc))
        ((n_order, kept, made),) = per_stage
        assert n_order == order and made == 1 + 3 * kept == products


def assert_split_then_fano(result):
    """A split stage of ``result`` is followed by exactly one stage, the
    Q-Fano one, with the same n_order: N_C is isomorphic to N, its own
    ramification subgroup, and fixes no vector of C; the number of split
    stages."""
    stages = result.stages
    splits = [i for i, stage in enumerate(stages) if stage.n_tilde_order is not None]
    for i in splits:
        assert len(stages) == i + 2
        fano = stages[-1]
        assert fano.fano_kappa_check and fano.n_tilde_order is None
        assert fano.n_order == stages[i].n_order == result.fano_part.order
    return len(splits)


class TestStageAfterSplit:
    def test_gallery(self, gallery):
        splits = [assert_split_then_fano(decompose(group))
                  for group in gallery + nonabelian_groups() + [translated_ei_square()]]
        assert sum(splits) > 5 and 0 in splits

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_split_then_fano(decompose(group))


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


def normal_by_generators(generators, subgroup, subgroup_generators, order):
    try:
        check_normal(generators, subgroup, subgroup_generators, order)
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
        gens = [g for g in (random_generator(rng, variety, max_order=12, denoms=(1, 1, 2))
                            for _ in range(rng.randint(1, 2))) if g is not None]
        if not gens:
            continue
        try:
            groups.append(close_group(variety, gens, cap=cap))
        except InputError:
            continue
    return groups


def cyclic_subgroups(elements):
    """Each distinct <x>, with the generators its closure kept."""
    seen = []
    for x in elements:
        sub, kept = close_elements([x])
        if set(sub) not in seen:
            seen.append(set(sub))
            yield sub, kept


@pytest.fixture
def gallery(rot4_square_group, sign_rot4_group, kummer_group, p1_group, bielliptic_group):
    return [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
            bielliptic_group] + random_groups(4861, 25)


class TestGeneratorNormality:
    def test_agrees_with_all_elements_check(self, gallery):
        verdicts = set()
        for group in gallery:
            elements = group.elements
            # G by the input's generators, and by the ones its closure keeps
            generator_sets = [group.generators, close_elements(elements)[1]]
            subgroups = [stage_ramification(elements)]
            subgroups += list(cyclic_subgroups(elements))
            for sub, sub_gens in subgroups:
                want = normal_by_all_elements(elements, sub)
                for gens in generator_sets:
                    assert normal_by_generators(gens, sub, sub_gens, len(elements)) == want
                verdicts.add(want)
        assert verdicts == {True, False}  # both outcomes were exercised

    def test_non_normal_subgroup_raises(self):
        # D4 on E x E: <swap, (-1) x 1>; the reflection (-1) x 1 is not normal
        elements, kept = close_elements([SWAP, FLIP])
        assert len(elements) == 8 and kept == [FLIP, SWAP]
        # the group given only by the generators a closure keeps, as a stage
        # passes it to the next stage's check
        _, kept_from_all = close_elements(elements)
        assert len(kept_from_all) == 3
        sub, _ = close_elements([FLIP])
        for generators in ([SWAP, FLIP], kept, kept_from_all):
            with pytest.raises(CertificateError, match="not normal"):
                check_normal(generators, sub, [FLIP], len(elements))

    def test_witness_named(self):
        elements, kept = close_elements([SWAP, FLIP])
        sub, _ = close_elements([FLIP])
        with pytest.raises(CertificateError) as exc:
            check_normal(kept, sub, [FLIP], len(elements))
        # FLIP normalizes <FLIP>; SWAP conjugates it to 1 x (-1)
        assert str(exc.value) == D4_WITNESS
        assert str(SWAP) == ("x -> [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]] x "
                             "+ [0, 0, 0, 0]")

    def test_inverse_through_powers(self, gallery):
        for group in gallery:
            for g in group.elements:
                assert g.compose(_element_inverse(g, group.order)).is_identity()

    def test_inverse_needs_finite_order(self):
        shift = LatticeElement.of([[1, 1], [0, 1]])  # infinite order
        with pytest.raises(CertificateError, match="^group not closed under inversion$"):
            _element_inverse(shift, 12)


class TestOnePassQuasietale:
    def test_agrees_with_double_loop(self, gallery):
        verdicts = set()
        for group in gallery:
            elements, tables = group.elements, group.tables
            fixed = fixed_solutions(elements, FixedPointSolver())
            subgroups = [n_listed(elements, ramification_on_tables(elements, tables, fixed))]
            if group.order <= 8:
                subgroups += [sub for sub, _ in cyclic_subgroups(elements)]
            number = {e: x for x, e in enumerate(elements)}
            for sub in subgroups:
                want = quasietale_outside_by_pairs(elements, sub)
                members = {number[x] for x in sub}
                assert lattice_quasietale_outside(members, fixed) == want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestPrunedClosure:
    def test_same_set_as_unpruned_bfs(self, gallery):
        rng = random.Random(7)
        for group in gallery:
            elements = group.elements
            reflections = [e for e in elements if fixed_dim(e) == e.rank // 2 - 1]
            for gens in (elements, reflections, rng.sample(elements, min(3, len(elements)))):
                if gens:
                    assert set(close_elements(gens)[0]) == set(unpruned_closure(gens))

    def test_redundant_generators_skipped(self, monkeypatch):
        rot = LatticeElement.of([[0, -1], [1, 0]])
        minus_one = LatticeElement.of([[-1, 0], [0, -1]])
        powers = unpruned_closure([rot])
        used = []

        def recording(identity, gens, cap, overflow):
            used.extend(gens)
            return bfs_closure(identity, gens, cap, overflow)

        monkeypatch.setattr(decompose_module, "bfs_closure", recording)
        closed, kept = close_elements(powers)
        assert set(closed) == set(powers)
        # in sort order -1 comes first and rot is kept next; rot^3 and the
        # identity are already in the closure, never kept and never used
        assert kept == [minus_one, rot]
        assert set(used) == {minus_one, rot}


# ---------------------------------------------------------------------------
# the extension certificate of N-tilde against the enumeration it replaces

def n_tilde_verdict(m, lifts, ker_generators):
    try:
        _check_n_tilde_group(m, lifts, ker_generators)
    except CertificateError as exc:
        assert str(exc).startswith("N-tilde is not an extension of N by ker mu: ")
        return False
    return True


def recorded_n_tilde(monkeypatch, run):
    """(split arguments, (m, lifts, ker mu generators)) of each split made
    while ``run()`` runs, the second what ``_check_n_tilde_group``
    certified."""
    splits, checks = [], []

    def recording_split(*args):
        splits.append(args)
        return split_action(*args)

    def recording(m, lifts, ker_generators):
        checks.append((m, list(lifts), list(ker_generators)))
        return _check_n_tilde_group(m, lifts, ker_generators)

    monkeypatch.setattr(decompose_module, "split_action", recording_split)
    monkeypatch.setattr(decompose_module, "_check_n_tilde_group", recording)
    run()
    monkeypatch.undo()
    assert len(splits) == len(checks)
    return list(zip(splits, checks))


def shifted(t, point):
    """t with its translation moved by ``point``."""
    return LatticeElement(t.matrix, t.translation + point)


def doubled(t, b_rank):
    """t with the C block of its matrix, W|_C, doubled."""
    return LatticeElement(t.matrix[:b_rank] + tuple(
        row[:b_rank] + tuple(2 * x for x in row[b_rank:]) for row in t.matrix[b_rank:]),
        t.translation)


def third(n):
    """1/3 in the last of n coordinates, in gamma."""
    return TorsionPoint.over([0] * (n - 1) + [1], 3)


class TestGeneratorNTilde:
    def test_every_mutation_raises(self, monkeypatch):
        # the lift of -swap moved by each point of order 2 of the torus: it
        # is another lift iff the point is in ker mu, of order 4; and the
        # lift with W|_C doubled
        ((args, (m, lifts, ker_generators)),) = recorded_n_tilde(
            monkeypatch, lambda: decompose_module.split_action(*glue_split()))
        assert len(lifts) == 1 and len(ker_generators) == 2
        ((g, lift),) = lifts
        n_elements = close_elements(args[1])[0]
        kernel = {t.translation for t in enumerated_n_tilde(n_elements, args[2], args[3])[g]}
        kernel = {p - lift.translation for p in kernel}
        points = [TorsionPoint.over(num, 2) for num in itertools.product((0, 1), repeat=4)]
        for point in points:
            assert n_tilde_verdict(m, [(g, shifted(lift, point))],
                                   ker_generators) == (point in kernel)
        assert len(kernel) == 4 and len(points) == 16
        assert not n_tilde_verdict(m, [(g, doubled(lift, args[2].rank))], ker_generators)

    def test_witness_named(self, monkeypatch):
        ((args, (m, lifts, ker_generators)),) = recorded_n_tilde(
            monkeypatch, lambda: decompose_module.split_action(*glue_split()))
        ((g, lift),) = lifts
        for point in (third(4), TorsionPoint.over((1, 0, 0, 0), 2)):
            with pytest.raises(CertificateError) as exc:
                _check_n_tilde_group(m, [(g, shifted(lift, point))], ker_generators)
            assert str(exc.value) == ("N-tilde is not an extension of N by ker mu: "
                                      f"{shifted(lift, point)} does not lift generator {g} "
                                      "of N")
        with pytest.raises(CertificateError) as exc:
            _check_n_tilde_group(m, [(g, doubled(lift, args[2].rank))], ker_generators)
        assert str(exc.value) == (f"N-tilde is not an extension of N by ker mu: the lift "
                                  f"{doubled(lift, args[2].rank)} of generator {g} of N moves "
                                  "[1/2, 0, 1/2, 0] off ker mu")

    def test_agrees_with_enumeration(self, monkeypatch, gallery):
        # on every split stage the certified lifts and ker mu generators
        # generate the enumerated N-tilde, and a lift changed by a
        # translation or by a doubled W|_C passes the certificate iff it is
        # one of the enumerated lifts of its generator
        groups = gallery + nonabelian_groups() + [translated_ei_square()]
        calls = recorded_n_tilde(monkeypatch, lambda: [decompose(g) for g in groups])
        assert len(calls) > 5 and max(len(ks) for _, (_, _, ks) in calls) == 2
        verdicts = set()
        for (_, n_generators, b, c, _), (m, lifts, ker_generators) in calls:
            n_elements = close_elements(n_generators)[0]
            enumerated = enumerated_n_tilde(n_elements, b, c)
            n_tilde = [t for g in n_elements for t in enumerated[g]]
            (one,) = [g for g in n_elements if g.is_identity()]
            kernel = [t.translation for t in enumerated[one]]
            translations = [LatticeElement(t.matrix, k) for t in enumerated[one][:1]
                            for k in ker_generators]
            assert generated_group(n_tilde, [lift for _, lift in lifts] + translations)
            assert n_tilde_verdict(m, lifts, ker_generators)
            for x, (g, lift) in enumerate(lifts):
                changed = [shifted(lift, k) for k in kernel + [third(lift.rank)]]
                wants = [mutant in enumerated[g] for mutant in changed]
                # W|_C doubled keeps ker mu iff it maps each point into it
                mutant = doubled(lift, b.rank)
                changed.append(mutant)
                wants.append(all(k.apply_matrix(mutant.matrix).apply_matrix(m).is_zero()
                                 for k in kernel))
                for mutant, want in zip(changed, wants):
                    assert n_tilde_verdict(m, lifts[:x] + [(g, mutant)] + lifts[x + 1:],
                                           ker_generators) == want
                    verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["sym-5-120", "sym-6-720", "glue-2-5184"])
    def test_split_inputs(self, name, monkeypatch):
        # the enumerating check on the split inputs pinned by digest, whose
        # N-tilde has up to 25920 elements
        document = SPLIT[name][0]
        group = close_group(*parse_input(json.dumps(document()))[:2])
        ((args, _),) = recorded_n_tilde(monkeypatch, lambda: decompose(group))
        n_order, n_generators, b, c, ker_mu = args
        n_elements = close_elements(n_generators)[0]
        assert len(n_elements) == n_order
        assert (ker_mu, n_order * ker_mu) == SPLIT[name][2]
        assert_enumerated_n_tilde(n_elements, n_generators, b, c, n_order * ker_mu)


# ---------------------------------------------------------------------------
# rank-first fixed loci against a solve of every element

def solve_every_element(elements):
    """Reference: the fixed-locus solve of every nontrivial element, keyed
    by its number, its position in ``elements``."""
    return {x: solve_affine_mod_lattice(identity_minus(e.matrix),
                                        e.translation)
            for x, e in enumerate(elements) if not e.is_identity()}


def stage_readings(elements, tables, fixed):
    """N, the quasietale-outside-N verdict and kappa of N, from ``fixed``;
    kappa of N is also read off the solves of N's elements alone."""
    ramification = ramification_on_tables(elements, tables, fixed)
    sub, members = n_listed(elements, ramification), ramification[1]
    n2 = elements[0].rank
    kappa = lattice_kappa(fixed.values(), n2)
    assert kappa == subtorus_kappa([fixed[x].kernel for x in members if x in fixed], n2)
    return sub, lattice_quasietale_outside(members, fixed), kappa


def assert_rank_first_matches_every_solve(elements, tables):
    """The stage map is exactly the divisors: the solves of every element
    whose fixed locus is nonempty of complex dimension n - 1."""
    fixed = fixed_solutions(elements, FixedPointSolver())
    every = solve_every_element(elements)
    n = elements[0].rank // 2
    divisors = {x: sol for x, sol in every.items() if sol.nonempty and sol.dim == n - 1}
    assert fixed == divisors
    for x, sol in every.items():
        if sol.nonempty and x not in fixed:
            # a fixed locus of codimension >= 2: rank(I - W) >= 3
            e = elements[x]
            assert matrix_rank(identity_minus(e.matrix)) > 2
    assert stage_readings(elements, tables, fixed) == stage_readings(elements, tables, divisors)


class TestRankFirstSolves:
    def test_gallery(self, monkeypatch, gallery):
        stages = recorded_table_stages(monkeypatch, gallery + nonabelian_groups())
        assert len(stages) > len(gallery)  # lower stages were reached
        for elements, _, tables in stages:
            assert_rank_first_matches_every_solve(elements, tables)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_rank_first_matches_every_solve(group.elements, group.tables)

    def test_non_complex_reflection_is_solved(self):
        # diag(-1, 1, 1, 1) on Z^4 is not complex: rank(I - W) = 1, and its
        # fixed hyperplanes are divisors of the stage, so the filter is
        # rank <= 2; diag(-1, 1) on Z^2 is solved with no rank taken
        for n2 in (4, 2):
            flip = LatticeElement.of([[-1 if i == j == 0 else int(i == j) for j in range(n2)]
                                      for i in range(n2)])
            elements, _, tables = close_with_tables([flip])
            fixed = fixed_solutions(elements, FixedPointSolver())
            ((x, sol),) = fixed.items()
            assert elements[x] == flip and sol.dim == n2 // 2 - 1
            assert_rank_first_matches_every_solve(elements, tables)


def assert_class_divisors_match(elements, tables):
    """The divisors a stage decides once per class of its certified
    partition are the keys of ``fixed_solutions``, which asks and solves
    every element, and there are none when no holonomy passes the trace
    pre-screen; and kappa over the solves of N's kept generators, as
    the Q-Fano stage reads it, is kappa over every divisor: both
    intersections are Fix(N)."""
    solver = FixedPointSolver()
    fixed = fixed_solutions(elements, FixedPointSolver())
    divisors = class_divisors(elements, certified_class_rep(elements, tables), solver)
    assert divisors == sorted(fixed)
    # the trace pre-screen rules out only stages with no divisor
    assert may_have_divisors(elements) or not fixed
    kept = ramification_on_tables(elements, tables, divisors)[0]
    n2 = elements[0].rank
    if kept:
        assert lattice_kappa([element_fixed_solution(g, solver) for g in kept], n2) == \
            lattice_kappa(fixed.values(), n2)
    return bool(kept) and fixed_lattice([g.matrix for g in kept], n2).rank == 0


def document_group(doc):
    return close_group(*parse_input(json.dumps(doc))[:2])


class TestClassDivisors:
    def test_every_stage(self, monkeypatch, gallery):
        groups = gallery + nonabelian_groups() + [translated_ei_square()]
        groups += [document_group(doc) for doc, _ in RAMIFIED_CM_DOCS.values()]
        groups += [document_group(doc) for doc in (
            symmetric_document(5), symmetric_document(6), glue_document(),
            translated_sl_diag_document())]
        assert [len(g.elements) for g in groups[-4:]] == [120, 720, 5184, 6912]
        stages = recorded_table_stages(monkeypatch, groups)
        fano = [assert_class_divisors_match(elements, tables) for elements, _, tables in stages]
        # both Q-Fano stages, whose kappa is read off N's kept generators,
        # and other stages are reached
        assert 0 < sum(fano) < len(stages)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_class_divisors_match(group.elements, group.tables)

    def test_classes_certified_on_tables(self, gallery):
        # the certified partition is the oracle's, and the walk's records
        # reach every element from its class's first element
        for group in gallery + nonabelian_groups():
            rep = certified_class_rep(group.elements, group.tables)
            assert rep == union_find_class_rep(group)
            walk = group.tables.classes
            assert sorted(walk.reached) == list(range(group.order))
            assert all((walk.conjugator[v] == v) == (rep[v] == v) for v in range(group.order))


class TestKeptGeneratorsInvariantTorus:
    def test_matches_every_holonomy(self, monkeypatch, gallery):
        found = []

        def recording(elements, tables, fixed):
            ramification = ramification_on_tables(elements, tables, fixed)
            found.append((n_listed(elements, ramification), ramification[0]))
            return ramification

        monkeypatch.setattr(decompose_module, "ramification_on_tables", recording)
        for group in gallery + nonabelian_groups():
            decompose(group)
        fewer = 0
        for sub, kept in found:
            holonomies = list(dict.fromkeys(e.matrix for e in sub))
            n2 = sub[0].rank
            assert fixed_lattice([e.matrix for e in kept], n2) == fixed_lattice(holonomies, n2)
            fewer += len(kept) < len(holonomies) - 1
        assert fewer  # some N has fewer kept generators than nontrivial holonomies


# ---------------------------------------------------------------------------
# N closed and certified normal on a stage's closure tables, against the
# element-wise closure and conjugation they replace

def recorded_table_stages(monkeypatch, groups):
    """(elements, generators, tables) of every stage of the decompositions
    of ``groups``: the top stage's, and after a split N_C's, the closure
    of the restrictions of N's kept generators, which no command makes,
    with the generators that closure kept and its tables."""
    stages = []
    level = decompose_module._decompose_level

    def recording(elements, generators, tables, *rest):
        stages.append((elements, generators, tables))
        return level(elements, generators, tables, *rest)

    def recording_split(*args):
        out = split_action(*args)
        n_c, kept, tables = close_with_tables(out[1])
        stages.append((tuple(n_c), tuple(kept), tables))
        return out

    monkeypatch.setattr(decompose_module, "_decompose_level", recording)
    monkeypatch.setattr(decompose_module, "split_action", recording_split)
    for group in groups:
        decompose(group)
    monkeypatch.undo()
    return stages


def table_subgroup(elements, tables, gens):
    """``ramification_on_tables`` of <gens>: a fixed map in which each of
    ``gens``, and nothing else, fixes a divisor."""
    number = {e: x for x, e in enumerate(elements)}
    return ramification_on_tables(elements, tables, dict.fromkeys(number[g] for g in gens))


def assert_table_closure_matches(elements, tables, gens):
    """The table closure of <gens> is ``close_elements(gens)``: the same
    kept generators, with the same numbers, and the same set of elements,
    numbered without repeats; the permutations of the kept generators, the
    ones the search steps by, are left multiplications."""
    kept, members, numbers = table_subgroup(elements, tables, gens)
    n_sub = [elements[x] for x in sorted(members)]
    closed, want_kept = close_elements(gens) if gens else ([elements[0]], [])
    assert elements[0].is_identity()
    assert kept == want_kept and len(n_sub) == len(closed) and set(n_sub) == set(closed)
    number = {e: x for x, e in enumerate(elements)}
    assert numbers == [number[h] for h in want_kept]
    for h, g in zip(kept, numbers):
        perm = tables.left(g)
        assert sorted(perm) == list(range(len(elements)))
        assert all(elements[perm[number[x]]] == h.compose(x) for x in n_sub)


def normality_verdict(check, *args):
    """None when ``check(*args)`` passes, else its failure message."""
    try:
        check(*args)
    except CertificateError as exc:
        return str(exc)
    return None


def assert_table_normality_matches(elements, generators, tables, subgroups):
    """The table check and ``check_normal`` agree on each subgroup, a
    ``ramification_on_tables`` result, witness text included; the set of
    verdicts."""
    verdicts = set()
    for sub in subgroups:
        want = normality_verdict(check_normal, generators, n_listed(elements, sub), sub[0],
                                 len(elements))
        assert normality_verdict(check_normal_on_tables, elements, generators, tables,
                                 sub) == want
        verdicts.add(want is None)
    return verdicts


def reflections_of(elements):
    return [elements[x] for x in fixed_solutions(elements, FixedPointSolver())]


class TestTableRamification:
    def test_every_stage(self, monkeypatch, gallery):
        stages = recorded_table_stages(monkeypatch, gallery + nonabelian_groups())
        assert len(stages) > len(gallery)  # lower stages were reached
        rng = random.Random(16)
        for elements, generators, tables in stages:
            assert_table_closure_matches(elements, tables, reflections_of(elements))
            assert_table_closure_matches(elements, tables, rng.sample(elements, 2)
                                         if len(elements) > 1 else [])
            n_sub = ramification_on_tables(elements, tables,
                                           fixed_solutions(elements, FixedPointSolver()))
            assert assert_table_normality_matches(elements, generators, tables, [n_sub]) \
                == {True}

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        elements = group.elements
        assert_table_closure_matches(elements, group.tables,
                                     reflections_of(elements))
        assert_table_closure_matches(elements, group.tables, elements)
        subgroups = [table_subgroup(elements, group.tables, [x]) for x in elements]
        assert_table_normality_matches(elements, group.generators,
                                       group.tables, subgroups)


class TestPositionNumbering:
    """Every stage's closure tables, N_C's from the closure of the
    restrictions of N's kept generators, number each element by its
    position: columns, BFS tree, left and right multiplications against
    compositions."""

    def test_every_stage(self, monkeypatch, gallery):
        groups = gallery + nonabelian_groups()
        stages = recorded_table_stages(monkeypatch, groups)
        assert len(stages) > len(groups)  # lower stages were reached
        for elements, generators, tables in stages:
            assert_tables(elements, generators, tables)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        with pytest.MonkeyPatch.context() as patch:
            stages = recorded_table_stages(patch, [group])
        for elements, generators, tables in stages:
            assert_tables(elements, generators, tables)


class TestRowTableClosureOnStages:
    """``bfs_closure`` on the lattice elements of every stage, N_C's on C
    from the restrictions of N's kept generators, against the product
    closure: the stage's
    generators with its order and one less as the cap, and a few of its
    elements as generators."""

    @staticmethod
    def assert_matches(stages, rng):
        for elements, generators, _ in stages:
            identity = LatticeElement.of(identity_matrix(elements[0].rank))
            for cap in (len(elements), len(elements) - 1):
                assert_closure_matches_product_closure(identity, list(generators), cap)
            some = sorted(set(rng.choices(elements, k=3)), key=LatticeElement.sort_key)
            assert_closure_matches_product_closure(identity, some, len(elements))

    def test_every_stage(self, monkeypatch, gallery):
        groups = gallery + nonabelian_groups()
        stages = recorded_table_stages(monkeypatch, groups)
        assert len(stages) > len(groups)  # lower stages were reached
        self.assert_matches(stages, random.Random(21))

    @ORACLE
    @given(small_groups(), st.integers(0, 2 ** 32 - 1))
    def test_random_groups(self, group, seed):
        with pytest.MonkeyPatch.context() as patch:
            stages = recorded_table_stages(patch, [group])
        self.assert_matches(stages, random.Random(seed))


class TestTableNormality:
    def test_agrees_with_conjugation(self, gallery):
        verdicts = set()
        rng = random.Random(61)
        for group in gallery + nonabelian_groups():
            elements = group.elements
            subgroups = [table_subgroup(elements, group.tables, [x]) for x in elements]
            subgroups += [table_subgroup(elements, group.tables,
                                         rng.sample(elements, min(2, len(elements))))
                          for _ in range(5)]
            verdicts |= assert_table_normality_matches(
                elements, group.generators, group.tables, subgroups)
        assert verdicts == {True, False}  # both outcomes were exercised

    def test_failure_never_passes(self, monkeypatch):
        # the table check fails, and names its witness, with no help from
        # the element-wise check, an inverse or a product
        elements, kept, tables = close_with_tables([SWAP, FLIP])
        sub = table_subgroup(elements, tables, [FLIP])

        def refuse(*args):
            raise AssertionError("called by the table check")

        for name in ("check_normal", "_element_inverse"):
            monkeypatch.setattr(decompose_module, name, refuse)
        monkeypatch.setattr(action, "affine_product", refuse)
        with pytest.raises(CertificateError) as exc:
            check_normal_on_tables(elements, kept, tables, sub)
        assert str(exc.value) == D4_WITNESS

    def test_d4_reflection_not_normal(self):
        # D4 on E x E: <swap, (-1) x 1>; <(-1) x 1> is not normal, and the
        # witness is the one check_normal names
        elements, kept, tables = close_with_tables([SWAP, FLIP])
        sub = table_subgroup(elements, tables, [FLIP])
        assert (n_listed(elements, sub), sub[0]) == close_elements([FLIP])
        with pytest.raises(CertificateError) as exc:
            check_normal_on_tables(elements, kept, tables, sub)
        assert str(exc.value) == D4_WITNESS
        # the signs (+-1) x (+-1) form a normal subgroup of index 2
        check_normal_on_tables(elements, kept, tables,
                               table_subgroup(elements, tables, [FLIP, FLIP_SECOND]))


class CountedProducts:
    """Counts the affine products made while installed: those of
    compositions, since a closure makes none."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = action.affine_product

        def counting(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(action, "affine_product", counting)


class TestTableClosureMakesNoProduct:
    def test_no_affine_product(self, monkeypatch, gallery):
        text = json.dumps(diag_perm_document("zeta4"))
        groups = gallery + nonabelian_groups() + [close_group(*parse_input(text)[:2])]
        stages = recorded_table_stages(monkeypatch, groups)
        assert max(len(elements) for elements, _, _ in stages) == 192
        for elements, generators, tables in stages:
            fixed = fixed_solutions(elements, FixedPointSolver())
            products = CountedProducts(monkeypatch)
            sub = ramification_on_tables(elements, tables, fixed)
            check_normal_on_tables(elements, generators, tables, sub)
            assert products.calls == 0
            # the counter sees a direct composition of the same elements
            elements[-1].compose(elements[-1])
            assert products.calls == 1
            monkeypatch.undo()

    def test_failing_check_makes_no_product(self, monkeypatch):
        # D4 with N = <(-1) x 1>, not normal: the witness is named from the
        # tables alone
        elements, kept, tables = close_with_tables([SWAP, FLIP])
        products = CountedProducts(monkeypatch)
        sub = table_subgroup(elements, tables, [FLIP])
        with pytest.raises(CertificateError) as exc:
            check_normal_on_tables(elements, kept, tables, sub)
        assert products.calls == 0
        assert str(exc.value) == normality_verdict(check_normal, kept, n_listed(elements, sub),
                                                   [FLIP], len(elements)) == D4_WITNESS


class TestStagesHashNoElement:
    def test_no_element_hashed(self, monkeypatch, gallery):
        # each stage's maps and certificates are keyed by the numbers of its
        # closure tables, so no element is hashed
        stages = recorded_table_stages(monkeypatch, gallery + nonabelian_groups())
        hashed = []
        original = LatticeElement.__hash__

        def counting(element):
            hashed.append(element)
            return original(element)

        monkeypatch.setattr(LatticeElement, "__hash__", counting)
        for elements, generators, tables in stages:
            fixed = fixed_solutions(elements, FixedPointSolver())
            ramification = ramification_on_tables(elements, tables, fixed)
            check_normal_on_tables(elements, generators, tables, ramification)
            assert lattice_quasietale_outside(ramification[1], fixed)
            lattice_kappa(fixed.values(), elements[0].rank)
        assert hashed == []
        # the counter sees the top stage's elements, which are automorphisms
        hash(stages[0][0][0])
        assert hashed == [stages[0][0][0]]


class CountedSnf:
    """Counts the Smith forms computed while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = linalg.snf

        def counting(matrix):
            self.calls += 1
            return original(matrix)

        monkeypatch.setattr(linalg, "snf", counting)


class TestSnfCounts:
    def test_special_linear_decompose_makes_none(self, monkeypatch):
        # no element of SL-diag by the cycle (order 108) is a
        # quasi-reflection: every rank(I - W) is at least 3
        group = close_group(*parse_input(json.dumps(sl_diag_document("zeta6", cycle=True)))[:2])
        assert group.order == 108
        snf = CountedSnf(monkeypatch)
        result = decompose(group)
        assert result.is_q_abelian
        assert snf.calls == 0

    def test_split_action_two_per_stage(self, monkeypatch, gallery):
        snf = CountedSnf(monkeypatch)
        per_stage = []

        def counted_split(n_order, *args):
            before = snf.calls
            out = split_action(n_order, *args)
            per_stage.append((n_order, snf.calls - before))
            return out

        monkeypatch.setattr(decompose_module, "split_action", counted_split)
        for group in gallery + nonabelian_groups():
            decompose(group)
        # the Smith form of [B^T C^T] gives ker mu, and that of C^T every
        # restriction to C
        assert max(order for order, _ in per_stage) > 2
        assert all(calls == 2 for _, calls in per_stage)


class TestTopStageReadsTheGroup:
    def test_group_elements_handed_over(self, monkeypatch, gallery):
        # the top stage is the group's own element and generator tuples,
        # and no LatticeElement is built before a split needs its lifts
        built, splits, levels = [], [], []
        init, split, level = (LatticeElement.__init__, decompose_module.split_action,
                              decompose_module._decompose_level)

        def counted_init(element, *args):
            built.append(element)
            init(element, *args)

        def recording_split(*args):
            splits.append(len(built))
            return split(*args)

        def recording_level(*args):
            levels.append(args[:2])
            return level(*args)

        monkeypatch.setattr(LatticeElement, "__init__", counted_init)
        monkeypatch.setattr(decompose_module, "split_action", recording_split)
        monkeypatch.setattr(decompose_module, "_decompose_level", recording_level)
        outcomes = set()
        for group in gallery + nonabelian_groups():
            del built[:], splits[:], levels[:]
            decompose(group)
            elements, generators = levels[0]
            assert elements is group.elements and generators is group.generators
            assert (splits[0] if splits else len(built)) == 0
            outcomes.add(bool(splits))
        assert outcomes == {True, False}
