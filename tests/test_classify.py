import importlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given

from fqav.action import close_group, fixed_locus, mat_eq_identity, pointwise_stabilizer
from fqav.cli import build_report, parse_input
from fqav.classify import Analysis, irregularity, reid_tai
from fqav.errors import InputError
from fqav.linalg import FixedPointSolver, Lattice, mat_vec
from fqav.variety import SubtorusTranslate

from conftest import element_age, nontrivial_elements
from oracles import conductor_age, group_field
from test_acceptance import random_generator, random_variety
from test_action import ORACLE, nonabelian_groups, small_groups
from test_cli import count_calls
from test_golden import sl_diag_document, translated_sl_diag_document

# the module, whose ``reid_tai`` reads ``age`` by name
classify_module = importlib.import_module("fqav.classify")


class TestQuasietale:
    def test_isolated_fixed_points_pass(self, rot4_square_group, kummer_group):
        assert not Analysis(rot4_square_group).ramification.components
        assert not Analysis(kummer_group).ramification.components

    def test_free_action_passes(self, bielliptic_group):
        assert not Analysis(bielliptic_group).ramification.components

    def test_divisorial_fixing_fails(self, sign_rot4_group, p1_group):
        assert Analysis(sign_rot4_group).ramification.components
        assert Analysis(p1_group).ramification.components


class TestRamification:
    def test_quasietale_has_no_components(self, kummer_group, bielliptic_group):
        for group in (kummer_group, bielliptic_group):
            data = Analysis(group).ramification
            assert data.components == ()
            assert data.orbits == ()

    def test_curve_times_torsion_components(self, sign_rot4_group):
        data = Analysis(sign_rot4_group).ramification
        assert len(data.components) == 4
        assert data.indices == (2, 2, 2, 2)
        assert data.orbits == ((0,), (1, 2), (3,))
        assert data.boundary_coeffs == (Fraction(1, 2),) * 3
        assert data.intersection_dim == 1

    def test_single_factor_branch_points(self, p1_group):
        data = Analysis(p1_group).ramification
        # branch points of E_i -> E_i/<i> = P^1
        assert all(c.dim == 0 for c in data.components)
        assert data.intersection_dim == 0
        assert set(data.indices) <= {2, 4}

    def test_orbit_sum_covers_components(self, sign_rot4_group, p1_group):
        for group in (sign_rot4_group, p1_group):
            data = Analysis(group).ramification
            flat = sorted(i for orbit in data.orbits for i in orbit)
            assert flat == list(range(len(data.components)))

    def test_indices_constant_on_orbits(self, sign_rot4_group, p1_group):
        for group in (sign_rot4_group, p1_group):
            data = Analysis(group).ramification
            for orbit in data.orbits:
                assert len({data.indices[i] for i in orbit}) == 1


class TestKappa:
    def test_values(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                    bielliptic_group):
        assert Analysis(rot4_square_group).kappa == (0, False)
        assert Analysis(sign_rot4_group).kappa == (1, False)
        assert Analysis(kummer_group).kappa == (0, False)
        assert Analysis(p1_group).kappa == (1, True)
        assert Analysis(bielliptic_group).kappa == (0, False)


class TestReidTai:
    def test_small_age_witness(self, rot4_square_group):
        holds, witness, witness_age = reid_tai(rot4_square_group)
        assert not holds
        assert witness is not None
        assert element_age(witness, rot4_square_group.variety) < 1
        assert witness_age == element_age(witness, rot4_square_group.variety)

    def test_kummer_holds(self, kummer_group):
        holds, witness, witness_age = reid_tai(kummer_group)
        assert holds and witness is None and witness_age is None

    def test_free_action_holds_vacuously(self, bielliptic_group):
        holds, witness, witness_age = reid_tai(bielliptic_group)
        assert holds and witness is None and witness_age is None


class TestIrregularity:
    def test_values(self, rot4_square_group, sign_rot4_group, kummer_group, bielliptic_group):
        assert irregularity(rot4_square_group) == 0
        assert irregularity(sign_rot4_group) == 0
        assert irregularity(kummer_group) == 0
        assert irregularity(bielliptic_group) == 1


class TestReports:
    def test_rot4_square(self, rot4_square_group):
        r = Analysis(rot4_square_group).classification
        assert r.n == 2 and r.group_order == 4
        assert r.quasietale and r.q_abelian
        assert r.kappa_anticanonical == 0 and not r.q_fano
        assert r.q_x == 0 and r.q_circle == 2
        assert not r.reid_tai_holds
        assert r.uniruled is True
        assert r.canonical is False and r.kappa_zero is False
        assert r.polarized_endo_m == 2

    def test_sign_rot4(self, sign_rot4_group):
        r = Analysis(sign_rot4_group).classification
        assert not r.quasietale and not r.q_abelian
        assert r.kappa_anticanonical == 1 and not r.q_fano
        assert r.q_x == 0 and r.q_circle == 1
        assert r.uniruled is True and r.canonical is None
        assert r.kappa_zero is False
        assert r.polarized_endo_m == 2

    def test_kummer(self, kummer_group):
        r = Analysis(kummer_group).classification
        assert r.quasietale and r.q_abelian
        assert r.reid_tai_holds
        assert r.uniruled is False
        assert r.canonical is True and r.kappa_zero is True
        assert r.q_x == 0 and r.q_circle == 2

    def test_p1(self, p1_group):
        r = Analysis(p1_group).classification
        assert not r.quasietale
        assert r.q_fano and r.fano_type
        assert r.kappa_anticanonical == 1
        assert r.q_circle == 0
        assert r.uniruled is True

    def test_bielliptic(self, bielliptic_group):
        r = Analysis(bielliptic_group).classification
        assert r.quasietale and r.q_abelian
        assert r.reid_tai_holds and r.kappa_zero is True
        assert r.q_x == 1 and r.q_circle == 2
        assert r.polarized_endo_m == 3
        assert r.notes == ()

    def test_cross_checks_always_pass_on_gallery(self, rot4_square_group, sign_rot4_group,
                                                 kummer_group, p1_group,
                                                 bielliptic_group):
        for group in (rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group):
            r = Analysis(group).classification
            assert r.quasietale == (r.q_circle == r.n)
            assert r.q_fano == (r.q_circle == 0)
            assert r.kappa_anticanonical + r.q_circle >= r.n


def oracle_groups(fixture_groups, count=50):
    """The fixture groups plus random groups drawn as in acceptance
    criterion 8."""
    rng = random.Random(4861)
    groups = list(fixture_groups)
    while len(groups) < len(fixture_groups) + count:
        variety = random_variety(rng)
        gens = [g for g in (random_generator(rng, variety, max_order=12,
                                             denoms=(1, 1, 2))
                            for _ in range(rng.randint(1, 2))) if g is not None]
        if not gens:
            continue
        try:
            groups.append(close_group(variety, gens, cap=48))
        except InputError:
            continue
    return groups


def image_key(g, comp):
    rho = g.matrix
    lat = Lattice.from_vectors(comp.lattice.ambient_rank,
                               [mat_vec(rho, v) for v in comp.lattice.basis_rows()])
    return SubtorusTranslate(lat, comp.translate.apply_matrix(rho)
                             + g.translation).canonical_key()


class TestRamificationOracle:
    @pytest.fixture
    def groups(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
               bielliptic_group):
        return oracle_groups([rot4_square_group, sign_rot4_group, kummer_group,
                              p1_group, bielliptic_group])

    def test_indices_are_pointwise_stabilizer_orders(self, groups):
        ramified = 0
        for group in groups:
            data = Analysis(group).ramification
            assert data.indices == tuple(pointwise_stabilizer(comp, group)[1]
                                         for comp in data.components)
            ramified += bool(data.components)
        assert ramified >= 5

    def test_orbits_are_orbits_under_every_element(self, groups):
        for group in groups:
            data = Analysis(group).ramification
            position = {comp.canonical_key(): i for i, comp in enumerate(data.components)}
            orbits = set()
            for comp in data.components:
                orbits.add(tuple(sorted({position[image_key(g, comp)]
                                         for g in group.elements})))
            assert list(data.orbits) == sorted(orbits)


# ---------------------------------------------------------------------------
# the per-element loops the class path replaced, kept as the oracle

def reference_is_quasietale(group):
    n = group.variety.n
    for g in nontrivial_elements(group):
        loc = fixed_locus(g, FixedPointSolver())
        if loc.nonempty and loc.dim > n - 2:
            return False
    return True


def reference_reid_tai(group):
    field = group_field(group)
    for g in nontrivial_elements(group):
        if mat_eq_identity(g.matrix) or not fixed_locus(g, FixedPointSolver()).nonempty:
            continue
        g_age = conductor_age(g, group.variety, field)
        if g_age < 1:
            return False, g, g_age
    return True, None, None


def reference_ramification(group):
    """(components, indices): every element's divisorial fixed locus."""
    n = group.variety.n
    by_key = {}
    for g in nontrivial_elements(group):
        loc = fixed_locus(g, FixedPointSolver())
        if loc.dim != n - 1:
            continue
        for rep in loc.representatives:
            comp = SubtorusTranslate(loc.kernel, rep)
            by_key.setdefault(comp.canonical_key(), [comp, 1])[1] += 1
    ordered = sorted(by_key.values(), key=lambda entry: entry[0].sort_key())
    return tuple(c for c, _ in ordered), tuple(e for _, e in ordered)


def assert_class_path_matches_reference(group):
    analysis = Analysis(group)
    assert analysis.divisor_lattices.quasietale == reference_is_quasietale(group)
    assert reid_tai(group) == reference_reid_tai(group)
    data = analysis.ramification
    assert (data.components, data.indices) == reference_ramification(group)
    # the divisor pass's lattices are those of the components
    assert analysis.divisor_lattices.lattices == tuple(sorted(
        {comp.lattice for comp in data.components}, key=lambda lat: lat.basis))


class TestAgesWriteNoRank:
    def test_gallery(self, monkeypatch, rot4_square_group, sign_rot4_group, kummer_group,
                     p1_group, bielliptic_group):
        # an age reads its spectrum mod p and nothing else: the solver's
        # rank verdicts are the same before and after each spectrum reid_tai
        # takes, and each age it reads off one
        original = classify_module.age
        spectra, read = Counter(), Counter()
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + nonabelian_groups()
        for group in groups:
            def checking(g, *args, solver=group.solver, order=group.order):
                before = dict(solver._low_rank)
                ages = original(g, *args)
                assert solver._low_rank == before
                spectra[order] += 1

                def reading(k):
                    out = ages(k)
                    assert solver._low_rank == before
                    read[order] += 1
                    return out

                return reading

            monkeypatch.setattr(classify_module, "age", checking)
            reid_tai(group)
        # the order-108 group reads its 19 class ages off 7 spectra
        assert (spectra[108], read[108]) == (7, 19)
        assert sum(read.values()) > sum(spectra.values())


class TestSpectraPerRootHolonomy:
    @pytest.mark.parametrize("document, spectra", [
        (translated_sl_diag_document(), 15),
        (sl_diag_document("zeta6", cycle=True), 7),
    ], ids=["order-6912", "sl-diag-c3-108"])
    def test_one_spectrum_per_root_holonomy(self, document, spectra, monkeypatch):
        # walk roots of one holonomy matrix share its spectrum.  The order-
        # 6912 group's walk has 24 roots on 16 distinct matrices, classes
        # that share a holonomy but not a translation; Reid-Tai holds, so
        # every class is visited, and the roots it visits hold 15 distinct
        # matrices.  The order-108 group has no translation, so each of its
        # 7 roots is its own matrix
        calls = Counter()
        count_calls(monkeypatch, "age", calls)
        doc = build_report(*parse_input(json.dumps(document)), "reidtai")
        assert doc["reid_tai"]["holds"]
        assert calls == Counter(age=spectra)


class TestClassPathOracle:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        for group in [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                      bielliptic_group] + nonabelian_groups():
            assert_class_path_matches_reference(group)

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_class_path_matches_reference(group)

    def test_one_solve_and_one_age_per_class(self, monkeypatch):
        # the order-108 group has 20 classes, 19 of them nontrivial, against
        # 107 nontrivial elements.  It is special linear, so every age is at
        # least 1 and no fixed locus is solved; and no rank(I - rho) of a
        # class is at most 2, so the quasietale test solves none either.
        # The 19 class ages are read off 7 spectra, one per power walk that
        # starts at a class no earlier walk reached, and make no elimination
        # over Q(zeta_m).
        calls = Counter()
        for func in ("fixed_locus", "age", "kernel_dimension", "snf"):
            count_calls(monkeypatch, func, calls)
        text = json.dumps(sl_diag_document("zeta6", cycle=True))
        doc = build_report(*parse_input(text), "report")
        assert doc["classification"]["group_order"] == 108
        assert doc["classification"]["quasietale"] and doc["reid_tai"]["holds"]
        assert calls == Counter(age=7)
