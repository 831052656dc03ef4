"""A metamorphic oracle: the same group presented by other generating sets,
with the generators reversed, a product of two of them added, or one of them
repeated, gives the same quotient.  So every answer that does not depend on
the presentation must be the same: the order, the classification, the
multisets of ramification indices, component dimensions and class ages, the
Reid-Tai verdict and each decomposition stage's orders.  Element order,
lattices and coordinates may change and are not compared, and with them
the Reid-Tai witness, the first failing element in element order."""

import dataclasses
from collections import Counter

from hypothesis import given

from fqav.action import age, close_group, cyclo_field_for
from fqav.classify import Analysis

from test_action import ORACLE, nonabelian_groups, small_groups
from test_decompose import random_groups


def presentations(group):
    """The group's generators three more ways; with one generator, the
    product added is its square."""
    gens = list(group.generators)
    return [gens[::-1], gens + [gens[0].compose(gens[-1])], gens + gens[:1]]


def invariants(group):
    analysis = Analysis(group)
    report = analysis.classification
    classification = {field.name: getattr(report, field.name)
                      for field in dataclasses.fields(report)}
    classification["reid_tai_witness"] = report.reid_tai_witness is None
    ramification = analysis.ramification
    field = cyclo_field_for(group)
    return {
        "order": group.order,
        "classification": classification,
        "indices": Counter(ramification.indices),
        "component_dims": Counter(c.lattice.rank // 2 for c in ramification.components),
        "reid_tai": analysis.reid_tai[0],
        "class_ages": Counter(age(g, field) for g in group.nontrivial_class_reps()),
        "stages": [(s.n_order, s.ker_mu_order, s.n_tilde_order)
                   for s in analysis.decomposition.stages],
    }


def assert_presentations_agree(group):
    """The invariants of ``group``, the same for each presentation."""
    want = invariants(group)
    for gens in presentations(group):
        assert invariants(close_group(gens)) == want, gens
    return want


class TestGeneratorSets:
    def test_gallery(self, rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                     bielliptic_group):
        groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group] + random_groups(4861, 25) + nonabelian_groups()
        readings = [assert_presentations_agree(group) for group in groups]
        # both verdicts and stages below the top were compared
        assert {r["classification"]["quasietale"] for r in readings} == {True, False}
        assert {r["reid_tai"] for r in readings} == {True, False}
        assert max(len(r["stages"]) for r in readings) > 1

    @ORACLE
    @given(small_groups())
    def test_random_groups(self, group):
        assert_presentations_agree(group)
