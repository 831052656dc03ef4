import pathlib
import re
from fractions import Fraction

import pytest

from fqav import (
    AbelianVarietyModel,
    AffineAutomorphism,
    EllipticFactor,
    EndoBlockMatrix,
    TorsionPoint,
    age,
    close_group,
)
from fqav.action import holonomy_order
from fqav.linalg import snf
from fqav.variety import block_pairs

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def generator(rows, translation=None):
    """A generator as ``close_group`` takes it: the holonomy's block rows,
    and the translation's coordinates as a ``TorsionPoint``, None for zero."""
    return rows, None if translation is None else TorsionPoint.of(
        [Fraction(t) for t in translation])


def as_generator(g):
    """The generator pair of the element g: its blocks, read off its
    matrix, and its translation."""
    return block_pairs(g.matrix), g.translation


def element(variety, gen):
    """The element of a group on ``variety`` that the generator pair ``gen``
    is, as ``close_group`` builds it."""
    blocks, trans = gen
    if trans is None:
        trans = TorsionPoint.zero(variety.ambient_rank)
    return AffineAutomorphism(EndoBlockMatrix.from_rows(variety, blocks).matrix, trans)


def identity_blocks(n):
    """The block rows of the identity of a variety of dimension n."""
    return tuple(tuple((int(j == k), 0) for k in range(n)) for j in range(n))


def identity(variety):
    """The identity endomorphism of ``variety``, built by ``from_rows``."""
    return EndoBlockMatrix.from_rows(variety, identity_blocks(variety.n))


def automorphism(variety, rows, translation=None):
    return element(variety, generator(rows, translation))


def holonomy(g, variety):
    """The holonomy of g, an endomorphism of ``variety``, read back off g's
    matrix."""
    return EndoBlockMatrix.from_rows(variety, block_pairs(g.matrix))


def element_age(g, variety):
    """The age of g, an automorphism of ``variety``, by ``age``: its
    function of k at k = 1, for the order of g's holonomy."""
    return age(g, holonomy_order(g.matrix), variety)(1)


def class_ages(group):
    """{first element of each nontrivial class: its age}, each read off the
    spectrum of the root of the ``power_walk`` that reached the class."""
    elements, walk = group.elements, group.power_walk
    ages = {}
    for root, _, d in walk.values():
        if root not in ages:
            ages[root] = age(elements[root], d, group.variety)
    return {c: ages[root](k) for c, (root, k, _) in walk.items() if c}


def nontrivial_elements(group):
    """The group's elements other than the identity, in element order."""
    return [g for g in group.elements if not g.is_identity()]


def elementary_divisors(matrix):
    """The nonzero diagonal entries of the Smith form of ``matrix``."""
    s, _, _ = snf(matrix)
    n = min(len(s), len(s[0]) if s else 0)
    return [s[i][i] for i in range(n) if s[i][i] != 0]


@pytest.fixture
def ei_squared():
    f = EllipticFactor("zeta4")
    return AbelianVarietyModel.of(f, f)


@pytest.fixture
def e_times_ei():
    return AbelianVarietyModel.of(EllipticFactor("generic", "E"),
                                  EllipticFactor("zeta4"))


@pytest.fixture
def rot4_square_group(ei_squared):
    return close_group(ei_squared, [generator([[(0, 1), (0, 0)], [(0, 0), (0, 1)]])])


@pytest.fixture
def sign_rot4_group(e_times_ei):
    return close_group(e_times_ei, [generator([[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])])


@pytest.fixture
def kummer_group():
    variety = AbelianVarietyModel.of(EllipticFactor("generic", "E1"),
                                     EllipticFactor("generic", "E2"))
    return close_group(variety, [generator([[(-1, 0), (0, 0)], [(0, 0), (-1, 0)]])])


@pytest.fixture
def bielliptic_group():
    variety = AbelianVarietyModel.of(EllipticFactor("generic", "E"),
                                     EllipticFactor("generic", "E'"))
    return close_group(variety, [generator([[(1, 0), (0, 0)], [(0, 0), (-1, 0)]],
                                           ["1/2", 0, 0, 0])])


@pytest.fixture
def p1_group():
    variety = AbelianVarietyModel.of(EllipticFactor("zeta4"))
    return close_group(variety, [generator([[(0, 1)]])])


# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion

_CRITERION_TITLES = {
    1: "order-4 diagonal rotation quotient reproduced exactly",
    2: "sign-times-rotation quotient: kappa, decomposition, q-invariants",
    3: "Kummer involution: 16 fixed points, age 1, canonical",
    4: "single-curve rotation quotient is Q-Fano with no abelian factor",
    5: "bielliptic action: free, q(X)=1, multiplication by 3 descends",
    6: "property suite: Smith form contract and brute-force fixed-point counts",
    7: "property suite: spectra, multiplicity pairing, age duality",
    8: "cross-theorem consistency on gallery plus 50 random groups",
}

_criterion_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        num = int(m.group(1))
        _criterion_results[num] = _criterion_results.get(num, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_criterion_results):
        status = "PASS" if _criterion_results[num] else "FAIL"
        terminalreporter.write_line(
            f"  criterion {num}: {status} - {_CRITERION_TITLES[num]}")
