"""Every cross-check of ``Analysis.classification`` fires, and so do the
certificate checks of ``ramification_data``, ``irregularity``,
``invariant_complement``, ``split_action``, the class partition every
command reads and the decomposition stages.  Each test replaces
one real result upstream of its check, by ``dataclasses.replace`` of a
record, a shifted value or a changed lattice,
vector, form or torsion point, so that the checks before it still pass; the command then
exits 2 with that check's message and prints nothing."""

import dataclasses
import importlib
import json

import pytest

from fqav.action import ClosureTables, LatticeElement
from fqav.cli import main
from fqav.linalg import FixedPointSolver, Lattice, TorsionPoint, identity_matrix

from conftest import FIXTURE_DIR
from test_cli import RAMIFIED_CM_DOCS

# the module whose ``Analysis`` reads these functions by name
classify = importlib.import_module("fqav.classify")
# the module whose stages read these functions by name
decompose = importlib.import_module("fqav.decompose")


def with_fano_rank_2(result):
    """The decomposition with a rank-2 Q-Fano part, so not Q-abelian."""
    fano = dataclasses.replace(result.fano_part, embedding=((1, 0, 0, 0), (0, 1, 0, 0)))
    return dataclasses.replace(result, fano_part=fano)


def abelian_dim(dim):
    return lambda result: dataclasses.replace(result, total_abelian_dim=dim)


# kummer: quasietale, n = q_circle = 2, q_x = 0, kappa 0.  sign-rot4: not
# quasietale, n = 2, q_circle = 1, q_x = 0, kappa 1, not Q-Fano
CROSS_CHECKS = [
    pytest.param("kummer", "decompose", abelian_dim(1),
                 "quasietale flag disagrees with the abelian factor dim", id="quasietale-dim"),
    pytest.param("kummer", "decompose", with_fano_rank_2,
                 "quasietale flag disagrees with the decomposition", id="quasietale-fano"),
    pytest.param("sign-rot4", "decompose", abelian_dim(0),
                 "Q-Fano flag disagrees with the abelian factor dim", id="q-fano-dim"),
    pytest.param("sign-rot4", "decompose", abelian_dim(3),
                 "abelian factor dimension out of range", id="dim-range"),
    pytest.param("kummer", "irregularity", lambda q_x: q_x + 3,
                 "irregularity exceeds the abelian factor dim", id="irregularity"),
    pytest.param("sign-rot4", "ramification_data",
                 lambda data: dataclasses.replace(data, intersection_dim=2),
                 "kappa inconsistent with the abelian factor dim", id="kappa"),
    # sign-rot4 has ramification divisors; doubling the image of each basis
    # vector makes each image lattice index 4 in a component's
    pytest.param("sign-rot4", "mat_vec", lambda v: [2 * x for x in v],
                 "orbit leaves the component set", id="orbit"),
    # bielliptic: q(X) = 1, so its holonomy fixed lattice has rank 2
    pytest.param("bielliptic", "fixed_lattice",
                 lambda lat: Lattice.from_vectors(lat.ambient_rank, lat.basis[:1]),
                 "holonomy fixed space has odd rational dimension", id="odd-fixed-space"),
]


@pytest.mark.parametrize("fixture, name, change, message", CROSS_CHECKS)
def test_cross_check_fires(fixture, name, change, message, monkeypatch, capsys):
    original = getattr(classify, name)
    monkeypatch.setattr(classify, name, lambda *args: change(original(*args)))
    assert main(["classify", str(FIXTURE_DIR / f"{fixture}.json")]) == 2
    assert capsys.readouterr() == ("", f"certificate failure: {message}\n")


# zeta4^3:C2+t decomposes in two stages.  At the first, B is the lattice of
# the third factor, and C the saturation of the images of the I - W over the
# holonomies of N's kept generators, the first two factors
COMPLEMENT_CHECKS = [
    # the zero matrix among the holonomies: its I - W is the identity, so C
    # is the whole lattice
    pytest.param(lambda holonomies: holonomies + [((0,) * 6,) * 6],
                 "complement has wrong rank", id="wrong-rank"),
    # diag(-1, 1, i) in place of the holonomies: C is the first and third
    # factors, which hold B
    pytest.param(lambda holonomies: [((-1, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0),
                                      (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                      (0, 0, 0, 0, 0, -1), (0, 0, 0, 0, 1, 0))],
                 "B + C is not of finite index", id="infinite-index"),
]


@pytest.mark.parametrize("change, message", COMPLEMENT_CHECKS)
def test_complement_check_fires(change, message, tmp_path, monkeypatch, capsys):
    original = decompose.invariant_complement
    monkeypatch.setattr(decompose, "invariant_complement",
                        lambda b, holonomies, solver: original(b, change(holonomies), solver))
    assert run_decompose(RAMIFIED_CM_DOCS["zeta4^3:C2+t"][0], tmp_path, capsys) == (
        2, ("", f"certificate failure: {message}\n"))


def run_decompose(doc, tmp_path, capsys):
    """The exit code of ``decompose`` on ``doc``, and what it printed."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return main(["decompose", str(path)]), capsys.readouterr()


def fixture(name):
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


# diag(i, 1) and the translation by (1/2, 0) on the first factor of E_i^2,
# order 16.  Every element fixing a divisor has holonomy diag(i^k, 1), k != 0,
# so N is the whole group, B the second factor and C the first, and every
# translation lies in C
EI2_DOC = {"factors": [{"cm": "zeta4"}] * 2,
           "generators": [{"holonomy": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]},
                          {"holonomy": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                           "translation": ["1/2", "0", "0", "0"]}]}

# -swap on E^2 translated by (1/3, 0, 1/3, 0), which fixes a divisor: N is
# the whole group of order 2, B the antidiagonal and C the diagonal, and
# ker mu has order 4
GLUE_DOC = {"factors": [{"cm": "generic"}] * 2,
            "generators": [{"holonomy": [[[0, 0], [-1, 0]], [[-1, 0], [0, 0]]],
                            "translation": ["1/3", "0", "1/3", "0"]}]}

# an element t_a . W of EI2_DOC with W = I and a = (1/2, 0, 0, 0)
HALF_TRANSLATION = ("x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] x "
                    "+ [1/2, 0, 0, 0]")


def ei2_element(matrix, translation):
    return f"x -> {matrix} x + [{translation}, 0, 0]"


def not_restricted(translation):
    """The failure of C^T gamma = a on the kept generator of N on EI2_DOC
    with holonomy diag(-1, 1) and first-factor translation ``translation``.
    N's kept generators are diag(-1, 1) untranslated, translated by
    (0, 1/2) and by (1/2, 0), and diag(i, 1), in this order."""
    minus_first = "[[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
    return (f"kept generator {ei2_element(minus_first, translation)} of N does not "
            "restrict to C")


class ChangedGamma:
    """A solution set of ``solve_factored`` as ``split_action`` reads it,
    with its particular solution, the gamma of a restriction t_gamma . W|_C
    to C, changed by ``change``."""

    def __init__(self, sol, change):
        self.sol, self.change = sol, change

    @property
    def particular(self):
        return self.change(self.sol.particular)

    def __getattr__(self, name):
        return getattr(self.sol, name)


def with_gammas(change):
    """``solve_factored``'s result with each gamma it gives changed."""
    return lambda sol: ChangedGamma(sol, change)


def doubled_complement(pair):
    """2C, not saturated, in place of C, and |det(B; 2C)| in place of
    |det(B; C)|, so that the kernel-order check still passes."""
    c, index = pair
    return Lattice(c.ambient_rank, tuple(tuple(2 * x for x in row) for row in c.basis)), \
        2 ** c.rank * index


def with_restrictions(change):
    """``split_action``'s result with the restrictions of N's kept
    generators, N_C's generators, changed."""
    def changed(result):
        n_tilde_order, n_c_generators = result
        return n_tilde_order, change(n_c_generators)
    return changed


# the checks of ``split_action``, each given a changed pair (C, index) of
# ``invariant_complement``, and the stage certificates
DECOMPOSITION_CHECKS = [
    pytest.param(EI2_DOC, "invariant_complement", lambda pair: (pair[0], 2 * pair[1]),
                 "kernel of the addition isogeny has wrong order", id="kernel-order"),
    # with B in place of C, [B^T B^T] has Smith divisors 1, so ker mu has
    # order 1, but the translation by (0, 1/2) of the second kept generator
    # is not in the B-subtorus: C^T gamma = a has no solution
    pytest.param(EI2_DOC, "invariant_complement",
                 lambda pair: (Lattice.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]]), 1),
                 not_restricted("0, 1/2"), id="split"),
    # with the whole lattice as C, index 1, every translation lies in C and
    # [B^T C^T] has Smith divisors 1, so every element restricts, by
    # W|_C = W; but C holds B, which -swap fixes
    pytest.param(GLUE_DOC, "invariant_complement", lambda pair: (Lattice.full(4), 1),
                 "N_C fixes a vector of C", id="c-membership"),
    # each gamma read with its first coordinate 0, so in the set of the
    # gamma (0, 0) and (0, 1/2), which is not closed: the square of
    # t_(0, 1/2) . diag(i, 1) is t_(1/2, 1/2) . diag(-1, 1).  The product
    # C^T gamma = a fails on the first kept generator whose gamma is moved,
    # the one translated by (1/2, 0)
    pytest.param(EI2_DOC, "solve_factored",
                 with_gammas(lambda gamma: TorsionPoint.over((0,) + gamma.num[1:], gamma.den)),
                 not_restricted("1/2, 0"), id="dropped-set"),
    # each gamma read as (gamma_2, gamma_2), so in the subgroup of the 8
    # elements with gamma (0, 0) or (1/2, 1/2): the kept generator
    # translated by (0, 1/2) is read with gamma (1/2, 1/2)
    pytest.param(EI2_DOC, "solve_factored",
                 with_gammas(lambda gamma: TorsionPoint.over(gamma.num[1:] * 2, gamma.den)),
                 not_restricted("0, 1/2"), id="dropped-subgroup"),
    # 2C, which is not saturated, in place of C: every C^T gamma = a still
    # holds for the gamma read, but L = V U[:rank C] is 2 C^T's left inverse
    # times 4, so L W C^T is twice W|_C
    pytest.param(EI2_DOC, "invariant_complement", doubled_complement,
                 "complement is not invariant", id="unsaturated"),
    pytest.param(RAMIFIED_CM_DOCS["zeta4^3:C2+t"][0], "invariant_complement",
                 doubled_complement, "complement is not invariant", id="unsaturated-rank-4"),
    # N replaced by the trivial subgroup, which is normal, but sign-rot4 has
    # divisors outside it
    pytest.param(fixture("sign-rot4"), "ramification_on_tables",
                 lambda ramification: ([], {0}, []),
                 "quotient by the ramification subgroup is not quasietale", id="quasietale"),
    # p1-from-ei is Q-Fano of dimension 1, and its kappa is shifted to 0
    pytest.param(fixture("p1-from-ei"), "subtorus_kappa", lambda kappa: kappa - 1,
                 "final part fails the Q-Fano kappa certificate", id="fano-kappa"),
    # EI2_DOC splits, so its one kappa is that of N_C on C, shifted to 0
    pytest.param(EI2_DOC, "subtorus_kappa", lambda kappa: kappa - 1,
                 "final part fails the Q-Fano kappa certificate", id="fano-kappa-on-c"),
    # the first of the four restrictions of N's kept generators replaced by
    # a translation of C, whose fixed locus is empty
    pytest.param(EI2_DOC, "split_action",
                 with_restrictions(lambda rs: [LatticeElement.of(identity_matrix(2),
                                                                 TorsionPoint.over((1, 0), 2))]
                                   + rs[1:]),
                 "restriction x -> [[1, 0], [0, 1]] x + [1/2, 0] of a kept generator of N "
                 "fixes no divisor of C", id="restriction-divisor"),
    # zeta4^3:C2+t splits with C of rank 4, the first two factors; the
    # restrictions of N's kept generators replaced by -1, whose fixed locus
    # is 16 points, no divisor, and which fixes no vector of C
    pytest.param(RAMIFIED_CM_DOCS["zeta4^3:C2+t"][0], "split_action",
                 with_restrictions(lambda rs: [LatticeElement.of(
                     [[-int(i == j) for j in range(4)] for i in range(4)])]),
                 "restriction x -> [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], "
                 "[0, 0, 0, -1]] x + [0, 0, 0, 0] of a kept generator of N fixes no divisor "
                 "of C", id="restriction-rank"),
    # the four replaced by diag(-1, 1), which fixes a divisor and a vector of C
    pytest.param(EI2_DOC, "split_action",
                 with_restrictions(lambda rs: [LatticeElement.of([[-1, 0], [0, 1]])]),
                 "N_C fixes a vector of C", id="fixed-vector-on-c"),
]


@pytest.mark.parametrize("doc, name, change, message", DECOMPOSITION_CHECKS)
def test_decomposition_check_fires(doc, name, change, message, tmp_path, monkeypatch, capsys):
    original = getattr(decompose, name)
    monkeypatch.setattr(decompose, name, lambda *args: change(original(*args)))
    assert run_decompose(doc, tmp_path, capsys) == (
        2, ("", f"certificate failure: {message}\n"))


# the check C^T gamma = a of ``split_action`` on the translations of the
# four kept generators of N on EI2_DOC, given a changed gamma for each
RESTRICTION_CHECKS = [
    # every gamma read as 0: the restrictions would generate the 4 matrices
    # diag(i^k), a group, but of order 4; the first translated kept
    # generator fails
    pytest.param(lambda gamma: TorsionPoint.zero(2), "0, 1/2", id="lost-gamma"),
    # every gamma shifted by (1/4, 0): the untranslated kept generator's
    # restriction is not, and the restrictions would generate more than N
    pytest.param(lambda gamma: gamma + TorsionPoint.over((1, 0), 4), "0, 0",
                 id="shifted-gamma"),
]


@pytest.mark.parametrize("change, translation", RESTRICTION_CHECKS)
def test_restriction_check_fires(change, translation, tmp_path, monkeypatch, capsys):
    test_decomposition_check_fires(EI2_DOC, "solve_factored", with_gammas(change),
                                   not_restricted(translation), tmp_path, monkeypatch, capsys)


# the class walk itself, which ``ClosureTables.classes`` caches
walk_classes = ClosureTables.classes.func


def with_records(**changes):
    """``ClosureTables.classes`` with entries of the walk's lists replaced:
    each keyword names a list of the ``ClassWalk`` and maps element numbers
    to their new entries."""
    def classes(tables):
        walk = walk_classes(tables)
        for field, entries in changes.items():
            for v, value in entries.items():
                getattr(walk, field)[v] = value
        return walk
    return property(classes)


def not_conjugate(v, first):
    return f"class walk does not conjugate {v} to {first}, the first element of its class"



# sign-rot4 is cyclic of order 4, so each element is its own class
SIGN_ROT4_G = "x -> [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]] x + [0, 0, 0, 0]"
SIGN_ROT4_G2 = "x -> [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]] x + [0, 0, 0, 0]"
# in EI2_DOC's walk, element 1 = diag(i, 1) and element 8 = diag(-i, 1)
# start divisorial classes; 2 and 14, the translations by (1/2, 0) and
# (0, 1/2), form a class, with the record (2, 0) for 14; and 15, the
# translation by (1/2, 1/2), is its own class, reached last
DIAG_I = "[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
DIAG_MINUS_I = "[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
EYE = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"

CLASS_CHECKS = [
    # g, with rank(I - W) = 4, put in the class of g^2, which fixes a
    # curve: g starts its class in the walk, so its record is (g, -1)
    pytest.param(fixture("sign-rot4"), with_records(rep={1: 2}),
                 not_conjugate(SIGN_ROT4_G, SIGN_ROT4_G2), id="joined"),
    # the translation by (1/2, 1/2) put in the class of diag(-i, 1), with
    # the record (8, 0): s_0 v = u s_0 fails
    pytest.param(EI2_DOC, with_records(rep={15: 8}, conjugator={15: 8}, via={15: 0}),
                 not_conjugate(ei2_element(EYE, "1/2, 1/2"), ei2_element(DIAG_MINUS_I, "0, 0")),
                 id="forged-record"),
    # the translation by (0, 1/2) put in the class of diag(i, 1), keeping
    # its true record, whose u is in another class
    pytest.param(EI2_DOC, with_records(rep={14: 1}),
                 not_conjugate(ei2_element(EYE, "0, 1/2"), ei2_element(DIAG_I, "0, 0")),
                 id="relabelled"),
    # both translations put in that class, each recorded as the other's
    # conjugate by s_0: true conjugations, which reach no element of it
    pytest.param(EI2_DOC, with_records(rep={2: 1, 14: 1}, conjugator={2: 14}, via={2: 0}),
                 not_conjugate(HALF_TRANSLATION, ei2_element(DIAG_I, "0, 0")), id="cycle"),
]


@pytest.mark.parametrize("doc, classes, message", CLASS_CHECKS)
def test_class_check_fires(doc, classes, message, tmp_path, monkeypatch, capsys):
    # every command that reads the partition reads it certified
    monkeypatch.setattr(ClosureTables, "classes", classes)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    for command in ("decompose", "ramification", "reidtai"):
        assert (main([command, str(path)]), capsys.readouterr()) == (
            2, ("", f"certificate failure: {message}\n")), command


def test_finer_partition_prints_the_same_bytes(tmp_path, monkeypatch, capsys):
    # every element its own class: a partition into sets of conjugates
    # that splits classes, so decompose asks may_fix_divisor of all 31
    # nontrivial elements of zeta4^3:C2+t, not 13, and the commands that
    # read the partition print what they print on the classes
    path = tmp_path / "input.json"
    path.write_text(json.dumps(RAMIFIED_CM_DOCS["zeta4^3:C2+t"][0]))
    commands = ("decompose", "ramification", "reidtai", "report")

    def run():
        return [(main([command, str(path)]), capsys.readouterr()) for command in commands]

    want = run()
    asked = []
    original = FixedPointSolver.may_fix_divisor

    def recording(solver, w):
        asked.append(w)
        return original(solver, w)

    monkeypatch.setattr(FixedPointSolver, "may_fix_divisor", recording)
    assert main(["decompose", str(path)]) == 0 and len(asked) == 13
    capsys.readouterr()
    monkeypatch.setattr(ClosureTables, "classes", with_records(
        rep={v: v for v in range(32)}, conjugator={v: v for v in range(32)},
        via={v: -1 for v in range(32)}))
    asked.clear()
    assert run() == want and want[0][0] == 0
    # 31 in decompose, in ramification, and in each of report's two readers
    assert len(asked) == 31 * 4
