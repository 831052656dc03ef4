"""Classification of the quotient X = A/G: the divisor lattices, off which
the quasietale test and the anticanonical Kodaira dimension are read,
ramification data, Reid-Tai flags, irregularity, and the consolidated
report with cross-checks between independent computations.  ``Analysis``
holds them for one group and computes each at most once."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .action import (
    FiniteGroupAction,
    age,
    descend_multiplication,
    fixed_locus,
    mat_eq_identity,
)
from .decompose import decompose, group_divisors
from .errors import CertificateError
from .linalg import Lattice, fixed_lattice, mat_vec
from .variety import SubtorusTranslate, subtorus_kappa


@dataclass(frozen=True)
class DivisorLattices:
    divisors: list           # numbers of the elements that fix a divisor
    lattices: tuple          # the distinct component lattices, by basis
    images: dict             # lattice -> its image under each generator
    kappa: int               # kappa(-K_X), n - dim of their common subtorus

    @property
    def quasietale(self):
        return not self.lattices


@dataclass(frozen=True)
class RamificationData:
    components: tuple        # SubtorusTranslate, codimension 1, deduplicated
    indices: tuple           # ramification index e per component
    orbits: tuple            # tuples of component positions, G-orbits
    boundary_coeffs: tuple   # 1 - 1/e per orbit
    intersection_dim: int    # complex dim of the common subtorus


@dataclass(frozen=True)
class ClassificationReport:
    # the fields, in this order, are the keys the CLI prints
    n: int
    group_order: int
    quasietale: bool
    kappa_anticanonical: int
    q_fano: bool
    fano_type: bool
    q_abelian: bool
    q_x: int
    q_circle: int
    reid_tai_holds: bool
    reid_tai_witness: Optional[object]
    uniruled: Optional[bool]
    canonical: Optional[bool]
    kappa_zero: Optional[bool]
    polarized_endo_m: int
    notes: tuple = ()


def divisor_lattices(group: FiniteGroupAction, divisors) -> DivisorLattices:
    """The lattices of the ramification components, read off ``divisors``,
    the numbers of the elements that fix a divisor, as ``group_divisors``
    screens them.  The components of Fix(g) are translates of the kernel of
    I - W, so the component lattices are the distinct kernels of the
    divisors' I - W, one per distinct holonomy, which the solver has
    factored or factors once.  No component is listed.

    g . T = rho(T) + a permutes the components, so each generator must map
    each of these lattices to one of them, by one Hermite form per lattice
    and generator, each image the solver's object for it: otherwise the
    "orbit leaves the component set".  The divisor is empty exactly when
    there are none, the quasietale case, and kappa(-K_X) is n - the
    dimension of their common subtorus, ``subtorus_kappa``."""
    solver = group.solver
    elements = group.elements
    holonomies = dict.fromkeys(elements[x].matrix for x in divisors)
    lattices = tuple(sorted(dict.fromkeys(solver.factors(w)[3] for w in holonomies),
                            key=lambda lat: lat.basis))
    n2 = group.variety.ambient_rank
    rhos = [g.matrix for g in group.generators]
    known = set(lattices)
    images = {}
    for lat in lattices:
        row = images[lat] = tuple(solver.lattice(Lattice.from_vectors(
            n2, [mat_vec(rho, v) for v in lat.basis])) for rho in rhos)
        if not known.issuperset(row):
            raise CertificateError("orbit leaves the component set")
    return DivisorLattices(divisors, lattices, images, subtorus_kappa(lattices, n2))


def ramification_data(group: FiniteGroupAction,
                      divisor_pass: DivisorLattices) -> RamificationData:
    """All codimension-1 components of fixed loci, with ramification indices
    and G-orbits, on the divisors, lattice images and kappa of
    ``divisor_pass``; only the ramification section reads them.  A
    nontrivial fixed locus has dimension at most n - 1, so a divisor T lies
    in Fix(g) exactly when it is one of its components; the index e(T),
    the order of the pointwise stabilizer, is 1 (the identity) plus the
    number of nontrivial g with T a component of Fix(g).  Each divisor is
    solved once and its components listed, keyed by ``canonical_key``, and
    each orbit's coefficient 1 - 1/e is built once, as (e - 1)/e.

    The orbits are those of g . T = rho(T) + a under the generators: a
    finite set mapped into itself by every generator is mapped onto itself
    by the group they generate.  The image of T's lattice is the one
    ``divisor_lattices`` certified; its translate must give a component,
    or the "orbit moves a component translate off the component set"."""
    solver = group.solver
    elements = group.elements
    by_key = {}  # canonical key -> [component, index]
    for x in divisor_pass.divisors:
        loc = fixed_locus(elements[x], solver)
        for rep in loc.representatives:
            comp = SubtorusTranslate(loc.kernel, rep)
            entry = by_key.setdefault(comp.canonical_key(), [comp, 1])
            entry[1] += 1
    ordered = sorted(by_key.items(), key=lambda item: item[1][0].sort_key())
    components = tuple(comp for _, (comp, _) in ordered)
    indices = tuple(e for _, (_, e) in ordered)
    position = {key: i for i, (key, _) in enumerate(ordered)}

    seen = set()
    orbits = []
    for i in range(len(components)):
        if i in seen:
            continue
        orbit = {i}
        stack = [i]
        while stack:
            cj = components[stack.pop()]
            for g, lat in zip(group.generators, divisor_pass.images[cj.lattice]):
                k = position.get(SubtorusTranslate(lat, g.apply(cj.translate)).canonical_key())
                if k is None:
                    raise CertificateError("orbit moves a component translate off the "
                                           "component set")
                if k not in orbit:
                    orbit.add(k)
                    stack.append(k)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))

    coeffs = tuple(Fraction(indices[orbit[0]] - 1, indices[orbit[0]]) for orbit in orbits)
    return RamificationData(components, indices, tuple(orbits), coeffs,
                            group.variety.n - divisor_pass.kappa)


def reid_tai(group: FiniteGroupAction):
    """Reid-Tai condition: every nontrivial-holonomy element with nonempty
    fixed locus has age >= 1.  Returns (holds, witness or None, the
    witness's age or None).  Holonomy, fixed-locus emptiness and age are
    the same on a conjugacy class, so one age per class decides it; the
    first element of a failing class is the first failing element.  Each
    age is read first, and a fixed locus is solved only for a class whose
    age is below 1.  A class holding root^k of a walk of ``power_walk``
    reads its age off the one spectrum ``age`` takes of the root's
    holonomy, which walk roots of one matrix share."""
    elements, rep, walk = group.elements, group.class_rep, group.power_walk
    ages = {}  # root holonomy matrix -> k -> the age of the root's k-th power
    for i in range(1, len(rep)):
        g = elements[i]
        if rep[i] != i or mat_eq_identity(g.matrix):
            continue
        root, k, d = walk[i]
        matrix = elements[root].matrix
        if matrix not in ages:
            ages[matrix] = age(elements[root], d, group.variety)
        g_age = ages[matrix](k)
        if g_age < 1 and fixed_locus(g, group.solver).nonempty:
            return False, g, g_age
    return True, None, None


def irregularity(group: FiniteGroupAction) -> int:
    """q(X) = dim of the holonomy-invariant tangent subspace (half the
    rational fixed-space dimension).  A vector fixed by the generators'
    holonomies is fixed by every product of them."""
    reps = [g.matrix for g in group.generators]
    d = fixed_lattice(reps, group.variety.ambient_rank).rank
    if d % 2 != 0:
        raise CertificateError("holonomy fixed space has odd rational dimension")
    return d // 2


class Analysis:
    """What the commands report about the quotient by ``group``.  Each
    quantity is computed at most once, and only when first read.  The
    divisors are screened once, and the decomposition, the divisor
    lattices and the ramification read them.  The quasietale flag and kappa
    are read off the divisor lattices alone, so ``classify`` lists no
    component; only the ramification section lists components, indices
    and orbits, on the same divisors, lattice images and kappa."""

    def __init__(self, group: FiniteGroupAction):
        self.group = group

    @cached_property
    def divisors(self):
        """The numbers of the elements that fix a divisor, ``group_divisors``."""
        return group_divisors(self.group)

    @cached_property
    def divisor_lattices(self) -> DivisorLattices:
        return divisor_lattices(self.group, self.divisors)

    @cached_property
    def ramification(self) -> RamificationData:
        return ramification_data(self.group, self.divisor_lattices)

    @cached_property
    def kappa(self):
        """(kappa(-K_X), Q-Fano flag): n - dim of the common subtorus of the
        ramification components, and whether it is n."""
        kappa = self.divisor_lattices.kappa
        return kappa, kappa == self.group.variety.n

    @cached_property
    def decomposition(self):
        return decompose(self.group, self.divisors)

    @cached_property
    def reid_tai(self):
        """(holds, witness or None, witness age or None), as ``reid_tai``
        returns it."""
        return reid_tai(self.group)

    @cached_property
    def classification(self) -> ClassificationReport:
        group = self.group
        n = group.variety.n
        # Reid-Tai first: when it and a later analysis would both fail, the
        # command reports Reid-Tai's error
        rt_holds, rt_witness, _ = self.reid_tai
        quasi = self.divisor_lattices.quasietale
        kappa, q_fano = self.kappa
        decomposition = self.decomposition
        q_circle = decomposition.total_abelian_dim
        q_x = irregularity(group)
        m = descend_multiplication(group)

        # independent computations must agree
        if quasi != (q_circle == n):
            raise CertificateError("quasietale flag disagrees with the abelian factor dim")
        if quasi != decomposition.is_q_abelian:
            raise CertificateError("quasietale flag disagrees with the decomposition")
        if q_fano != (q_circle == 0):
            raise CertificateError("Q-Fano flag disagrees with the abelian factor dim")
        if not (0 <= q_circle <= n):
            raise CertificateError("abelian factor dimension out of range")
        if q_x > q_circle:
            raise CertificateError("irregularity exceeds the abelian factor dim")
        if kappa < 0 or kappa + q_circle < n:
            raise CertificateError("kappa inconsistent with the abelian factor dim")

        notes = []
        if kappa + q_circle > n:
            notes.append("noteworthy: kappa_anticanonical + q_circle exceeds dim X")

        if quasi:
            uniruled = not rt_holds
            canonical = rt_holds
            kappa_zero = rt_holds
        else:
            uniruled = True
            canonical = None
            kappa_zero = False

        return ClassificationReport(
            n=n,
            group_order=group.order,
            quasietale=quasi,
            kappa_anticanonical=kappa,
            q_fano=q_fano,
            fano_type=q_fano,
            q_abelian=quasi,
            q_x=q_x,
            q_circle=q_circle,
            reid_tai_holds=rt_holds,
            reid_tai_witness=rt_witness,
            uniruled=uniruled,
            canonical=canonical,
            kappa_zero=kappa_zero,
            polarized_endo_m=m,
            notes=tuple(notes),
        )
