"""Classification of the quotient X = A/G: quasietale test, ramification
data, anticanonical Kodaira dimension, Reid-Tai flags, irregularity, and the
consolidated report with cross-checks between independent computations.
``Analysis`` holds them for one group and computes each at most once."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .action import (
    FiniteGroupAction,
    age,
    cyclo_field_for,
    descend_multiplication,
    fixed_locus,
    mat_eq_identity,
)
from .decompose import decompose
from .errors import CertificateError
from .linalg import Lattice, fixed_lattice, mat_vec
from .variety import SubtorusTranslate, subtorus_kappa


@dataclass(frozen=True)
class RamificationData:
    components: tuple        # SubtorusTranslate, codimension 1, deduplicated
    indices: tuple           # ramification index e per component
    orbits: tuple            # tuples of component positions, G-orbits
    boundary_coeffs: tuple   # 1 - 1/e per orbit
    intersection_dim: int    # complex dim of the common subtorus


@dataclass(frozen=True)
class ClassificationReport:
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


def is_quasietale(group: FiniteGroupAction) -> bool:
    """True iff no nontrivial element fixes a divisor: every fixed locus is
    empty or of complex codimension >= 2, so the ramification has no
    component."""
    return not ramification_data(group).components


def ramification_data(group: FiniteGroupAction) -> RamificationData:
    """All codimension-1 components of fixed loci, with ramification indices
    and G-orbits.  A nontrivial fixed locus has dimension at most n - 1, so
    a divisor T lies in Fix(g) exactly when it is one of its components; the
    index e(T), the order of the pointwise stabilizer, is 1 (the identity)
    plus the number of nontrivial g with T a component of Fix(g).  A
    nontrivial g with rank(I - rho) <= 2 fixes a divisor exactly when its
    locus is nonempty (rank 0 is a translation by a != 0, which fixes
    nothing), and no other g fixes one.  Fix(h g h^-1) = h . Fix(g), so
    only the first element of each class of rank at most 2 is solved, and
    then every element of a class whose first element fixes a divisor; one
    pass over the classes decides both the components and quasietaleness."""
    n = group.variety.n
    class_rep = group.class_rep
    solver = group.solver
    divisorial = {i for i, g in enumerate(group.elements)
                  if i and class_rep[i] == i and solver.may_fix_divisor(g.matrix)
                  and fixed_locus(g, solver).nonempty}
    by_key = {}  # canonical key -> [component, index]
    for i, g in enumerate(group.elements):
        if class_rep[i] not in divisorial:
            continue
        loc = fixed_locus(g, solver)
        for rep in loc.representatives:
            comp = SubtorusTranslate(loc.kernel, rep)
            entry = by_key.setdefault(comp.canonical_key(), [comp, 1])
            entry[1] += 1
    ordered = sorted(by_key.items(), key=lambda item: item[1][0].sort_key())
    components = tuple(comp for _, (comp, _) in ordered)
    indices = tuple(e for _, (_, e) in ordered)
    position = {key: i for i, (key, _) in enumerate(ordered)}

    # orbits under g . T = rho(T) + a; a finite set mapped into itself by
    # every generator is mapped onto itself by the group they generate;
    # images are kept by the solver, one object per lattice
    maps = [(g.matrix, g.translation) for g in group.generators]
    images = {}  # (lattice, generator index) -> the image lattice
    seen = set()
    orbits = []
    for i in range(len(components)):
        if i in seen:
            continue
        orbit = {i}
        stack = [i]
        while stack:
            cj = components[stack.pop()]
            for j, (rho, translation) in enumerate(maps):
                lat = images.get((cj.lattice, j))
                if lat is None:
                    lat = images[cj.lattice, j] = solver.lattice(Lattice.from_vectors(
                        cj.lattice.ambient_rank, [mat_vec(rho, v) for v in cj.lattice.basis]))
                trans = cj.translate.apply_matrix(rho) + translation
                k = position.get(SubtorusTranslate(lat, trans).canonical_key())
                if k is None:
                    raise CertificateError("orbit leaves the component set")
                if k not in orbit:
                    orbit.add(k)
                    stack.append(k)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))

    coeffs = tuple(Fraction(1) - Fraction(1, indices[orbit[0]]) for orbit in orbits)
    kappa = subtorus_kappa([comp.lattice for comp in components],
                           group.variety.ambient_rank)
    return RamificationData(components, indices, tuple(orbits), coeffs, n - kappa)


def kappa_anticanonical(group: FiniteGroupAction):
    """kappa(-K_X) = n - dim of the common subtorus of the ramification
    components; Q-Fano iff kappa = n."""
    return Analysis(group).kappa


def reid_tai(group: FiniteGroupAction):
    """Reid-Tai condition: every nontrivial-holonomy element with nonempty
    fixed locus has age >= 1.  Returns (holds, witness or None, the
    witness's age or None).  Holonomy, fixed-locus emptiness and age are
    the same on a conjugacy class, so one age per class decides it; the
    first element of a failing class is the first failing element.  Each
    age is read first, and a fixed locus is solved only for a class whose
    age is below 1."""
    cyclo_field = cyclo_field_for(group)
    for g in group.nontrivial_class_reps():
        if mat_eq_identity(g.matrix):
            continue
        g_age = age(g, cyclo_field)
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
    quantity is computed at most once, and only when first read."""

    def __init__(self, group: FiniteGroupAction):
        self.group = group

    @cached_property
    def ramification(self) -> RamificationData:
        return ramification_data(self.group)

    @cached_property
    def kappa(self):
        """(kappa(-K_X), Q-Fano flag), as ``kappa_anticanonical`` returns it."""
        n = self.group.variety.n
        kappa = n - self.ramification.intersection_dim
        return kappa, kappa == n

    @cached_property
    def decomposition(self):
        return decompose(self.group)

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
        quasi = not self.ramification.components
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


def classification_report(group: FiniteGroupAction) -> ClassificationReport:
    return Analysis(group).classification
