"""Classification of the quotient X = A/G: quasietale test, ramification
data, anticanonical Kodaira dimension, Reid-Tai flags, irregularity, and the
consolidated report with cross-checks between independent computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .action import (
    FiniteGroupAction,
    age,
    cyclo_field_for,
    descend_multiplication,
    fixed_locus,
    holonomy_fixed_space_dim,
    pointwise_stabilizer,
)
from .decompose import DecompositionResult, decompose
from .errors import CertificateError
from .linalg import Lattice, TorsionPoint, intersect_lattices, mat_vec
from .variety import SubtorusTranslate, rational_rep


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
    empty or of complex codimension >= 2."""
    n = group.variety.n
    for g in group.nontrivial_elements():
        loc = fixed_locus(g)
        if not loc.empty and loc.dim > n - 2:
            return False
    return True


def ramification_data(group: FiniteGroupAction) -> RamificationData:
    """All codimension-1 components of fixed loci, with ramification indices
    and G-orbits."""
    n = group.variety.n
    components = []
    keys = {}
    for g in group.nontrivial_elements():
        loc = fixed_locus(g)
        if loc.empty or loc.dim != n - 1:
            continue
        for comp in loc.components:
            key = comp.canonical_key()
            if key not in keys:
                keys[key] = len(components)
                components.append(comp)
    components_sorted = sorted(components, key=SubtorusTranslate.sort_key)
    keys = {comp.canonical_key(): i for i, comp in enumerate(components_sorted)}
    components = components_sorted

    indices = tuple(pointwise_stabilizer(comp, group)[1] for comp in components)

    # orbits under g . T = rho(T) + a
    orbit_of = {}
    orbits = []
    for i, comp in enumerate(components):
        if i in orbit_of:
            continue
        orbit = set()
        stack = [i]
        while stack:
            j = stack.pop()
            if j in orbit:
                continue
            orbit.add(j)
            cj = components[j]
            for g in group.elements:
                rho = rational_rep(g.holonomy)
                lat = Lattice.from_vectors(
                    cj.lattice.ambient_rank,
                    [mat_vec(rho, v) for v in cj.lattice.basis_rows()])
                trans = cj.translate.apply_matrix(rho) + g.translation
                image = SubtorusTranslate(lat, trans)
                k = keys.get(image.canonical_key())
                if k is None:
                    raise CertificateError("orbit leaves the component set")
                if k not in orbit:
                    stack.append(k)
        for j in orbit:
            orbit_of[j] = len(orbits)
        orbits.append(tuple(sorted(orbit)))

    coeffs = tuple(Fraction(1) - Fraction(1, indices[orbit[0]]) for orbit in orbits)

    common = Lattice.full(group.variety.ambient_rank)
    for comp in components:
        common = intersect_lattices(common, comp.lattice)
    return RamificationData(tuple(components), indices, tuple(orbits), coeffs,
                            common.rank // 2)


def kappa_anticanonical(group: FiniteGroupAction):
    """kappa(-K_X) = n - dim of the common subtorus of the ramification
    components; Q-Fano iff kappa = n."""
    n = group.variety.n
    data = ramification_data(group)
    kappa = n - data.intersection_dim
    return kappa, kappa == n


def reid_tai(group: FiniteGroupAction, cyclo_field=None):
    """Reid-Tai condition: every nontrivial-holonomy element with nonempty
    fixed locus has age >= 1.  Returns (holds, witness or None)."""
    if cyclo_field is None:
        cyclo_field = cyclo_field_for(group)
    for g in group.nontrivial_elements():
        if g.holonomy.is_identity():
            continue
        if fixed_locus(g).empty:
            continue
        if age(g, cyclo_field) < 1:
            return False, g
    return True, None


def irregularity(group: FiniteGroupAction) -> int:
    """q(X) = dim of the holonomy-invariant tangent subspace (half the
    rational fixed-space dimension)."""
    d = holonomy_fixed_space_dim(group)
    if d % 2 != 0:
        raise CertificateError("holonomy fixed space has odd rational dimension")
    return d // 2


def classification_report(group: FiniteGroupAction, cyclo_field=None) -> ClassificationReport:
    """``cyclo_field`` is the field the Reid-Tai ages are computed in;
    ``cyclo_field_for(group)`` when omitted."""
    n = group.variety.n
    quasi = is_quasietale(group)
    kappa, q_fano = kappa_anticanonical(group)
    decomposition = decompose(group)
    q_circle = decomposition.total_abelian_dim
    q_x = irregularity(group)
    rt_holds, rt_witness = reid_tai(group, cyclo_field)
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
