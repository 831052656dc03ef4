"""Constructive splitting of a finite quotient of an abelian variety into an
abelian factor and a Q-Fano remainder, with per-stage certificates.

The recursion runs at the rational-representation level: a stage is a
saturated sublattice with a closed group of affine maps on it, plus an
embedding back into the original ambient lattice.  Analytic data is never
needed below the top level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .action import affine_product, bfs_closure
from .errors import CertificateError
from .linalg import (
    Lattice,
    TorsionPoint,
    fixed_lattice,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_vec,
    orthogonal_complement_rows,
    solve_affine_mod_lattice,
)
from .variety import (
    lattice_poincare_complement,
    standard_symplectic_form,
    subtorus_kappa,
)


@dataclass(frozen=True)
class LatticeElement:
    """An affine map x -> W x + a on the torus R^N/Z^N, W unimodular."""

    matrix: tuple  # N x N integer, tuple of tuples
    translation: TorsionPoint

    @classmethod
    def of(cls, matrix, translation=None):
        rows = tuple(tuple(int(x) for x in r) for r in matrix)
        if translation is None:
            translation = TorsionPoint.zero(len(rows))
        return cls(rows, translation)

    @property
    def rank(self):
        return len(self.matrix)

    def is_identity(self):
        return self.translation.is_zero() and mat_eq_identity(self.matrix)

    def with_data(self, matrix, translation):
        return LatticeElement(matrix, translation)

    def compose(self, other):
        return LatticeElement(*affine_product(self.matrix, self.translation,
                                              other.matrix, other.translation))

    def sort_key(self):
        return (self.matrix, self.translation.sort_key())

    def __str__(self):
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.matrix)
        coords = ", ".join(map(str, self.translation.coords))
        return f"x -> [{rows}] x + [{coords}]"


def mat_eq_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


def close_elements(gens, bound=math.inf, overflow=None):
    """Closure of lattice elements under composition, and the generators it
    kept.  The exception ``overflow`` is raised as soon as the closure holds
    more than ``bound`` elements.  Generators are taken in ``sort_key``
    order, and one already in the closure of the generators kept so far is
    skipped: it would add nothing to the subgroup."""
    if not gens:
        return [], []
    ident = LatticeElement.of(identity_matrix(gens[0].rank))
    kept = []
    elements = [ident]
    seen = {ident}
    for g in sorted(set(gens), key=LatticeElement.sort_key):
        if g in seen:
            continue
        kept.append(g)
        elements, _ = bfs_closure(ident, kept, bound, overflow)
        seen = set(elements)
    return elements, kept


def element_fixed_solution(e: LatticeElement):
    n = e.rank
    m = mat_sub(identity_matrix(n), [list(r) for r in e.matrix])
    return solve_affine_mod_lattice(m, e.translation)


def fixed_solutions(elements):
    """The fixed-locus solve of every nontrivial element, one solve each; a
    stage passes this map to each of its certificates."""
    return {e: element_fixed_solution(e) for e in elements if not e.is_identity()}


@dataclass(frozen=True)
class SublatticeAction:
    """A stage variety: rank-2m lattice with a closed affine group on it and
    the embedding of its coordinates into the original ambient lattice."""

    elements: tuple          # closed LatticeElement group in local coordinates
    embedding: tuple         # local basis vectors expressed in original coords
    ambient_rank: int        # rank of the original lattice

    @property
    def rank(self):
        return len(self.embedding)

    @property
    def dim(self):
        return self.rank // 2

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class StageCertificate:
    n_order: int
    ker_mu_order: int
    quasietale_outside_check: bool
    fano_kappa_check: bool | None
    n_tilde_order: int | None


@dataclass(frozen=True)
class DecompositionResult:
    abelian_factors: tuple   # Lattice per stage, in original ambient coordinates
    total_abelian_dim: int
    fano_part: SublatticeAction
    stages: tuple            # StageCertificate per stage

    @property
    def is_q_abelian(self):
        return self.fano_part.rank == 0


# ---------------------------------------------------------------------------
# stage operations at the lattice level

def lattice_ramification_subgroup(elements, fixed):
    """Closure of the elements whose fixed locus has codimension 1, and the
    generators its closure kept.  ``fixed`` is the stage's
    ``fixed_solutions`` map."""
    if not elements:
        return [], []
    n = elements[0].rank // 2
    gens = [e for e, sol in fixed.items() if sol.dim == n - 1]
    if not gens:
        return [e for e in elements if e.is_identity()], []
    # N <= G, so a closure past |G| elements has already left the group
    escapes = CertificateError("ramification subgroup escapes the group")
    closed, kept = close_elements(gens, len(elements), escapes)
    in_group = set(elements)
    if any(e not in in_group for e in closed):
        raise escapes
    return closed, kept


def check_normal(generators, subgroup, subgroup_generators, group_order):
    """Certify that the subgroup N = <subgroup_generators> is normal in
    G = <generators>, a group of order ``group_order``: s h s^-1 lies in N
    for every generator s of G and every generator h of N.  Conjugation by
    s is a homomorphism, so it then maps N = <h> into N, and the elements g
    with g N g^-1 in N are closed under products, so they are all of G once
    they contain the generators."""
    sub = set(subgroup)
    for s in generators:
        s_inv = _element_inverse(s, group_order)
        for h in subgroup_generators:
            conj = s.compose(h).compose(s_inv)
            if conj not in sub:
                raise CertificateError(
                    f"ramification subgroup is not normal: generator {s} conjugates "
                    f"{h} to {conj}, outside the subgroup")


def _element_inverse(g, group_order):
    """g^-1 = g^(k-1) for the order k of g, which divides the group order."""
    power = g
    for _ in range(group_order):
        following = power.compose(g)
        if following.is_identity():
            return power
        power = following
    raise CertificateError("group not closed under inversion")


def lattice_quasietale_outside(elements, subgroup, fixed):
    """True iff every element outside the subgroup N has a fixed locus of
    codimension >= 2.  The translates h g (h in N, g not in N) are exactly
    the elements outside N, so each is checked once.  ``fixed`` is the
    stage's ``fixed_solutions`` map."""
    sub = set(subgroup)
    if not elements:
        return True
    n = elements[0].rank // 2
    for x in elements:
        if x in sub:
            continue
        sol = fixed[x]
        if sol.nonempty and sol.dim > n - 2:
            return False
    return True


def lattice_kappa(elements, fixed):
    """n - dim of the intersection of the codimension-1 fixed-locus lattices;
    the anticanonical Kodaira dimension of the quotient by this group.
    ``fixed`` is a ``fixed_solutions`` map covering the elements."""
    if not elements:
        return 0
    n2 = elements[0].rank
    solutions = [fixed[e] for e in elements if not e.is_identity()]
    return subtorus_kappa([sol.kernel for sol in solutions if sol.dim == n2 // 2 - 1], n2)


def split_action(n_elements, n_generators, b: Lattice, c: Lattice, ker_mu_order):
    """Split N = <n_generators> along B x C: the certificate set N-tilde of
    affine maps on B x C, and the restricted group N_C in C-coordinates with
    the generators its closure kept.

    Coordinates on B x C are (beta, gamma) with a = B^T beta + C^T gamma;
    all torus-level splittings of each translation are enumerated through
    the kernel of the addition isogeny mu.  W fixes B, so g = t_a . W lifts
    to the maps t_(beta, gamma) . diag(I, W|_C), one per splitting of a.
    """
    n2 = b.ambient_rank
    bt = mat_transpose(b.basis_rows())
    ct = mat_transpose(c.basis_rows())
    m = [bt[i] + ct[i] for i in range(n2)]  # columns: B basis then C basis

    ker_sol = solve_affine_mod_lattice(m, TorsionPoint.zero(n2))
    if not ker_sol.nonempty or ker_sol.component_count != ker_mu_order:
        raise CertificateError("kernel of the addition isogeny has wrong order")

    k_c = orthogonal_complement_rows(c)
    ident = identity_matrix(n2)
    restricted = {}

    def restrict_matrix(w):
        """W|_C on the C basis (C must be W-invariant) and diag(I, W|_C) on
        B x C, solved once per W."""
        pair = restricted.get(w)
        if pair is None:
            out = []
            for v in c.basis_rows():
                coeffs = c.coordinates(mat_vec(w, v))
                if coeffs is None:
                    raise CertificateError("complement is not invariant")
                out.append(coeffs)
            w_c = tuple(zip(*out))
            lift = tuple(tuple(r) for r in ident[:b.rank]) + tuple(
                (0,) * b.rank + row for row in w_c)
            pair = restricted[w] = (w_c, lift)
        return pair

    n_tilde = []
    first_lift = {}
    n_c_gens = []
    for g in n_elements:
        splits = solve_affine_mod_lattice(m, g.translation)
        if not splits.nonempty:
            raise CertificateError("translation does not split along B x C")
        w_c, lift = restrict_matrix(g.matrix)
        lifts = [LatticeElement(lift, rep) for rep in splits.representatives]
        first_lift[g] = lifts[0]
        n_tilde.extend(lifts)
        # restriction to C: defined when the translation lies in the C-subtorus
        if g.translation.apply_matrix(k_c).is_zero():
            gamma_sol = solve_affine_mod_lattice(ct, g.translation)
            if not gamma_sol.nonempty:
                raise CertificateError("translation claims C-membership but does not solve")
            # C saturated: the C-torus embeds, so the restriction is unique
            n_c_gens.append(LatticeElement.of(w_c, gamma_sol.representatives[0]))

    if len(n_tilde) != len(n_elements) * ker_mu_order:
        raise CertificateError("N-tilde has wrong cardinality")
    ker_lifts = [LatticeElement.of(ident, rep) for rep in ker_sol.representatives]
    _check_n_tilde_group(n_tilde, ker_lifts + [first_lift[g] for g in n_generators])
    # a closed set holds its closure, so the closure may not outgrow it
    not_closed = CertificateError("restrictions to C do not form a closed set")
    distinct = set(n_c_gens)
    n_c, n_c_kept = close_elements(n_c_gens, len(distinct), not_closed)
    if set(n_c) != distinct:
        raise not_closed
    return n_tilde, n_c, n_c_kept


def _check_n_tilde_group(n_tilde, generators):
    """Certify that N-tilde is a group: the closure of ``generators``, the
    ker mu lifts and one lift of each generator of N, must be N-tilde.

    Each element t of N-tilde lifts an element pi(t) of N: mu . t =
    pi(t) . mu, and mu is onto, so pi(t t') = pi(t) pi(t') whenever t t' is
    in N-tilde, and the ker mu lifts are the t with pi(t) = 1.  If N-tilde
    is a group it holds the closure H of the generators; pi(H) holds the
    generators of N, so pi(H) = N, and each t in N-tilde is h k with h in H,
    pi(h) = pi(t) and k = h^-1 t a ker mu lift: H is N-tilde.  Conversely a
    closure is a group.  So this is the same certificate as checking every
    product of two elements of N-tilde.  On failure the message names a
    witness."""
    entries = set(n_tilde)
    ident = LatticeElement.of(identity_matrix(n_tilde[0].rank))
    gens = [h for h in dict.fromkeys(generators) if not h.is_identity()]
    try:
        closed, _ = bfs_closure(ident, gens, len(entries),
                                CertificateError("the closure of the generators exceeds N-tilde"))
        closed = set(closed)
    except CertificateError:
        closed = set()
    if closed == entries:
        return
    prefix = "N-tilde is not closed under composition: "
    if ident not in entries:
        raise CertificateError(prefix + "it lacks the identity")
    # N-tilde holds the identity and the generators; if right products with
    # the generators stay in it, it holds their closure
    for t in n_tilde:
        for h in gens:
            p = t.compose(h)
            if p not in entries:
                raise CertificateError(prefix + f"{t} times generator {h} is {p}, outside it")
    missing = next(t for t in n_tilde if t not in closed)
    raise CertificateError(prefix + f"{missing} is not generated by the ker mu lifts "
                           "and the lifts of the generators of N")


# ---------------------------------------------------------------------------
# the decomposition algorithm

def _restrict_form(form, basis):
    """The form on the span of the basis rows, in their coordinates: B E B^T."""
    rows = [list(v) for v in basis]
    return mat_mul(rows, mat_mul(form, mat_transpose(rows)))


def _compose_embedding(outer, local_basis):
    """Express local basis vectors (rows) through an outer embedding."""
    return tuple(tuple(mat_vec(mat_transpose([list(v) for v in outer]), row))
                 for row in local_basis)


def _decompose_level(elements, generators, embedding, ambient_rank, seed_form,
                     factors, stages):
    n2 = len(embedding)
    n = n2 // 2
    current_lattice = Lattice.from_vectors(ambient_rank, [list(v) for v in embedding]) \
        if n2 else Lattice.zero(ambient_rank)

    fixed = fixed_solutions(elements)
    n_sub, n_generators = lattice_ramification_subgroup(elements, fixed)
    n_nontrivial = [e for e in n_sub if not e.is_identity()]
    check_normal(generators, n_sub, n_generators, len(elements))
    qout = lattice_quasietale_outside(elements, n_sub, fixed)
    if not qout:
        raise CertificateError("quotient by the ramification subgroup is not quasietale")

    if not n_nontrivial:
        # quasietale case: the whole stage variety is abelian
        if n2:
            factors.append(current_lattice)
        fano = SublatticeAction((), (), ambient_rank)
        return fano

    holonomies = list(dict.fromkeys(e.matrix for e in n_sub))
    b = fixed_lattice(holonomies, n2)
    if b.rank == 0:
        # Q-Fano remainder: quotient of the current lattice by N
        kappa = lattice_kappa(n_sub, fixed)
        if kappa != n:
            raise CertificateError("final part fails the Q-Fano kappa certificate")
        stages.append(StageCertificate(len(n_sub), 1, qout, True, None))
        return SublatticeAction(tuple(n_sub), embedding, ambient_rank)

    c, ker_mu = lattice_poincare_complement(b, holonomies, seed_form)
    n_tilde, n_c, n_c_generators = split_action(n_sub, n_generators, b, c, ker_mu)

    factors.append(Lattice.from_vectors(
        ambient_rank, [list(v) for v in _compose_embedding(embedding, b.basis_rows())]))
    stages.append(StageCertificate(len(n_sub), ker_mu, qout, None, len(n_tilde)))

    # next stage: C in its own coordinates, with the form restricted to C
    ct = c.basis_rows()
    next_embedding = _compose_embedding(embedding, ct)
    next_form = _restrict_form(seed_form, ct)
    # split_action certified n_c closed, so it is the next stage group, and
    # the generators its closure kept generate it
    return _decompose_level(tuple(n_c), tuple(n_c_generators), next_embedding, ambient_rank,
                            next_form, factors, stages)


def decompose_lattice_action(elements, ambient_rank, seed_form,
                             generators=None) -> DecompositionResult:
    """Decompose the closed group ``elements``; ``generators`` generate it
    (all of ``elements`` when omitted) and feed the normality certificate."""
    factors = []
    stages = []
    embedding = tuple(tuple(r) for r in identity_matrix(ambient_rank))
    elements = tuple(elements)
    generators = elements if generators is None else tuple(generators)
    fano = _decompose_level(elements, generators, embedding, ambient_rank, seed_form,
                            factors, stages)
    total = sum(lat.rank for lat in factors) // 2
    return DecompositionResult(tuple(factors), total, fano, tuple(stages))


def to_lattice_elements(automorphisms):
    return [LatticeElement(g.holonomy.matrix, g.translation) for g in automorphisms]


def group_to_lattice_elements(group):
    return to_lattice_elements(group.elements)


def decompose(group) -> DecompositionResult:
    """Build the quasietale cover (abelian factor) x (Q-Fano part) for the
    quotient of the modeled variety by the given closed group."""
    elements = group_to_lattice_elements(group)
    seed = standard_symplectic_form(group.variety.n)
    return decompose_lattice_action(elements, group.variety.ambient_rank, seed,
                                    to_lattice_elements(group.generators))


def decompose_fano_part(fano: SublatticeAction) -> DecompositionResult:
    """Re-run the decomposition on a Q-Fano stage (idempotence check)."""
    if fano.rank == 0:
        return DecompositionResult((), 0, fano, ())
    seed = _restrict_form(standard_symplectic_form(fano.ambient_rank // 2), fano.embedding)
    return decompose_lattice_action(list(fano.elements), fano.rank, seed)
