"""Constructive splitting of a finite quotient of an abelian variety into an
abelian factor and a Q-Fano remainder, with per-stage certificates.

The recursion runs at the rational-representation level: a stage is a
saturated sublattice with a closed group of affine maps on it, plus an
embedding back into the original ambient lattice.  Analytic data is never
needed below the top level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import bfs_closure
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

    def compose(self, other):
        m = mat_mul(self.matrix, other.matrix)
        trans = self.translation + other.translation.apply_matrix(self.matrix)
        return LatticeElement(tuple(map(tuple, m)), trans)

    def sort_key(self):
        return (self.matrix, self.translation.sort_key())


def mat_eq_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


# the most elements ``close_elements`` builds before it raises
ELEMENT_CAP = 100000


def close_elements(gens):
    """Closure of lattice elements under composition, at most ELEMENT_CAP of
    them.  Generators are taken in ``sort_key`` order, and one already in the
    closure of the generators kept so far is skipped: it would add nothing to
    the subgroup."""
    if not gens:
        return []
    ident = LatticeElement.of(identity_matrix(gens[0].rank))
    kept = []
    elements = [ident]
    seen = {ident}
    for g in sorted(set(gens), key=LatticeElement.sort_key):
        if g in seen:
            continue
        kept.append(g)
        elements, _ = bfs_closure(
            ident, kept, ELEMENT_CAP, CertificateError("lattice-level closure exceeded cap"))
        seen = set(elements)
    return elements


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
    """Closure of the elements whose fixed locus has codimension 1.
    ``fixed`` is the stage's ``fixed_solutions`` map."""
    if not elements:
        return []
    n = elements[0].rank // 2
    gens = [e for e, sol in fixed.items() if sol.dim == n - 1]
    if not gens:
        return [e for e in elements if e.is_identity()]
    closed = close_elements(gens)
    in_group = set(elements)
    for e in closed:
        if e not in in_group:
            raise CertificateError("ramification subgroup escapes the group")
    return closed


def check_normal(generators, subgroup, group_order):
    """Certify that the subgroup N is normal in G = <generators>, a group of
    order ``group_order``: s N s^-1 lies in N for every generator s.  The
    elements g with g N g^-1 in N are closed under products, so they are all
    of G once they contain the generators."""
    sub = set(subgroup)
    for s in generators:
        s_inv = _element_inverse(s, group_order)
        for h in subgroup:
            if s.compose(h).compose(s_inv) not in sub:
                raise CertificateError("ramification subgroup is not normal")


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


def split_action(n_elements, b: Lattice, c: Lattice, ker_mu_order):
    """Split N along B x C: the certificate set N-tilde on B x C and the
    restricted group N_C in C-coordinates.

    Coordinates on B x C are (beta, gamma) with a = B^T beta + C^T gamma;
    all torus-level splittings of each translation are enumerated through
    the kernel of the addition isogeny.
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
    to_b, to_c = ident[:b.rank], ident[b.rank:]
    restricted = {}

    def restrict_matrix(w):
        """Matrix of W on the C basis (C must be W-invariant), solved once
        per W."""
        w_c = restricted.get(w)
        if w_c is None:
            out = []
            for v in c.basis_rows():
                coeffs = c.coordinates(mat_vec(w, v))
                if coeffs is None:
                    raise CertificateError("complement is not invariant")
                out.append(coeffs)
            w_c = restricted[w] = tuple(zip(*out))
        return w_c

    n_tilde = []
    n_c_gens = []
    for g in n_elements:
        splits = solve_affine_mod_lattice(m, g.translation)
        if not splits.nonempty:
            raise CertificateError("translation does not split along B x C")
        for rep in splits.representatives:
            n_tilde.append((rep.apply_matrix(to_b), rep.apply_matrix(to_c), g.matrix))
        # restriction to C: defined when the translation lies in the C-subtorus
        if g.translation.apply_matrix(k_c).is_zero():
            w_c = restrict_matrix(g.matrix)
            gamma_sol = solve_affine_mod_lattice(ct, g.translation)
            if not gamma_sol.nonempty:
                raise CertificateError("translation claims C-membership but does not solve")
            # C saturated: the C-torus embeds, so the restriction is unique
            n_c_gens.append(LatticeElement.of(w_c, gamma_sol.representatives[0]))

    if len(n_tilde) != len(n_elements) * ker_mu_order:
        raise CertificateError("N-tilde has wrong cardinality")
    _check_n_tilde_group(n_tilde, restrict_matrix)
    n_c = close_elements(n_c_gens) if n_c_gens else []
    if set(n_c) != set(n_c_gens):
        raise CertificateError("restrictions to C do not form a closed set")
    return n_tilde, n_c, ker_sol.representatives


def _check_n_tilde_group(n_tilde, restrict_matrix):
    """The set of pairs t_beta x (t_gamma . W|_C) must be closed under
    composition; this is a strong self-test of the splitting."""
    table = [(beta, gamma, restrict_matrix(w)) for beta, gamma, w in n_tilde]
    entries = set(table)
    for b1, g1, wc1 in table:
        for b2, g2, wc2 in table:
            beta = b1 + b2
            gamma = g1 + g2.apply_matrix(wc1)
            wc = tuple(map(tuple, mat_mul(wc1, wc2)))
            if (beta, gamma, wc) not in entries:
                raise CertificateError("N-tilde is not closed under composition")


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
    n_sub = lattice_ramification_subgroup(elements, fixed)
    n_nontrivial = [e for e in n_sub if not e.is_identity()]
    check_normal(generators, n_sub, len(elements))
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
    n_tilde, n_c, _ = split_action(n_sub, b, c, ker_mu)

    factors.append(Lattice.from_vectors(
        ambient_rank, [list(v) for v in _compose_embedding(embedding, b.basis_rows())]))
    stages.append(StageCertificate(len(n_sub), ker_mu, qout, None, len(n_tilde)))

    # next stage: C in its own coordinates, with the form restricted to C
    ct = c.basis_rows()
    next_embedding = _compose_embedding(embedding, ct)
    next_form = _restrict_form(seed_form, ct)
    # split_action certified n_c closed, so it is the next stage group and
    # generates itself
    next_elements = tuple(n_c) if n_c else (LatticeElement.of(identity_matrix(c.rank)),)
    return _decompose_level(next_elements, next_elements, next_embedding, ambient_rank,
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
