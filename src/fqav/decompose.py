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

from .action import ClosureTables, LatticeElement, bfs_closure
from .errors import CertificateError
from .linalg import (
    FixedPointSolver,
    Lattice,
    TorsionPoint,
    factor_affine,
    fixed_lattice,
    identity_matrix,
    mat_mul,
    mat_transpose,
    mat_vec,
    solve_factored,
)
from .variety import (
    lattice_poincare_complement,
    standard_symplectic_form,
    subtorus_kappa,
)


def close_elements(gens):
    """``close_with_tables`` without the tables."""
    return close_with_tables(gens)[:2]


def close_with_tables(gens, bound=math.inf, overflow=None):
    """Closure of the lattice elements ``gens``, at least one, under
    composition, the generators it kept, and the ``ClosureTables`` of the
    closure of those.  The exception ``overflow`` is raised as soon as the
    closure holds more than ``bound`` elements.  Generators are taken in
    ``sort_key`` order, and one already in the closure of the generators
    kept so far is skipped: it would add nothing to the subgroup."""
    ident = LatticeElement.of(identity_matrix(gens[0].rank))
    kept = []
    elements, tables = [ident], ClosureTables([], [-1], [-1])
    seen = {ident}
    for g in sorted(set(gens), key=LatticeElement.sort_key):
        if g in seen:
            continue
        kept.append(g)
        elements, tables = bfs_closure(ident, kept, bound, overflow)
        seen = set(elements)
    return elements, kept, tables


def element_fixed_solution(e: LatticeElement, solver):
    """The solutions of (I - W) x == a for e = (W, a), by ``solver``."""
    return solver.solve(e.matrix, e.translation)


def fixed_solutions(elements, solver):
    """The divisors of a stage: the nonempty fixed-locus solves, by
    ``solver``, of the nontrivial elements (W, a) that
    ``solver.may_fix_divisor(W)`` admits, keyed by their positions in
    ``elements``; a stage passes this map to each of its certificates.  Such
    an element fixes a divisor exactly when its locus is nonempty: with
    rank(I - W) = 0 it is a translation by a != 0 and fixes nothing, and
    with rank 1 or 2 each component has complex dimension
    (2n - rank) // 2 = n - 1.  No other element fixes a divisor."""
    solves = ((x, element_fixed_solution(e, solver)) for x, e in enumerate(elements)
              if x and solver.may_fix_divisor(e.matrix))
    return {x: sol for x, sol in solves if sol.nonempty}


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
    # the fields, in this order, are the keys the CLI prints per stage
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
                raise _not_normal(s, h, conj)


def _not_normal(s, h, conj):
    """The failure of both normality checks: s conjugates h to conj."""
    return CertificateError(f"ramification subgroup is not normal: generator {s} conjugates "
                            f"{h} to {conj}, outside the subgroup")


def ramification_on_tables(elements, tables, fixed):
    """N, generated by the elements numbered by the keys of the stage's
    divisor map ``fixed``, its kept generators, the numbers of N and those
    of the kept generators: ``close_elements`` of the reflections, on
    look-ups in the stage's tables, which it cannot leave.  The search steps
    by left products h . x, where ``close_elements`` steps by x . h; level
    k is B_k - B_(k-1) either way, B_k the products of at most k kept
    generators, so the levels, and the order of N, are the same."""
    def key(x):
        return LatticeElement.sort_key(elements[x])

    kept, numbers, left, levels, members = [], [], [], [{0}], {0}
    for g in sorted(fixed, key=key):
        if g not in members:
            kept.append(elements[g])
            numbers.append(g)
            left.append(tables.left(g))
            levels, members = [{0}], {0}
            while levels[-1]:  # the next BFS level: h . x for x in this one
                level = set().union(*(map(h.__getitem__, levels[-1]) for h in left))
                levels.append(level - members)
                members |= level
    n_sub = [elements[x] for level in levels for x in sorted(level, key=key)]
    return n_sub, kept, members, numbers


def check_normal_on_tables(elements, generators, tables, ramification):
    """``check_normal`` by look-ups in the tables of the closure
    ``elements`` of ``generators``: s h s^-1 is in N iff s h is in N s, and
    s h is s pushed through h's word.  On failure s h s^-1 is the y with
    y s = s h, named in ``check_normal``'s words."""
    _, kept, members, numbers = ramification
    if not kept:
        return  # the trivial subgroup is normal
    columns = tables.columns
    words = [tables.word(x) for x in numbers]
    for s, column in zip(generators, columns):
        coset = {column[x] for x in members}
        for h, word in zip(kept, words):
            y = column[0]
            for j in word:
                y = columns[j][y]
            if y not in coset:
                raise _not_normal(s, h, elements[column.index(y)])


def _element_inverse(g, group_order):
    """g^-1 = g^(k-1) for the order k of g, which divides the group order."""
    power = g
    for _ in range(group_order):
        following = power.compose(g)
        if following.is_identity():
            return power
        power = following
    raise CertificateError("group not closed under inversion")


def lattice_quasietale_outside(members, fixed):
    """True iff no element outside the subgroup N, numbered ``members``,
    fixes a divisor: every key of the stage's divisor map ``fixed`` is in
    N."""
    return fixed.keys() <= members


def lattice_kappa(fixed, n2):
    """n - dim of the intersection of the divisor lattices in ``fixed``, the
    ``fixed_solutions`` map of a stage of rank n2 = 2n: the anticanonical
    Kodaira dimension of the quotient by the group N that those elements
    generate."""
    return subtorus_kappa([sol.kernel for sol in fixed.values()], n2)


def split_action(n_elements, n_generators, b: Lattice, c: Lattice, ker_mu_order):
    """Split N = <n_generators> along B x C: the certificate set N-tilde of
    affine maps on B x C, and the restricted group N_C in C-coordinates with
    the generators its closure kept and the tables of that closure.

    Coordinates on B x C are (beta, gamma) with a = B^T beta + C^T gamma;
    all torus-level splittings of each translation are enumerated through
    the kernel of the addition isogeny mu.  W fixes B, so g = t_a . W lifts
    to the maps t_(beta, gamma) . diag(I, W|_C), one per splitting of a.
    """
    n2 = b.ambient_rank
    bt = mat_transpose(b.basis_rows())
    ct = mat_transpose(c.basis_rows())
    m = [bt[i] + ct[i] for i in range(n2)]  # columns: B basis then C basis

    # one factorisation of each of m and C^T serves every element of N
    m_factors = factor_affine(m, b.rank + c.rank)
    ker_sol = solve_factored(m_factors, TorsionPoint.zero(n2))
    if not ker_sol.nonempty or ker_sol.component_count != ker_mu_order:
        raise CertificateError("kernel of the addition isogeny has wrong order")

    k_c = c.complement_rows
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

    ct_factors = None
    n_tilde = []
    first_lift = {}
    n_c_gens = []
    for g in n_elements:
        splits = solve_factored(m_factors, g.translation)
        if not splits.nonempty:
            raise CertificateError("translation does not split along B x C")
        w_c, lift = restrict_matrix(g.matrix)
        lifts = [LatticeElement(lift, rep) for rep in splits.representatives]
        first_lift[g] = lifts[0]
        n_tilde.extend(lifts)
        # restriction to C: defined when the translation lies in the C-subtorus
        if g.translation.apply_matrix(k_c).is_zero():
            if ct_factors is None:
                ct_factors = factor_affine(ct, c.rank)
            gamma_sol = solve_factored(ct_factors, g.translation)
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
    n_c, n_c_kept, n_c_tables = close_with_tables(n_c_gens, len(distinct), not_closed)
    if set(n_c) != distinct:
        raise not_closed
    return n_tilde, n_c, n_c_kept, n_c_tables


class _Outgrown(Exception):
    """The closure in ``_check_n_tilde_group`` outgrew N-tilde.  That check
    catches it and goes on to name a witness."""


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
        closed = set(bfs_closure(ident, gens, len(entries), _Outgrown())[0])
    except _Outgrown:
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


def _decompose_level(elements, generators, tables, embedding, ambient_rank, seed_form,
                     solver, factors, stages):
    n2 = len(embedding)
    fixed = fixed_solutions(elements, solver)
    ramification = ramification_on_tables(elements, tables, fixed)
    check_normal_on_tables(elements, generators, tables, ramification)
    n_sub, n_generators, members = ramification[:3]
    qout = lattice_quasietale_outside(members, fixed)
    if not qout:
        raise CertificateError("quotient by the ramification subgroup is not quasietale")

    if len(n_sub) == 1:
        # quasietale case: the whole stage variety is abelian
        if n2:
            factors.append(Lattice.from_vectors(ambient_rank, [list(v) for v in embedding]))
        return SublatticeAction((), (), ambient_rank)

    # a vector fixed by the generators of N is fixed by N
    b = fixed_lattice(list(dict.fromkeys(e.matrix for e in n_generators)), n2)
    if b.rank == 0:
        # Q-Fano remainder: quotient of the current lattice by N
        kappa = lattice_kappa(fixed, n2)
        if kappa != n2 // 2:
            raise CertificateError("final part fails the Q-Fano kappa certificate")
        stages.append(StageCertificate(len(n_sub), 1, qout, True, None))
        return SublatticeAction(tuple(n_sub), embedding, ambient_rank)

    holonomies = list(dict.fromkeys(e.matrix for e in n_sub))
    c, ker_mu = lattice_poincare_complement(b, holonomies, seed_form)
    n_tilde, n_c, n_c_generators, n_c_tables = split_action(n_sub, n_generators, b, c, ker_mu)

    factors.append(Lattice.from_vectors(
        ambient_rank, [list(v) for v in _compose_embedding(embedding, b.basis_rows())]))
    stages.append(StageCertificate(len(n_sub), ker_mu, qout, None, len(n_tilde)))

    # next stage: C in its own coordinates, with the form restricted to C
    ct = c.basis_rows()
    next_embedding = _compose_embedding(embedding, ct)
    next_form = _restrict_form(seed_form, ct)
    # split_action certified n_c closed, so it is the next stage group, and
    # the generators its closure kept generate it
    return _decompose_level(tuple(n_c), tuple(n_c_generators), n_c_tables, next_embedding,
                            ambient_rank, next_form, solver, factors, stages)


def decompose_lattice_action(elements, generators, tables, ambient_rank, seed_form,
                             solver) -> DecompositionResult:
    """Decompose the closed group ``elements``, the closure of
    ``generators`` with ``ClosureTables`` ``tables``, every stage solving
    its fixed points by the ``FixedPointSolver`` ``solver``."""
    factors = []
    stages = []
    embedding = tuple(tuple(r) for r in identity_matrix(ambient_rank))
    fano = _decompose_level(tuple(elements), tuple(generators), tables, embedding,
                            ambient_rank, seed_form, solver, factors, stages)
    total = sum(lat.rank for lat in factors) // 2
    return DecompositionResult(tuple(factors), total, fano, tuple(stages))


def decompose(group) -> DecompositionResult:
    """Build the quasietale cover (abelian factor) x (Q-Fano part) for the
    quotient by the closed group, whose elements are the top stage's.  The
    stages share the group's solver, whose entries depend on (W, a) alone."""
    seed = standard_symplectic_form(group.variety.n)
    return decompose_lattice_action(group.elements, group.generators, group.tables,
                                    group.variety.ambient_rank, seed, group.solver)


def decompose_fano_part(fano: SublatticeAction) -> DecompositionResult:
    """Re-run the decomposition on a Q-Fano stage (idempotence check)."""
    if fano.rank == 0:
        return DecompositionResult((), 0, fano, ())
    seed = _restrict_form(standard_symplectic_form(fano.ambient_rank // 2), fano.embedding)
    return decompose_lattice_action(*close_with_tables(fano.elements), fano.rank, seed,
                                    FixedPointSolver())
