"""Constructive splitting of a finite quotient of an abelian variety into an
abelian factor and a Q-Fano remainder, with per-stage certificates.

The decomposition runs at the rational-representation level.  The whole
group is one stage: it is quasietale, Q-Fano, or split along B x C, B the
lattice fixed by its ramification subgroup N and C the invariant
complement.  A split leaves N_C, the restriction of N to C, as the Q-Fano
part: the restrictions of N's kept generators and |N|, certified on those
restrictions alone.  No element of N or of N_C is listed.  The divisors
are decided once per conjugacy class, on a class partition certified
against the closure tables first.  Analytic data is never needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import ClosureTables, LatticeElement, bfs_closure
from .errors import CertificateError
from .linalg import (
    Lattice,
    TorsionPoint,
    abs_determinant,
    factor_affine,
    fixed_lattice,
    identity_matrix,
    mat_mul,
    mat_transpose,
    solve_factored,
)
from .variety import subtorus_kappa


def close_elements(gens):
    """``close_with_tables`` without the tables."""
    return close_with_tables(gens)[:2]


def close_with_tables(gens):
    """Closure of the lattice elements ``gens``, at least one, under
    composition, the generators it kept, and the ``ClosureTables`` of the
    closure of those.  Generators are taken in ``sort_key`` order, and one
    already in the closure of the generators kept so far is skipped: it
    would add nothing to the subgroup.  No command reaches it."""
    ident = LatticeElement.of(identity_matrix(gens[0].rank))
    kept = []
    elements, tables = [ident], ClosureTables([], [-1], [-1])
    seen = {ident}
    for g in sorted(set(gens), key=LatticeElement.sort_key):
        if g in seen:
            continue
        kept.append(g)
        elements, tables = bfs_closure(ident, kept, float("inf"), None)
        seen = set(elements)
    return elements, kept, tables


def element_fixed_solution(e: LatticeElement, solver):
    """The solutions of (I - W) x == a for e = (W, a), by ``solver``."""
    return solver.solve(e.matrix, e.translation)


def class_divisors(elements, rep, solver):
    """The divisors of a stage: the numbers of the nontrivial elements of
    ``elements`` that fix a divisor, with ``rep`` their class partition.
    Those are the elements of the classes whose first element (W, a)
    passes ``solver.may_fix_divisor(W)`` and has a nonempty fixed-locus
    solve; no other element is asked or solved.  Such an element fixes a
    divisor exactly when its locus is nonempty: with rank(I - W) = 0 it
    is a translation by a != 0 and fixes nothing, and with rank 1 or 2
    each component has complex dimension (2n - rank) // 2 = n - 1.  No
    other element fixes a divisor.  rank(I - W) is a class function, and
    Fix(h g h^-1) = h . Fix(g), so the first element decides its class."""
    divisorial = {g for g in range(1, len(rep))
                  if rep[g] == g and solver.may_fix_divisor(elements[g].matrix)
                  and element_fixed_solution(elements[g], solver).nonempty}
    return [x for x in range(1, len(rep)) if rep[x] in divisorial]


@dataclass(frozen=True)
class SublatticeAction:
    """A stage variety: rank-2m lattice with an affine group on it, given by
    generators and its order, and the embedding of its coordinates into the
    original ambient lattice."""

    generators: tuple        # LatticeElement generators in local coordinates
    order: int               # order of the group they generate
    embedding: tuple         # local basis vectors expressed in original coords
    ambient_rank: int        # rank of the original lattice

    @property
    def rank(self):
        return len(self.embedding)

    @property
    def dim(self):
        return self.rank // 2


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


def ramification_on_tables(elements, tables, divisors):
    """N, generated by the elements numbered ``divisors``, the stage's
    divisors: its kept generators, the numbers of N and those of the kept
    generators, on look-ups in the stage's tables, which it cannot leave.
    The divisors are taken in ``sort_key`` order, as
    ``close_elements`` takes generators, and one already in N is skipped;
    each kept one's left multiplications then close N on from the members
    it has.  No element of N is listed: a stage reads |N|, N's kept
    generators and, for the quasietale check, its numbers."""
    kept, numbers, left, members = [], [], [], {0}
    for g in sorted(divisors, key=lambda x: LatticeElement.sort_key(elements[x])):
        if g not in members:
            kept.append(elements[g])
            numbers.append(g)
            left.append(tables.left(g))
            new = members
            while new:  # h . x for each kept h and each x new to N
                new = {h[x] for h in left for x in new} - members
                members |= new
    return kept, members, numbers


def check_normal_on_tables(elements, generators, tables, ramification):
    """``check_normal`` by look-ups in the tables of the closure
    ``elements`` of ``generators``: s h s^-1 is in N iff s h is in N s, and
    s h is s pushed through h's word.  On failure s h s^-1 is the y with
    y s = s h, named in ``check_normal``'s words."""
    kept, members, numbers = ramification
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


def lattice_quasietale_outside(members, divisors):
    """True iff no element outside the subgroup N, numbered ``members``,
    fixes a divisor: each of the stage's ``divisors`` is in N."""
    return members.issuperset(divisors)


def lattice_kappa(solves, n2):
    """n - dim of the intersection of the kernels of the fixed-locus
    ``solves``, on a stage of rank n2 = 2n.  For the solves of generators
    of a group N that fix divisors, that intersection is Fix(N), the one
    of all of N's divisor lattices: the anticanonical Kodaira dimension of
    the quotient by N."""
    return subtorus_kappa([sol.kernel for sol in solves], n2)


def invariant_complement(b: Lattice, holonomies, solver):
    """The complement C of B = ``fixed_lattice(holonomies)`` invariant under
    the group H the ``holonomies`` generate, and |det(B; C)|, the order of
    ker mu.  C is the saturation of V = sum of im(I - W): the complement of
    the lattice fixed by every W^T (B when every W is symmetric), whose
    complement rows the solver's object for it keeps.

    W v = v - (I - W) v keeps V, and I - W W' = (I - W) + W (I - W') puts
    each im(I - W), W in H, in V.  For an H-invariant inner product V is
    then the orthogonal of B, an invariant complement.  Over Q the
    representation is semisimple with fixed part B, so B has only one."""
    n2 = b.ambient_rank
    transposes = [tuple(zip(*w)) for w in holonomies]
    annihilator = b if transposes == holonomies else fixed_lattice(transposes, n2)
    c = Lattice(n2, solver.lattice(annihilator).complement_rows)
    if b.rank + c.rank != n2:
        raise CertificateError("complement has wrong rank")
    index = abs_determinant(b.basis_rows() + c.basis_rows())
    if index == 0:
        raise CertificateError("B + C is not of finite index")
    return c, index


def split_action(n_order, n_generators, b: Lattice, c: Lattice, ker_mu_order):
    """Split N = <n_generators>, of order ``n_order``, along B x C: the order
    |N| |ker mu| of N-tilde, the group of lifts of N to B x C, once
    certified, and the restrictions of ``n_generators`` to C, in their
    order, which generate N_C, a group of order |N|.

    Coordinates on B x C are (beta, gamma) with a = B^T beta + C^T gamma,
    the addition isogeny mu, whose kernel ker mu is read off the Smith form
    of [B^T C^T].  C is saturated, so U C^T V = [I 0]^T and L = V U[:rank C]
    is an integer left inverse of C^T.  W|_C = L W C^T is formed only for
    each distinct holonomy of a generator of N, and must satisfy
    C^T W|_C = W C^T.  Then the generators keep C, so N does, and
    W -> L W C^T is a homomorphism on N's holonomies.

    Each generator t_a . W restricts to r = t_gamma . W|_C on C, gamma the
    solution of C^T gamma = a (mod Z^N), solved once per distinct a of a
    generator and checked by one product: a reflection's a is in
    (I - W) R^N + Z^N, inside C_R + Z^N.  Then every element of N
    restricts, as a = C^T gamma_a and b = C^T gamma_b give
    a + W b = C^T (gamma_a + W|_C gamma_b).  gamma is unique, as C is
    saturated, so r is a homomorphism on N, one-to-one as N fixes B and
    B + C has finite index: N_C = r(N) has order |N|, and no restriction
    of an element that is not a generator is formed.  g lifts to
    t_(0, gamma) . diag(I, W|_C).
    """
    n2 = b.ambient_rank
    bt = mat_transpose(b.basis_rows())
    ct = mat_transpose(c.basis_rows())
    m = [bt[i] + ct[i] for i in range(n2)]  # columns: B basis then C basis
    ker_sol = solve_factored(factor_affine(m, b.rank + c.rank), TorsionPoint.zero(n2))
    if not ker_sol.nonempty or ker_sol.component_count != ker_mu_order:
        raise CertificateError("kernel of the addition isogeny has wrong order")

    # one factorisation of C^T serves every translation of a generator
    c_factors = factor_affine(ct, c.rank)
    u, _, v, _ = c_factors
    left = mat_mul(v, u[:c.rank])
    gammas = {}  # each distinct translation a of a generator -> gamma
    for g in n_generators:
        if g.translation not in gammas:
            sol = solve_factored(c_factors, g.translation)
            gamma = sol.particular if sol.nonempty else None
            if gamma is None or gamma.apply_matrix(ct) != g.translation:
                raise CertificateError(f"kept generator {g} of N does not restrict to C")
            gammas[g.translation] = gamma
    restricted = {}  # each distinct holonomy W of a generator -> W|_C
    for w in dict.fromkeys(g.matrix for g in n_generators):
        w_ct = mat_mul(w, ct)
        w_c = restricted[w] = tuple(map(tuple, mat_mul(left, w_ct)))
        if mat_mul(ct, w_c) != w_ct:
            raise CertificateError("complement is not invariant")
    n_c_generators = [LatticeElement(restricted[g.matrix], gammas[g.translation])
                      for g in n_generators]

    on_b = tuple(map(tuple, identity_matrix(n2)[:b.rank]))
    lifts = []
    for g, r in zip(n_generators, n_c_generators):  # t_(0, gamma) . diag(I, W|_C)
        rows = on_b + tuple((0,) * b.rank + row for row in r.matrix)
        p = TorsionPoint.over((0,) * b.rank + r.translation.num, r.translation.den)
        lifts.append((g, LatticeElement(rows, p)))
    _check_n_tilde_group(m, lifts, ker_sol.generators)
    return n_order * ker_mu_order, n_c_generators


def _check_n_tilde_group(m, lifts, ker_generators):
    """Certify that N-tilde, the closure of the ker mu translations and of a
    lift t = t_p . diag(I, W|_C), p = (0, gamma), of each kept generator
    g = t_a . W of N, the pairs (g, t) of ``lifts``, is the group of all
    lifts of N to B x C: mu(p) = a, mu the addition map ``m`` = [B^T C^T],
    and diag(I, W|_C) keeps ker mu, checked on its Smith generators
    ``ker_generators``.

    The lifts of g, the maps t with mu . t = g . mu, are the
    t_(p + k) . diag(I, W|_C), k in ker mu.  With every element of N
    restricted to C, as its generators are, ker mu of the order given and
    C^T W|_C = W C^T, as the split certified, the lifts of N are
    |N| |ker mu| maps, closed under products.  Then these checks put
    N-tilde inside them; it maps onto N, and onto 1 exactly on the ker mu
    translations, so it has |N| |ker mu| elements and is all the lifts: the
    certificate of closing N-tilde and comparing it with every splitting
    of every element of N."""
    prefix = "N-tilde is not an extension of N by ker mu: "
    for g, lift in lifts:
        if lift.translation.apply_matrix(m) != g.translation:
            raise CertificateError(prefix + f"{lift} does not lift generator {g} of N")
        for k in ker_generators:
            if not k.apply_matrix(lift.matrix).apply_matrix(m).is_zero():
                point = ", ".join(map(str, k.coords))
                raise CertificateError(prefix + f"the lift {lift} of generator {g} of N "
                                       f"moves [{point}] off ker mu")


# ---------------------------------------------------------------------------
# the decomposition algorithm

def _divisors_after_split(n_c_generators, rank, solver):
    """The fixed-locus solves of the restrictions of N's kept generators to
    C, of rank ``rank``: each must have a nonempty fixed locus with
    rank(I - W) <= 2, read off the Smith divisors of its solve, and they
    must fix no vector of C.  The split certified that they generate N_C,
    isomorphic to N, so none is the identity, and N_C is its own
    ramification subgroup with B = 0."""
    solves = []
    for r in n_c_generators:
        sol = element_fixed_solution(r, solver)
        if not sol.nonempty or len(sol.divisors) > 2:
            raise CertificateError(f"restriction {r} of a kept generator of N fixes no "
                                   "divisor of C")
        solves.append(sol)
    if fixed_lattice(list(dict.fromkeys(r.matrix for r in n_c_generators)), rank).rank:
        raise CertificateError("N_C fixes a vector of C")
    return solves


def _fano_part(n_generators, n_order, solves, embedding, ambient_rank):
    """The Q-Fano part, N = <``n_generators``> of order ``n_order`` on the
    lattice with basis ``embedding``, and its stage, once the fixed-locus
    ``solves`` of N's kept generators pass the kappa certificate: their
    divisor lattices meet in Fix(N), as do those of every divisor of N."""
    n2 = len(embedding)
    if lattice_kappa(solves, n2) != n2 // 2:
        raise CertificateError("final part fails the Q-Fano kappa certificate")
    return (SublatticeAction(tuple(n_generators), n_order, embedding, ambient_rank),
            StageCertificate(n_order, 1, True, True, None))


def _decompose_level(elements, generators, tables, rep, n2, solver) -> DecompositionResult:
    """Decompose the closed group ``elements`` on Z^n2, the closure of
    ``generators`` with ``ClosureTables`` ``tables``, solving its fixed
    points by the ``FixedPointSolver`` ``solver``: it is quasietale,
    Q-Fano, or split along B x C with N_C the Q-Fano part.  Its divisors
    are decided once per class of ``rep``, the class partition
    ``certified_class_rep`` certified on the tables."""
    divisors = class_divisors(elements, rep, solver)
    ramification = ramification_on_tables(elements, tables, divisors)
    check_normal_on_tables(elements, generators, tables, ramification)
    n_generators, members, _ = ramification
    if not lattice_quasietale_outside(members, divisors):
        raise CertificateError("quotient by the ramification subgroup is not quasietale")

    n_order = len(members)
    if n_order == 1:
        # quasietale case: the whole variety is abelian; the empty part's
        # order is printed as 0
        return DecompositionResult((Lattice.full(n2),) if n2 else (), n2 // 2,
                                   SublatticeAction((), 0, (), n2), ())

    # a vector fixed by the generators of N is fixed by N
    holonomies = list(dict.fromkeys(e.matrix for e in n_generators))
    b = fixed_lattice(holonomies, n2)
    if b.rank == 0:
        solves = [element_fixed_solution(g, solver) for g in n_generators]
        fano, stage = _fano_part(n_generators, n_order, solves,
                                 tuple(map(tuple, identity_matrix(n2))), n2)
        return DecompositionResult((), 0, fano, (stage,))

    c, ker_mu = invariant_complement(b, holonomies, solver)
    n_tilde_order, n_c_generators = split_action(n_order, n_generators, b, c, ker_mu)
    fano, stage = _fano_part(n_c_generators, n_order,
                             _divisors_after_split(n_c_generators, c.rank, solver), c.basis, n2)
    split = StageCertificate(n_order, ker_mu, True, None, n_tilde_order)
    return DecompositionResult((b,), b.rank // 2, fano, (split, stage))


def decompose(group) -> DecompositionResult:
    """Build the quasietale cover (abelian factor) x (Q-Fano part) for the
    quotient by the closed group, sharing the group's solver, whose entries
    depend on (W, a) alone, and its certified class partition."""
    return _decompose_level(group.elements, group.generators, group.tables, group.class_rep,
                            group.variety.ambient_rank, group.solver)
