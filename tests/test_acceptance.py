"""End-to-end acceptance suite.

Each criterion is a single test function; a summary hook in conftest prints
one pass/fail line per criterion after the run.  All arithmetic is exact.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from fqav.action import (
    close_group,
    descend_multiplication,
    fixed_locus,
    holonomy_order,
)
from fqav.classify import Analysis
from fqav.cyclotomic import eigen_multiplicity
from fqav.decompose import decompose, decompose_fano_part
from fqav.errors import InputError
from fqav.linalg import (
    TorsionPoint,
    identity_minus,
    mat_mul,
    snf,
    solve_affine_mod_lattice,
    Lattice,
)
from fqav.variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    rational_rep,
)

from conftest import element_age, holonomy, identity_blocks, nontrivial_elements
from oracles import analytic_rep, determinant, group_field, saturate


# ---------------------------------------------------------------------------
# random generation helpers (deterministic seeds)

FACTOR_POOL = (
    EllipticFactor("zeta4"),
    EllipticFactor("zeta6"),
    EllipticFactor("generic", "E"),
    EllipticFactor("generic", "F"),
)


def random_variety(rng, max_n=3):
    n = rng.randint(1, max_n)
    return AbelianVarietyModel.of(*(rng.choice(FACTOR_POOL) for _ in range(n)))


def random_holonomy(rng, variety, max_order):
    """A finite-order automorphism of the modeled variety, or None."""
    n = variety.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if variety.factors[i].hom_key(variety.factors[j]) is None:
                row.append((0, 0))
            elif variety.factors[i].has_cm:
                row.append((rng.randint(-1, 1), rng.randint(-1, 1)))
            else:
                row.append((rng.randint(-1, 1), 0))
        rows.append(row)
    try:
        phi = EndoBlockMatrix.from_rows(variety, rows)
    except InputError:
        return None
    if abs(determinant(rational_rep(phi))) != 1:
        return None
    power = phi
    for k in range(1, max_order + 1):
        if power.blocks == identity_blocks(variety.n):
            return phi
        power = power.compose(phi)
    return None


def random_generator(rng, variety, max_order, denoms=(1, 2, 3, 4)):
    """A generator (blocks, translation) of finite order on the modeled
    variety, with translation denominators from ``denoms``, or None."""
    phi = random_holonomy(rng, variety, max_order)
    if phi is None:
        return None
    coords = []
    for _ in range(variety.ambient_rank):
        d = rng.choice(denoms)
        coords.append(Fraction(rng.randrange(d), d))
    return phi.blocks, TorsionPoint.of(coords)


def brute_force_count(m, point, q):
    """Number of x in ((1/q)Z / Z)^N with M x == a (mod Z), via numpy."""
    big = np.array([[int(x) for x in row] for row in m], dtype=np.int64)
    target = np.array([int(c * q) for c in point.coords], dtype=np.int64)
    n = len(m)
    grid = np.indices((q,) * n).reshape(n, -1).T
    residues = (grid @ big.T - target) % q
    return int(np.count_nonzero(np.all(residues == 0, axis=1)))


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_rot4_square_quotient(rot4_square_group):
    group = rot4_square_group
    gen = group.generators[0]
    assert element_age(gen, group.variety) == Fraction(1, 2)
    r = Analysis(group).classification
    assert r.quasietale is True
    assert r.q_abelian is True
    assert r.reid_tai_holds is False
    assert r.uniruled is True
    assert r.canonical is False
    assert r.q_x == 0
    assert r.q_circle == 2
    assert r.kappa_anticanonical == 0


def test_criterion_2_sign_rot4_quotient(sign_rot4_group):
    group = sign_rot4_group
    r = Analysis(group).classification
    assert r.kappa_anticanonical == 1
    assert r.q_fano is False
    assert r.q_abelian is False
    assert r.q_x == 0
    assert r.q_circle == 1
    result = decompose(group)
    assert len(result.abelian_factors) == 1
    assert result.abelian_factors[0].rank == 2
    assert result.fano_part.dim == 1
    # the remainder satisfies the full-kappa certificate on its own
    again = decompose_fano_part(result.fano_part)
    assert again.fano_part.dim == 1
    assert again.stages[-1].fano_kappa_check is True


def test_criterion_3_kummer(kummer_group):
    group = kummer_group
    g = nontrivial_elements(group)[0]
    loc = fixed_locus(g, group.solver)
    assert loc.dim == 0
    assert len(loc.representatives) == 16
    # oracle: 2-torsion count by brute force
    rho = rational_rep(holonomy(g, group.variety))
    m = identity_minus(rho)
    assert brute_force_count(m, g.translation, 2) == 16
    assert element_age(g, group.variety) == Fraction(1)
    r = Analysis(group).classification
    assert r.quasietale is True
    assert r.reid_tai_holds is True
    assert r.canonical is True
    assert r.kappa_zero is True


def test_criterion_4_projective_line(p1_group):
    group = p1_group
    kappa, ample = Analysis(group).kappa
    assert kappa == 1 == group.variety.n
    assert ample
    r = Analysis(group).classification
    assert r.q_fano is True
    assert r.q_circle == 0
    result = decompose(group)
    assert result.abelian_factors == ()


def test_criterion_5_bielliptic(bielliptic_group):
    group = bielliptic_group
    for g in nontrivial_elements(group):
        assert not fixed_locus(g, group.solver).nonempty
    r = Analysis(group).classification
    assert r.quasietale is True
    assert r.q_abelian is True
    assert r.q_x == 1
    assert descend_multiplication(group) == 3
    # exact commutation certificate: [m] . g == g . [m] on the torus
    m = 3
    for g in group.elements:
        rho = rational_rep(holonomy(g, group.variety))
        lhs = g.translation.scaled(m)
        rhs = g.translation
        diff = lhs - rhs
        assert all(c.denominator == 1 for c in diff.coords)
        assert tuple(map(tuple, rho)) == g.matrix


def test_criterion_6_linear_algebra_properties():
    rng = random.Random(20260823)

    # 500 random integer matrices up to 6x6: Smith normal form contract
    for _ in range(500):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        s, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [s[i][i] for i in range(min(nr, nc))]
        assert all(s[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
        nz = [d for d in diag if d]
        assert diag[: len(nz)] == nz
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        # saturation idempotence on the row lattice
        lat = Lattice.from_vectors(nc, m)
        sat = saturate(lat)
        assert saturate(sat) == sat
        assert sat.rank == lat.rank

    # 100 random affine automorphisms of order <= 12, n <= 3: brute-force
    # torsion-grid counts match the component/kernel prediction
    done = 0
    while done < 100:
        variety = random_variety(rng)
        gen = random_generator(rng, variety, max_order=12)
        if gen is None:
            continue
        blocks, translation = gen
        rho = rational_rep(EndoBlockMatrix.from_rows(variety, blocks))
        m = identity_minus(rho)
        sol = solve_affine_mod_lattice(m, translation)
        q = 1
        for c in translation.coords:
            q = lcm(q, c.denominator)
        for rep in sol.representatives:
            for c in rep.coords:
                q = lcm(q, c.denominator)
        q = lcm(q, 2)
        if q ** len(rho) > 200_000:
            continue
        predicted = (sol.component_count * q ** sol.kernel.rank
                     if sol.nonempty else 0)
        assert brute_force_count(m, translation, q) == predicted
        done += 1


def test_criterion_7_spectra(rot4_square_group, sign_rot4_group, kummer_group,
                             p1_group, bielliptic_group):
    for group in (rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group):
        field = group_field(group)
        n = group.variety.n
        by_hol = {holonomy(g, group.variety): g for g in group.elements}
        roots = []
        for d in range(1, field.m + 1):
            if field.m % d:
                continue
            for k in range(d):
                if d == 1 or gcd(k, d) == 1:
                    roots.append(field.root_of_unity(d, k if d > 1 else 0))
        for g in group.elements:
            phi = holonomy(g, group.variety)
            mat_a = analytic_rep(phi, field)
            mat_r = [[field.rational(x) for x in row] for row in rational_rep(phi)]
            mults = {}
            total = 0
            for z in roots:
                mult = eigen_multiplicity(mat_a, z)
                mults[z] = mult
                total += mult
            # analytic multiplicities fill the tangent space
            assert total == n
            # rational vs analytic pairing: m_r(z) = m_a(z) + m_a(conj z)
            for z in roots:
                assert eigen_multiplicity(mat_r, z) == \
                    mults[z] + mults[z.conjugate()]
            # age(g) + age(g^-1) = number of eigenvalues != 1
            inv = phi
            while inv.compose(phi).blocks != identity_blocks(n):
                inv = inv.compose(phi)
            pair = element_age(g, group.variety) + element_age(by_hol[inv], group.variety)
            assert pair == n - mults[field.one()]


def test_criterion_8_cross_theorem_consistency(rot4_square_group, sign_rot4_group,
                                               kummer_group, p1_group,
                                               bielliptic_group):
    rng = random.Random(4861)
    groups = [rot4_square_group, sign_rot4_group, kummer_group, p1_group,
              bielliptic_group]
    while len(groups) < 55:
        variety = random_variety(rng)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_generator(rng, variety, max_order=12, denoms=(1, 1, 2))
            if g is not None:
                gens.append(g)
        if not gens:
            continue
        try:
            group = close_group(variety, gens, cap=48)
        except InputError:
            continue
        groups.append(group)

    for group in groups:
        n = group.variety.n
        # the classification raises CertificateError on any internal
        # disagreement; re-assert the headline equivalences explicitly
        r = Analysis(group).classification
        assert r.q_abelian == r.quasietale == (r.q_circle == n)
        assert r.q_fano == (r.kappa_anticanonical == n) == (r.q_circle == 0)
        assert 0 <= r.q_circle <= n
        assert r.q_x <= r.q_circle
        assert r.kappa_anticanonical + r.q_circle >= n
        result = decompose(group)
        assert all(s.quasietale_outside_check for s in result.stages)
        again = decompose_fano_part(result.fano_part)
        assert again.total_abelian_dim == 0
        assert again.fano_part.dim == result.fano_part.dim
