import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fqav import linalg
from fqav.classify import irregularity
from fqav.linalg import (
    Lattice,
    TorsionPoint,
    determinant,
    fixed_lattice,
    identity_matrix,
    integer_kernel,
    intersect_lattices,
    mat_mul,
    mat_sub,
    mat_vec,
    orthogonal_complement_rows,
    saturate,
    snf,
    solve_affine_mod_lattice,
    solve_rational,
    elementary_divisors,
)
from fqav.variety import rational_rep, subtorus_kappa


def minor_gcd_divisors(m):
    """Independent oracle for elementary divisors: d_k = gcd of all k x k
    minors, s_k = d_k / d_(k-1)."""
    nr, nc = len(m), len(m[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(int(determinant(sub))))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def assert_snf_contract(m):
    s, u, v = snf(m)
    nr, nc = len(m), len(m[0]) if m else 0
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [s[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zero before nonzero on the diagonal"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return diag


class TestSnf:
    def test_identity(self):
        s, u, v = snf(identity_matrix(2))
        assert s == identity_matrix(2)
        assert u == identity_matrix(2)
        assert v == identity_matrix(2)

    def test_diag_2_3(self):
        diag = assert_snf_contract([[2, 0], [0, 3]])
        assert diag == [1, 6]
        assert minor_gcd_divisors([[2, 0], [0, 3]]) == [1, 6]

    def test_one_minus_rot(self):
        m = [[1, 1], [-1, 1]]
        diag = assert_snf_contract(m)
        assert diag == [1, 2]
        assert minor_gcd_divisors(m) == [1, 2]

    def test_rectangular(self):
        assert_snf_contract([[2, 4, 6], [4, 8, 12]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_matches_minor_oracle(self, nr, nc, data):
        m = [[data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)]
        diag = assert_snf_contract(m)
        assert [d for d in diag if d] == minor_gcd_divisors(m)


def leibniz_determinant(m):
    """Independent oracle: the sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for i, j in itertools.combinations(range(len(m)), 2)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


class TestElimination:
    """determinant and solve_rational share one elimination routine;
    integer_kernel is checked against the same rank."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_determinant_matches_leibniz(self, n, data):
        m = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == leibniz_determinant(m)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_kernel_and_solve(self, nr, nc, data):
        m = [[data.draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        rhs = [data.draw(st.integers(-3, 3)) for _ in range(nr)]
        kernel = integer_kernel(m, nc).basis_rows()
        assert all(not any(mat_vec(m, v)) for v in kernel)
        rank = len(elementary_divisors(m))
        assert len(kernel) == nc - rank
        x = solve_rational(m, rhs)
        # solvable iff appending rhs as a column keeps the rank
        augmented = [row + [b] for row, b in zip(m, rhs)]
        assert (x is not None) == (len(elementary_divisors(augmented)) == rank)
        if x is not None:
            assert mat_vec(m, x) == rhs


def smith_kernel(m, nc):
    """The kernel as the Smith-form solve reads it off V.  An empty matrix
    has no row to give its width, so then the zero point of Z^nc gives it."""
    return solve_affine_mod_lattice(m, TorsionPoint.zero(len(m) if m else nc)).kernel


@st.composite
def low_rank_stacks(draw):
    """Up to 48 x 6 integer matrices, the empty one included, whose rows are
    small combinations of at most ``nc`` base rows: tall stacks with a
    kernel, like the stacked I - W of ``fixed_lattice``."""
    nc = draw(st.integers(0, 6))
    nr = draw(st.integers(0, 48))
    entries = st.integers(-4, 4)
    base = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=1, max_size=max(nc, 1)))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                    max_size=len(base)), min_size=nr, max_size=nr))
    m = [[sum(c * b[j] for c, b in zip(row, base)) for j in range(nc)] for row in coeffs]
    return m, nc


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(low_rank_stacks())
    def test_matches_smith_kernel(self, case):
        m, nc = case
        assert integer_kernel(m, nc) == smith_kernel(m, nc)

    def test_lattice_paths_never_call_snf(self, sign_rot4_group, monkeypatch):
        group = sign_rot4_group
        n2 = group.variety.ambient_rank
        reps = [rational_rep(phi) for phi in group.holonomy_group]
        stacked = [row for w in reps for row in mat_sub(identity_matrix(n2), w)]
        fixed = [fixed_lattice([w], n2) for w in reps]
        divisors = [lat for lat in fixed if lat.rank == n2 - 2]
        half = Lattice.from_vectors(n2, [[2, 0, 0, 0], [0, 2, 2, 0]])

        def run():
            return (integer_kernel(stacked, n2),
                    fixed_lattice(reps, n2),
                    [saturate(lat) for lat in fixed + [half]],
                    [intersect_lattices(a, b) for a in fixed + [half] for b in fixed],
                    [orthogonal_complement_rows(lat) for lat in fixed + [half]],
                    subtorus_kappa(divisors, n2),
                    irregularity(group))

        expected = run()
        assert divisors and expected[-2:] == (1, 0)

        def no_snf(_matrix):
            raise AssertionError("snf called on a lattice path")
        monkeypatch.setattr(linalg, "snf", no_snf)
        assert run() == expected


class TestSaturate:
    def test_scaling(self):
        lat = Lattice.from_vectors(2, [[2, 0]])
        assert saturate(lat) == Lattice.from_vectors(2, [[1, 0]])

    def test_index_two_sublattice(self):
        lat = Lattice.from_vectors(2, [[1, 1], [1, -1]])
        assert elementary_divisors([[1, 1], [1, -1]]) == [1, 2]
        assert saturate(lat) == Lattice.full(2)

    def test_idempotent_and_rank_preserving(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            vecs = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
            lat = Lattice.from_vectors(n, vecs)
            sat = saturate(lat)
            assert sat.rank == lat.rank
            assert saturate(sat) == sat
            assert Lattice.from_vectors(n, sat.basis_rows() + lat.basis_rows()) == sat
            # quotient by the saturation is torsion-free
            if sat.rank:
                assert all(d == 1 for d in elementary_divisors(sat.basis_rows()))


class TestIntersect:
    def test_self(self):
        lat = Lattice.from_vectors(3, [[1, 0, 2], [0, 1, 1]])
        assert intersect_lattices(lat, lat) == saturate(lat)

    def test_transverse_planes_in_z4(self):
        l1 = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        l2 = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert intersect_lattices(l1, l2).rank == 0

    def test_rational_span_intersection(self):
        l1 = Lattice.from_vectors(2, [[1, 0], [0, 2]])
        l2 = Lattice.from_vectors(2, [[0, 1]])
        assert intersect_lattices(l1, l2) == Lattice.from_vectors(2, [[0, 1]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_in_both_spans_with_dimension_formula(self, n, data):
        vectors = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           max_size=n)
        l1 = Lattice.from_vectors(n, data.draw(vectors))
        l2 = Lattice.from_vectors(n, data.draw(vectors))
        meet = intersect_lattices(l1, l2)
        assert all(l1.spans_rationally(v) and l2.spans_rationally(v)
                   for v in meet.basis_rows())
        rank_sum = len(elementary_divisors(l1.basis_rows() + l2.basis_rows()))
        assert meet.rank == l1.rank + l2.rank - rank_sum


def brute_force_torus_solutions(m, point, q):
    """Enumerate x with coordinates in (1/q)Z satisfying M x == a (mod Z)."""
    n = len(m[0])
    count = 0
    target = [Fraction(c) for c in point.coords]
    for combo in itertools.product(range(q), repeat=n):
        x = [Fraction(c, q) for c in combo]
        ok = all(
            (sum(m[i][j] * x[j] for j in range(n)) - target[i]).denominator == 1
            for i in range(len(m))
        )
        if ok:
            count += 1
    return count


class TestSolveAffine:
    def test_order_four_rotation_factor(self):
        m = [[1, 1], [-1, 1]]
        sol = solve_affine_mod_lattice(m, TorsionPoint.zero(2))
        assert sol.nonempty
        assert sol.kernel.rank == 0
        assert sol.component_count == 2
        assert [tuple(r.coords) for r in sol.representatives] == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]
        assert brute_force_torus_solutions(m, TorsionPoint.zero(2), 4) == 2

    def test_fixed_locus_of_id_times_minus_one(self):
        m = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        sol = solve_affine_mod_lattice(m, TorsionPoint.zero(4))
        assert sol.nonempty
        assert sol.kernel.rank == 2
        assert sol.component_count == 4

    def test_pure_translation_unsolvable(self):
        m = [[0] * 4 for _ in range(4)]
        a = TorsionPoint.of([Fraction(1, 3), 0, 0, 0])
        sol = solve_affine_mod_lattice(m, a)
        assert not sol.nonempty
        assert sol.component_count == 0

    def test_every_representative_solves(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            a = TorsionPoint.of([Fraction(rng.randint(0, 3), 4) for _ in range(n)])
            sol = solve_affine_mod_lattice(m, a)
            for rep in sol.representatives:
                residue = [
                    sum(m[i][j] * rep.coords[j] for j in range(n)) - a.coords[i]
                    for i in range(n)
                ]
                assert all(r.denominator == 1 for r in residue)

    def test_brute_force_counts(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 2)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            a = TorsionPoint.of([Fraction(rng.randint(0, 1), 2) for _ in range(n)])
            sol = solve_affine_mod_lattice(m, a)
            divisors = 1
            for d in elementary_divisors(m):
                divisors *= d
            q = 2 * max(divisors, 1) * 2
            expected = sol.component_count * (q ** sol.kernel.rank) if sol.nonempty else 0
            assert brute_force_torus_solutions(m, a, q) == expected
