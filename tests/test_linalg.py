import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from fqav import AbelianVarietyModel, EllipticFactor, linalg
from fqav.action import close_group, fixed_locus
from fqav.classify import irregularity
from fqav.decompose import decompose
from fqav.linalg import (
    FixedPointSolver,
    Lattice,
    TorsionPoint,
    abs_determinant,
    fixed_lattice,
    hermite_basis,
    hermite_eliminate,
    identity_matrix,
    identity_minus,
    integer_kernel,
    is_reduced_hermite,
    mat_mul,
    mat_transpose,
    mat_vec,
    orthogonal_complement_rows,
    snf,
    solve_affine_mod_lattice,
    factor_affine,
    matrix_rank,
    solve_factored,
    traces_allow_low_rank,
)
from fqav.variety import EndoBlockMatrix, subtorus_kappa

from conftest import as_generator, elementary_divisors, generator
from oracles import (
    determinant,
    gauss_jordan_rank,
    lattice_coordinates,
    saturate,
    solve_rational,
)
from test_action import finite_order_holonomies


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


def naive_product(a, b, width):
    """Independent oracle: (AB)_ij = sum_k a_ik b_kj, for B with ``width``
    columns."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(width)]
            for i in range(len(a))]


ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def product_pairs(draw):
    """A (n x k) and B (k x m) with n, k, m in 0..4, int or Fraction entries,
    some rows of A and columns of B zeroed."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(rows, cols):
        return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]

    a, b = matrix(n, k), matrix(k, m)
    for i in range(n):
        if draw(st.booleans()):
            a[i] = [0] * k
    for j in range(m):
        if draw(st.booleans()):
            for row in b:
                row[j] = 0
    return a, b, m


class TestMatMul:
    @settings(max_examples=300, deadline=None)
    @given(product_pairs())
    def test_matches_triple_sum(self, pair):
        a, b, m = pair
        product = mat_mul(a, b)
        # an empty B has no rows to give the width; its product has empty rows
        assert product == naive_product(a, b, m if b else 0)
        assert len(product) == len(a)

    def test_shapes(self):
        assert mat_mul([], [[1, 2]]) == []
        assert mat_mul([[], []], []) == [[], []]
        assert mat_mul([[1, 2]], [[0], [0]]) == [[0]]
        assert mat_mul([[0, 0], [0, 3]], [[1, 2, 3], [4, 5, 6]]) == [[0, 0, 0], [12, 15, 18]]
        half = Fraction(1, 2)
        assert mat_mul([[half, 0]], [[2, 4], [7, 9]]) == [[1, 2]]
        # the product is a new matrix: it shares no row with B
        b = [[1, 0], [0, 1]]
        product = mat_mul(identity_matrix(2), b)
        product[0][0] = 5
        assert b == [[1, 0], [0, 1]]


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
    """``abs_determinant`` against the Leibniz sum, which also checks the
    oracles' determinant; ``integer_kernel`` and the oracles'
    ``solve_rational`` against the Smith rank."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.data())
    def test_determinant_matches_leibniz(self, n, data):
        m = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):
            # a row made of the others is singular
            coeffs = [data.draw(st.integers(-2, 2)) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
        det = leibniz_determinant(m)
        assert determinant(m) == det
        assert abs_determinant(m) == abs(det)

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


def reference_hermite_basis(vectors, width):
    """Oracle: the row HNF by repeated division steps, each column cleared
    by subtracting multiples of its least nonzero entry until one is left
    (the method ``hermite_basis`` used before its extended-gcd steps)."""
    rows = [list(map(int, vec)) for vec in vectors if any(vec)]
    pivots = []
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            for i in nz:
                if i != i0:
                    q = rows[i][c] // rows[i0][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
        nz = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pivots.append(c)
        r += 1
    rows = rows[:r]
    for i in range(r - 2, -1, -1):
        for k in range(i + 1, r):
            c = pivots[k]
            q = rows[i][c] // rows[k][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
    return rows


@st.composite
def hermite_inputs(draw):
    """Integer vectors of one width, with zero rows, repeated and negated
    rows (negative pivots) mixed in, or the [M^T | I] rows that
    ``integer_kernel`` puts in Hermite form."""
    width = draw(st.integers(0, 7))
    entries = st.integers(-9, 9)
    if width and draw(st.booleans()):
        nr = draw(st.integers(0, width))
        cols = width - nr
        m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=nr, max_size=nr))
        return [[m[i][j] for i in range(nr)] + [int(j == k) for k in range(cols)]
                for j in range(cols)], width
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(("none", "zero", "repeat", "negate", "multiple")))
        if kind == "zero":
            extra.append([0] * width)
        elif kind == "repeat":
            extra.append(list(row))
        elif kind == "negate":
            extra.append([-x for x in row])
        elif kind == "multiple":
            extra.append([draw(st.integers(-3, 3)) * x for x in row])
    vectors = rows + extra
    return draw(st.permutations(vectors)) if vectors else vectors, width


@st.composite
def reduced_hermite_rows(draw):
    """A reduced row HNF of some width: positive pivots moving strictly
    right, every entry above a pivot in [0, pivot), any entry right of it."""
    width = draw(st.integers(0, 7))
    pivots = sorted(draw(st.sets(st.integers(0, width - 1), max_size=width))) if width else []
    rows = [[0] * c + [draw(st.integers(1, 9))]
            + draw(st.lists(st.integers(-9, 9), min_size=width - c - 1, max_size=width - c - 1))
            for c in pivots]
    for i, c in enumerate(pivots):
        for above in rows[:i]:
            above[c] = draw(st.integers(0, rows[i][c] - 1))
    return rows, width


class TestReducedInput:
    """``hermite_basis`` returns rows that already are the reduced row HNF
    as given, and eliminates any others."""

    @settings(max_examples=300, deadline=None)
    @given(hermite_inputs())
    def test_matches_full_elimination(self, case):
        vectors, width = case
        eliminated = hermite_eliminate([list(v) for v in vectors if any(v)], width)
        assert hermite_basis(vectors, width) == eliminated
        assert is_reduced_hermite(eliminated)
        assert hermite_basis(eliminated, width) == eliminated

    @settings(max_examples=300, deadline=None)
    @given(reduced_hermite_rows(), st.data())
    def test_reduced_rows_come_back_as_given(self, case, data):
        rows, width = case
        assert is_reduced_hermite(rows)
        assert hermite_eliminate([list(r) for r in rows], width) == rows
        # zero rows are dropped, and the nonzero rows kept as they are
        padded = list(rows)
        for _ in range(data.draw(st.integers(0, 2))):
            padded.insert(data.draw(st.integers(0, len(padded))), [0] * width)
        assert hermite_basis(padded, width) == rows

    def test_unreduced_rows_are_eliminated(self):
        # a negative pivot, an entry above a pivot out of [0, pivot), a
        # pivot not right of the one above, and one below a pivot
        for rows in ([[-1, 0]], [[1, 2], [0, 2]], [[1, -1], [0, 2]], [[0, 1], [1, 0]],
                     [[1, 0], [1, 1]]):
            assert not is_reduced_hermite(rows)
            assert hermite_basis(rows, 2) == reference_hermite_basis(rows, 2)


class TestAgainstOldKernels:
    """``hermite_basis`` and ``matrix_rank`` against the methods they
    replaced, kept test-side as oracles."""

    @settings(max_examples=300, deadline=None)
    @given(hermite_inputs())
    def test_hermite_basis_matches_division_steps(self, case):
        vectors, width = case
        assert hermite_basis(vectors, width) == reference_hermite_basis(vectors, width)

    def test_hermite_basis_examples(self):
        # a gcd step is needed (neither of 4 and 6 divides the other), the
        # first pivot is negative, and a zero and a repeated row are
        # dropped: (-4, 2, 1) + (6, 0, 3) and 3 (-4, 2, 1) + 2 (6, 0, 3)
        vectors = [[0, 0, 0], [-4, 2, 1], [6, 0, 3], [-4, 2, 1]]
        assert hermite_basis(vectors, 3) == reference_hermite_basis(vectors, 3) \
            == [[2, 2, 4], [0, 6, 9]]
        assert hermite_basis([[-3, 5]], 2) == [[3, -5]]
        assert hermite_basis([], 4) == hermite_basis([[0, 0]], 2) == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_rank_matches_gauss_jordan(self, nr, nc, data):
        if data.draw(st.booleans()):
            m = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
                                   min_size=nr, max_size=nr))
        else:
            m, nc = data.draw(low_rank_stacks())
        assert matrix_rank(m) == gauss_jordan_rank(m)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rank_of_group_elements(self, data):
        w = data.draw(finite_order_holonomies()).matrix
        m = identity_minus(w)
        assert matrix_rank(m) == gauss_jordan_rank(m)


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_basis_is_its_own_hermite_form(self, nr, nc, data):
        # the U-parts of the kernel rows of [M^T | I] are kept as they come
        # out of that one Hermite form, with no second reduction
        if data.draw(st.booleans()):
            m = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
                                   min_size=nr, max_size=nr))
        else:
            m, nc = data.draw(low_rank_stacks())
        basis = integer_kernel(m, nc).basis
        assert [list(row) for row in basis] == hermite_basis(basis, nc)

    def test_lattice_paths_never_call_snf(self, sign_rot4_group, monkeypatch):
        group = sign_rot4_group
        n2 = group.variety.ambient_rank
        reps = list(dict.fromkeys(g.matrix for g in group.elements))
        stacked = [row for w in reps for row in identity_minus(w)]
        fixed = [fixed_lattice([w], n2) for w in reps]
        divisors = [lat for lat in fixed if lat.rank == n2 - 2]
        half = Lattice.from_vectors(n2, [[2, 0, 0, 0], [0, 2, 2, 0]])

        def run():
            return (integer_kernel(stacked, n2),
                    fixed_lattice(reps, n2),
                    [saturate(lat) for lat in fixed + [half]],
                    [common_kernel(a, b) for a in fixed + [half] for b in fixed],
                    [orthogonal_complement_rows(lat) for lat in fixed + [half]],
                    subtorus_kappa(divisors, n2),
                    irregularity(group))

        expected = run()
        assert divisors and expected[-2:] == (1, 0)

        def no_snf(_matrix):
            raise AssertionError("snf called on a lattice path")
        monkeypatch.setattr(linalg, "snf", no_snf)
        assert run() == expected


class TestCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_rational_solve(self, n, data):
        vectors = st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           max_size=n)
        lat = Lattice.from_vectors(n, data.draw(vectors))
        coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=lat.rank,
                                    max_size=lat.rank))
        v = [sum(c * row[j] for c, row in zip(coeffs, lat.basis)) for j in range(n)]
        # dividing or shifting moves v off the lattice, or off its span
        d = data.draw(st.sampled_from([1, 2, 3]))
        v = [x // d for x in v]
        v[0] += data.draw(st.integers(0, 1))
        if lat.rank:
            x = solve_rational(mat_transpose(lat.basis_rows()), v)
        else:
            x = None if any(v) else []
        in_lattice = x is not None and all(c.denominator == 1 for c in x)
        assert lattice_coordinates(lat, v) == ([int(c) for c in x] if in_lattice else None)


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


def common_kernel(l1, l2):
    """The saturated intersection of the rational spans of two lattices, as
    ``subtorus_kappa`` finds the common subtorus: the integer kernel of
    their stacked orthogonal complements."""
    return integer_kernel(orthogonal_complement_rows(l1) + orthogonal_complement_rows(l2),
                          l1.ambient_rank)


def in_span(lat, v):
    return solve_rational(mat_transpose(lat.basis_rows()), list(v)) is not None


class TestIntersect:
    def test_self(self):
        lat = Lattice.from_vectors(3, [[1, 0, 2], [0, 1, 1]])
        assert common_kernel(lat, lat) == saturate(lat)

    def test_transverse_planes_in_z4(self):
        l1 = Lattice.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
        l2 = Lattice.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert common_kernel(l1, l2).rank == 0

    def test_rational_span_intersection(self):
        l1 = Lattice.from_vectors(2, [[1, 0], [0, 2]])
        l2 = Lattice.from_vectors(2, [[0, 1]])
        assert common_kernel(l1, l2) == Lattice.from_vectors(2, [[0, 1]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_in_both_spans_with_dimension_formula(self, n, data):
        vectors = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           max_size=n)
        l1 = Lattice.from_vectors(n, data.draw(vectors))
        l2 = Lattice.from_vectors(n, data.draw(vectors))
        meet = common_kernel(l1, l2)
        assert all(in_span(l1, v) and in_span(l2, v) for v in meet.basis_rows())
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


# ---------------------------------------------------------------------------
# torsion points: the Fraction implementation they replaced is the oracle

def _reduce_mod1(frac):
    f = Fraction(frac)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class FractionPoint:
    """Oracle: a torsion point as Fraction coordinates reduced to [0, 1)."""

    coords: tuple

    @classmethod
    def of(cls, coords):
        return cls(tuple(_reduce_mod1(c) for c in coords))

    @property
    def order(self):
        return lcm(*[c.denominator for c in self.coords]) if self.coords else 1

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        return FractionPoint.of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FractionPoint.of(tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return FractionPoint.of(tuple(k * c for c in self.coords))

    def apply_matrix(self, m):
        return FractionPoint.of(tuple(mat_vec(m, list(self.coords))))

    def sort_key(self):
        return tuple((c.numerator, c.denominator) for c in self.coords)


def fraction_solve(matrix, point):
    """Oracle: the Fraction Smith-form solve of M x == a (mod Z^N), as
    (nonempty, divisors, sorted representatives)."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else len(point.coords)
    s, u, v = snf(matrix) if nr else ([], [], identity_matrix(nc))
    divisors = tuple(s[i][i] for i in range(min(nr, nc)) if s[i][i] != 0) if nr else ()
    rank = len(divisors)
    b = mat_vec(u, list(point.coords)) if nr else []
    if not all(_reduce_mod1(b[i]) == 0 for i in range(rank, nr)):
        return False, divisors, ()
    free = [Fraction(0)] * (nc - rank)
    reps = []
    for combo in itertools.product(*map(range, divisors)):
        y = [Fraction(bi + k, si) for bi, k, si in zip(b, combo, divisors)]
        reps.append(FractionPoint.of(mat_vec(v, y + free)))
    return True, divisors, tuple(sorted(reps, key=FractionPoint.sort_key))


def rationals(max_den=12):
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, max_den))


def both_points(coords):
    return TorsionPoint.of(coords), FractionPoint.of(coords)


def same_point(p, oracle):
    return (p.coords == oracle.coords and p.order == oracle.order
            and p.is_zero() == oracle.is_zero() and p.sort_key() == oracle.sort_key())


class TestTorsionPoint:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(-5, 5), st.data())
    def test_operations_match_fraction_oracle(self, n, rows, k, data):
        coords = st.lists(rationals(), min_size=n, max_size=n)
        c1, c2 = data.draw(coords), data.draw(coords)
        (p, op), (q, oq) = both_points(c1), both_points(c2)
        assert same_point(p, op) and same_point(q, oq)
        assert same_point(p + q, op + oq)
        assert same_point(p - q, op - oq)
        assert same_point(-p, -op)
        assert same_point(p.scaled(k), op.scaled(k))
        square = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        rect = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(rows)]
        for m in (square, rect):
            assert same_point(p.apply_matrix(m), op.apply_matrix(m))
        # equality and hashing follow the values
        assert (p == q) == (op == oq)
        assert p == TorsionPoint.of([c + data.draw(st.integers(-3, 3)) for c in c1])
        assert hash(p) == hash(TorsionPoint.of([c + 1 for c in c1]))

    def test_sort_key_computed_once_per_point(self, monkeypatch):
        p = TorsionPoint.of([Fraction(1, 3), Fraction(1, 2), Fraction(0)])
        key = p.sort_key()
        assert key == ((1, 3), (1, 2), (0, 1))
        monkeypatch.setattr(linalg, "gcd", None)  # a second computation would fail
        assert p.sort_key() is key
        monkeypatch.undo()
        # the cached key is no field: an equal point compares and hashes equal
        q = TorsionPoint.of([Fraction(1, 3), Fraction(1, 2), Fraction(0)])
        assert q == p and hash(q) == hash(p) and q.sort_key() == key

    def test_zero_operands_are_returned_as_is(self):
        p = TorsionPoint.of([Fraction(1, 3), Fraction(1, 2)])
        zero = TorsionPoint.zero(2)
        assert p + zero is p and zero + p is p
        assert zero.is_zero() and zero.order == 1 and zero.coords == (0, 0)


@st.composite
def low_rank_systems(draw):
    """Up to 6 x 4 integer matrices of low rank with at most 256 solution
    components, a translation with denominators up to 12, and a rational
    point x of the torus, whose image M x gives a solvable translation."""
    nc = draw(st.integers(1, 4))
    nr = draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc),
                         min_size=1, max_size=nc))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                    max_size=len(base)), min_size=nr, max_size=nr))
    m = [[sum(c * b[j] for c, b in zip(row, base)) for j in range(nc)] for row in coeffs]
    assume(not m or prod(elementary_divisors(m)) <= 256)
    point = draw(st.lists(rationals(), min_size=nr or nc, max_size=nr or nc))
    x = draw(st.lists(rationals(), min_size=nc, max_size=nc))
    return m, point, x


class TestSolveAffineOracle:
    @settings(max_examples=200, deadline=None)
    @given(low_rank_systems(), st.booleans())
    def test_matches_fraction_solve(self, case, solvable):
        m, coords, x = case
        if solvable and m:
            coords = mat_vec(m, x)
        sol = solve_affine_mod_lattice(m, TorsionPoint.of(coords))
        nonempty, divisors, reps = fraction_solve(m, FractionPoint.of(coords))
        assert sol.nonempty == nonempty
        assert sol.divisors == divisors
        assert [r.coords for r in sol.representatives] == [r.coords for r in reps]
        if solvable:
            assert sol.nonempty

    @settings(max_examples=100, deadline=None)
    @given(low_rank_systems(), st.booleans())
    def test_particular_solves_and_is_a_representative(self, case, solvable):
        # the solution with every k_i = 0, found without listing the
        # others; with no rows every point solves
        m, coords, x = case
        if solvable and m:
            coords = mat_vec(m, x)
        point = TorsionPoint.of(coords)
        sol = solve_affine_mod_lattice(m, point)
        assume(sol.nonempty)
        particular = sol.particular
        assert particular.apply_matrix(m) == point if m else len(particular.num) == len(x)
        assert particular in sol.representatives

    @settings(max_examples=100, deadline=None)
    @given(low_rank_systems())
    def test_generators_generate_the_solutions_of_zero(self, case):
        # the points V e_i / s_i, s_i > 1, generate the solutions of
        # M x == 0 as a group, each of order its s_i
        m, _, _ = case
        nc = len(m[0]) if m else 1
        sol = solve_affine_mod_lattice(m, TorsionPoint.zero(nc)) if m else None
        assume(sol is not None)
        gens = sol.generators
        assert [g.order for g in gens] == [s for s in sol.divisors if s > 1]
        closed, new = {TorsionPoint.zero(nc)}, {TorsionPoint.zero(nc)}
        while new:
            new = {x + g for x in new for g in gens} - closed
            closed |= new
        assert closed == set(sol.representatives)


def one_step_solve(matrix, point):
    """Reference: the affine solve as one Smith form and one back-substitution
    in a single function, with the width of a matrix with no rows taken from
    the point."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else len(point.num)
    s, u, v = snf(matrix) if nr else ([], [], identity_matrix(nc))
    divisors = tuple(s[i][i] for i in range(min(nr, nc)) if s[i][i] != 0) if nr else ()
    rank = len(divisors)
    kernel = Lattice.from_vectors(nc, mat_transpose(v)[rank:])
    den = point.den
    b = [0] * nr if den == 1 else [x % den for x in mat_vec(u, point.num)]
    nonempty = not any(b[rank:])
    return linalg.AffineSolutionSet(nonempty, kernel, divisors, tuple(b[:rank]), den,
                                    tuple(map(tuple, v)))


@st.composite
def systems_sharing_a_matrix(draw):
    """An integer matrix of up to 5 x 4, the ones with no rows or no columns
    included, and three translations for it; with no rows, a translation
    has the column count of coordinates."""
    nc = draw(st.integers(0, 4))
    nr = draw(st.integers(0, 5))
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc),
                      min_size=nr, max_size=nr))
    width = nr or nc
    points = draw(st.lists(st.lists(rationals(), min_size=width, max_size=width),
                           min_size=3, max_size=3))
    return m, nc, [TorsionPoint.of(p) for p in points]


class TestFactoredSolve:
    @settings(max_examples=200, deadline=None)
    @given(systems_sharing_a_matrix())
    def test_matches_one_step_solve(self, case):
        m, nc, points = case
        factors = factor_affine(m, nc)
        for point in points + [TorsionPoint.zero(len(points[0].num))]:
            want = one_step_solve(m, point)
            for sol in (solve_factored(factors, point), solve_affine_mod_lattice(m, point)):
                assert sol == want
                if want.component_count <= 256:
                    assert sol.representatives == want.representatives

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_rank_is_the_number_of_divisors(self, nr, nc, data):
        m = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
                               min_size=nr, max_size=nr))
        rank = matrix_rank(m)
        assert rank == len(elementary_divisors(m)) == len(factor_affine(m, nc)[1])

    def test_non_complex_reflection_has_rank_one(self):
        # diag(-1, 1) fixes a line of Z^2: rank(I - W) = 1, one divisor 2
        m = identity_minus([[-1, 0], [0, 1]])
        assert m == [[2, 0], [0, 0]]
        assert matrix_rank(m) == 1
        assert factor_affine(m, 2)[1] == (2,)


@st.composite
def square_systems(draw):
    """A square integer matrix W of finite order, of int tuple rows, and
    three translations for it.  W is the rational representation of a
    holonomy, or a signed permutation matrix, whose size, up to 5, may be
    odd, as on a stage that is not complex."""
    if draw(st.booleans()):
        w = draw(finite_order_holonomies()).matrix
    else:
        n = draw(st.integers(1, 5))
        images = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        w = tuple(tuple(signs[i] if images[i] == j else 0 for j in range(n)) for i in range(n))
    n = len(w)
    points = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n),
                           min_size=3, max_size=3))
    return w, [TorsionPoint.of(p) for p in points]


def _e6_squared(rows):
    """The rational representation of a holonomy of E_zeta6^2, given by its
    block rows."""
    z6 = EllipticFactor("zeta6")
    return EndoBlockMatrix.from_rows(AbelianVarietyModel.of(z6, z6), rows).matrix


def _counted(calls, func):
    """``func``, counting its calls in ``calls`` under its name."""
    def counted(*args):
        calls[func.__name__] += 1
        return func(*args)
    return counted


_ONE, _ZERO, _Z6 = (1, 0), (0, 0), (0, 1)


class TestFixedPointSolver:
    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_matches_direct_solve_and_rank(self, case):
        w, points = case
        m = identity_minus(w)
        low_rank = matrix_rank(m) <= 2
        wants = [solve_affine_mod_lattice(m, point) for point in points]
        calls = Counter()
        ranked_first, solved_first = FixedPointSolver(), FixedPointSolver()
        with mock.patch.object(linalg, "matrix_rank", _counted(calls, matrix_rank)), \
                mock.patch.object(linalg, "factor_affine", _counted(calls, factor_affine)):
            assert ranked_first.may_fix_divisor(w) == ranked_first.may_fix_divisor(w) == low_rank
            # the trace tests never rule out a W of rank at most 2
            assert traces_allow_low_rank(w) or not low_rank
            # no Hermite form of I - W; a W of rank at most 2 on a lattice
            # of rank above 2 is decided by its Smith form, taken once
            assert calls["factor_affine"] == 1 if len(w) > 2 and low_rank else \
                calls["factor_affine"] <= 1
            for point, want in zip(points, wants):
                assert ranked_first.solve(w, point) == want
                assert solved_first.solve(w, point) == want
            # once W is solved its rank is read off the factorisation
            assert solved_first.may_fix_divisor(w) == low_rank
        assert calls == Counter({"factor_affine": 2})

    @pytest.mark.parametrize("w, low_rank, factored", [
        # rank 0: s1 = s2 = 2, lm = 1
        pytest.param(tuple(map(tuple, identity_matrix(3))), True, 1, id="identity"),
        # rank 1 on an odd rank: s1 = 0, s2 = 2, lm = -1
        pytest.param(((1, 0, 0), (0, 1, 0), (0, 0, -1)), True, 1, id="odd-reflection"),
        # a complex reflection: s1 = 1, s2 = -1, lm = 1
        pytest.param(_e6_squared([[_Z6, _ZERO], [_ZERO, _ONE]]), True, 1,
                     id="complex-reflection"),
        # the swap: tr W = 0 = N - 4, s2 = 2, lm = 1
        pytest.param(_e6_squared([[_ZERO, _ONE], [_ONE, _ZERO]]), True, 1, id="swap"),
        # the swap times diag(zeta6, 1): tr W = 0 passes the trace test,
        # but tr W^2 = 2 tr zeta6 = 2 gives s2 = 0 and lm = 2
        pytest.param(_e6_squared([[_ZERO, _ONE], [_Z6, _ZERO]]), False, 0, id="swap-zeta6"),
        # -I: tr W < N - 4, decided by the trace alone
        pytest.param(tuple(tuple(-x for x in row) for row in identity_matrix(4)), False, 0,
                     id="minus-identity"),
        # rot60 + (-1) + (1): s1 = -1, s2 = -1, lm = 1 passes the screen,
        # but rank(I - W) = 3, which the Smith form finds
        pytest.param(((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)), False, 1,
                     id="rot60-rank-3"),
    ])
    def test_screen(self, w, low_rank, factored, monkeypatch):
        assert (matrix_rank(identity_minus(w)) <= 2) == low_rank
        calls = Counter()
        for func in (matrix_rank, factor_affine):
            monkeypatch.setattr(linalg, func.__name__, _counted(calls, func))
        # the trace tests alone pass exactly the W the solver then factors
        assert traces_allow_low_rank(w) == bool(factored)
        assert not calls
        solver = FixedPointSolver()
        assert solver.may_fix_divisor(w) == solver.may_fix_divisor(w) == low_rank
        assert calls == Counter({"factor_affine": factored})


def _raise_on_fraction(*_args, **_kwargs):
    raise AssertionError("Fraction built on a torsion path")


def test_torsion_paths_make_no_fraction(bielliptic_group, monkeypatch):
    """Closure, fixed loci and the decomposition of groups with translations
    make no Fraction in ``linalg``."""
    z4 = EllipticFactor("zeta4")
    variety = AbelianVarietyModel.of(z4, z4, z4)
    one, zero, i = (1, 0), (0, 0), (0, 1)
    refl = generator([[i, zero, zero], [zero, one, zero], [zero, zero, one]])
    swap = generator([[zero, one, zero], [one, zero, zero], [zero, zero, one]],
                     [0, 0, 0, 0, "1/2", 0])
    translated = close_group(variety, [refl, swap])
    bielliptic_gens = list(map(as_generator, bielliptic_group.generators))

    def run():
        return (close_group(bielliptic_group.variety, bielliptic_gens).elements,
                [fixed_locus(g, FixedPointSolver()).representatives
                 for g in translated.elements],
                decompose(translated))

    expected = run()
    assert translated.order == 32 and len(expected[2].stages) == 2
    assert any(not g.translation.is_zero() for g in translated.elements)
    monkeypatch.setattr(linalg, "Fraction", _raise_on_fraction)
    assert run() == expected
