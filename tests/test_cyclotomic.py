from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fqav.action import age, cyclo_field_for
from fqav.classify import reid_tai
from fqav import cyclotomic
from fqav.cyclotomic import (
    CycloField,
    CycloNumber,
    charpoly_mod,
    cyclotomic_polynomial,
    eigen_multiplicity,
    kernel_dimension,
    rank_mod,
    spectrum_mod,
    split_prime,
)
from fqav.errors import InputError

def as_field_matrix(field, matrix):
    """A rational matrix with its entries in ``field``."""
    return [[field.rational(x) for x in row] for row in matrix]


ORACLE = settings(max_examples=80, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
FIELDS = (12, 24, 36, 60)


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the integer representation: Fraction
# coefficient tuples modulo Phi_m, and Gauss-Jordan elimination over
# Q(zeta_m) with each pivot inverted by the extended Euclid in Q[x]

def ref_reduce(coeffs, m):
    modulus = cyclotomic_polynomial(m)
    degree = len(modulus) - 1
    c = [Fraction(x) for x in coeffs]
    while len(c) > degree:
        lead = c.pop()
        shift = len(c) - degree
        for i in range(degree):
            c[shift + i] -= lead * modulus[i]
    return tuple(c + [Fraction(0)] * (degree - len(c)))


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, m)


def ref_conjugate(a, m):
    out = [Fraction(0)] * m
    for e, c in enumerate(a):
        out[(-e) % m] += c
    return ref_reduce(out, m)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_inverse(a, m):
    """Extended Euclid in Q[x] against Phi_m."""
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(m)], _trim(list(a))
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, rem = [Fraction(0)] * (len(r0) - len(r1) + 1), list(r0)
        while len(rem) >= len(r1):
            c = rem[-1] / r1[-1]
            shift = len(rem) - len(r1)
            q[shift] += c
            for i, b in enumerate(r1):
                rem[shift + i] -= c * b
            _trim(rem)
        prod = [Fraction(0)] * (len(q) + len(t1))
        for i, x in enumerate(q):
            for j, y in enumerate(t1):
                prod[i + j] += x * y
        t_next = [x - y for x, y in zip(t0 + [Fraction(0)] * len(prod),
                                        prod + [Fraction(0)] * len(t0))]
        t0, t1 = t1, _trim(t_next)
        r0, r1 = r1, rem
    assert len(r0) == 1
    return ref_reduce([c / r0[0] for c in t0], m)


def ref_kernel_dimension(matrix, m):
    """dim ker by Gauss-Jordan over Q(zeta_m), each pivot inverted."""
    a = [list(row) for row in matrix]
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if any(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ref_inverse(a[r][c], m)
        a[r] = [ref_mul(x, inv, m) for x in a[r]]
        for i in range(nr):
            if i != r and any(a[i][c]):
                f = a[i][c]
                a[i] = [ref_sub(x, ref_mul(f, y, m)) for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return nc - r


def degree(m):
    return len(cyclotomic_polynomial(m)) - 1


rationals = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def raw_elements(draw, m, max_len=None):
    """Unreduced Fraction coefficient lists, up to twice the degree long."""
    return draw(st.lists(rationals, max_size=max_len or 2 * degree(m)))


@st.composite
def low_rank_matrices(draw):
    """(m, Fraction matrix, number of rows that are combinations of others)."""
    m = draw(st.sampled_from(FIELDS))
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = raw_elements(m, degree(m)).map(lambda c: ref_reduce(c, m))
    rows = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    dependent = draw(st.integers(0, nr - 1))
    base = nr - dependent
    for i in range(base, nr):
        coeffs = [draw(entry) for _ in range(base)]
        row = [ref_reduce([], m)] * nc
        for k in range(base):
            row = [ref_add(x, ref_mul(coeffs[k], y, m)) for x, y in zip(row, rows[k])]
        rows[i] = row
    order = draw(st.permutations(range(nr)))
    return m, [rows[i] for i in order], dependent


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_phi_12():
    # oracle: product of Phi_d over d | 12 must reassemble x^12 - 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [0] * 13
    expected[0], expected[12] = -1, 1
    assert prod == expected


def test_phi_known_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_conductor_must_be_divisible_by_12():
    with pytest.raises(InputError):
        CycloField(5)


class TestArithmetic:
    def setup_method(self):
        self.field = CycloField(12)

    def test_zeta4_squares_to_minus_one(self):
        z4 = self.field.root_of_unity(4, 1)
        assert z4 * z4 == self.field.rational(-1)

    def test_zeta6_relation(self):
        z6 = self.field.root_of_unity(6, 1)
        assert z6 * z6 == z6 - self.field.one()

    def test_root_orders(self):
        for d in (1, 2, 3, 4, 6, 12):
            z = self.field.root_of_unity(d, 1)
            power = self.field.one()
            for k in range(1, d + 1):
                power = power * z
                if k < d:
                    assert power != self.field.one()
            assert power == self.field.one()

    def test_root_order_outside_field(self):
        with pytest.raises(InputError):
            self.field.root_of_unity(5, 1)


class TestEigenMultiplicity:
    def setup_method(self):
        self.field = CycloField(12)

    def test_diagonal(self):
        z4 = self.field.root_of_unity(4, 1)
        m = [[z4, self.field.zero()], [self.field.zero(), z4]]
        assert eigen_multiplicity(m, z4) == 2
        assert eigen_multiplicity(m, self.field.one()) == 0

    def test_rotation_matrix(self):
        m = as_field_matrix(self.field, [[0, -1], [1, 0]])
        z4 = self.field.root_of_unity(4, 1)
        assert eigen_multiplicity(m, z4) == 1
        assert eigen_multiplicity(m, self.field.root_of_unity(4, 3)) == 1
        assert eigen_multiplicity(m, self.field.one()) == 0

    def test_identity(self):
        m = as_field_matrix(self.field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert eigen_multiplicity(m, self.field.one()) == 3
        assert eigen_multiplicity(m, self.field.root_of_unity(6, 1)) == 0

    def test_multiplicities_sum_to_size(self):
        # finite-order matrix of order 6 on dimension 2
        m = as_field_matrix(self.field, [[0, -1], [1, 1]])
        total = 0
        for d in (1, 2, 3, 6):
            for k in range(d):
                if gcd(k, d) == 1 or d == 1:
                    total += eigen_multiplicity(m, self.field.root_of_unity(d, k if d > 1 else 0))
        assert total == 2

    def test_conjugation_symmetry(self):
        m = as_field_matrix(self.field, [[0, -1], [1, 0]])
        z4 = self.field.root_of_unity(4, 1)
        conj = [[e.conjugate() for e in row] for row in m]
        assert eigen_multiplicity(m, z4) == eigen_multiplicity(conj, z4.conjugate())


class TestIntegerArithmeticOracle:
    """The integer-backed field against the Fraction reference."""

    @ORACLE
    @given(st.data())
    def test_operations_match_fraction_reference(self, data):
        m = data.draw(st.sampled_from(FIELDS))
        field = CycloField(m)
        raw_x, raw_y = data.draw(raw_elements(m)), data.draw(raw_elements(m))
        x, y = field.element(raw_x), field.element(raw_y)
        rx, ry = ref_reduce(raw_x, m), ref_reduce(raw_y, m)
        assert x.coeffs == rx
        assert (x + y).coeffs == ref_add(rx, ry)
        assert (x - y).coeffs == ref_sub(rx, ry)
        assert (x * y).coeffs == ref_mul(rx, ry, m)
        assert x.conjugate().coeffs == ref_conjugate(rx, m)

    @ORACLE
    @given(low_rank_matrices())
    def test_kernel_dimension_matches_gauss_jordan(self, case):
        m, rows, dependent = case
        field = CycloField(m)
        expected = ref_kernel_dimension(rows, m)
        assert expected >= len(rows[0]) - (len(rows) - dependent)
        assert kernel_dimension([[field.element(e) for e in row] for row in rows]) == expected

    @pytest.mark.parametrize("m", FIELDS)
    def test_singular_matrix_with_fractional_entries(self, m):
        # rank 1: the second row is (1/3 + zeta) times the first
        field = CycloField(m)
        a = field.element([Fraction(1, 2), Fraction(-2, 3)])
        b = field.root_of_unity(m, 5)
        s = field.rational(Fraction(1, 3)) + field.root_of_unity(m, 1)
        assert kernel_dimension([[a, b], [s * a, s * b]]) == 1
        assert kernel_dimension([[a, b], [s * a, s * b + field.rational(Fraction(1, 7))]]) == 0

    def test_equal_values_compare_and_hash_equal(self):
        field = CycloField(12)
        half = field.element([Fraction(2, 4)])
        assert half == field.rational(Fraction(1, 2))
        assert hash(half) == hash(field.rational(Fraction(1, 2)))
        x = field.element([Fraction(3, 2), 0, Fraction(-1, 6), 2])
        unit = x * field.element(ref_inverse(x.coeffs, 12))
        assert unit == field.one() and hash(unit) == hash(field.one())
        # x^4 = x^2 - 1 modulo Phi_12, so an unreduced form is the same key
        z = field.element([0, 0, 0, 0, 1])
        assert z == field.element([-1, 0, 1])
        spectrum = {field.one(): 1, half: 2, z: 3}
        assert spectrum[field.one() * field.one()] == 1
        assert spectrum[field.rational(1) - field.rational(Fraction(1, 2))] == 2
        assert spectrum[field.root_of_unity(12, 4)] == 3
        assert field.zero() == field.element([Fraction(0, 5)]) == half - half


def test_ages_never_invert(rot4_square_group, sign_rot4_group,
                           kummer_group, p1_group, bielliptic_group):
    # the field has no division, so the ages below cannot invert an element
    assert not hasattr(CycloNumber, "inverse")
    assert not hasattr(CycloNumber, "__truediv__")
    for group in (rot4_square_group, sign_rot4_group, kummer_group, p1_group,
                  bielliptic_group):
        reid_tai(group)
        for g in group.elements:
            age(g, cyclo_field_for(group))


# ---------------------------------------------------------------------------
# spectra modulo a split prime against elimination at every root

def reference_spectrum_mod(matrix, p, z, m):
    """``spectrum_mod`` by one elimination at each z^e: the counts
    n - rank_p(M - z^e I) up to the first e at which they sum to n, or
    None."""
    n = len(matrix)
    counts = []
    total = 0
    root = 1
    for _ in range(m):
        shifted = [[(x - root) % p if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(matrix)]
        count = n - rank_mod(shifted, p)
        counts.append(count)
        total += count
        if total == n:
            return counts
        root = root * z % p
    return None


def det_mod(matrix, p):
    """det over F_p by elimination with row swaps."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for i in range(c + 1, n):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


SPECTRUM_CONDUCTORS = (12, 24, 36, 60)


@st.composite
def matrices_mod_split_prime(draw):
    """(M, p, z, m) with (p, z) = split_prime(m, 2n + 1) and M of size 1 to
    6 over F_p: arbitrary entries, or a triangular matrix conjugated by
    transvections.  Its diagonal holds powers of z, repeated or not, and
    entries that are no power of z; a nonzero entry above a repeated
    diagonal value makes it non-diagonalisable."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from(SPECTRUM_CONDUCTORS))
    p, z = split_prime(m, 2 * n + 1)
    entries = st.integers(0, p - 1)
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)], p, z, m
    powers = st.integers(0, m - 1).map(lambda e: pow(z, e, p))
    diagonal = draw(st.lists(st.one_of(powers, powers, entries), min_size=n, max_size=n))
    above = draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=n * n, max_size=n * n))
    matrix = [[diagonal[i] if i == j else above[n * i + j] if i < j else 0
               for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        if n == 1:
            break
        j, k = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(1, p - 1))
        # M -> T M T^-1 with T = I + c e_jk: add c row k to row j, then
        # subtract c column j from column k
        matrix[j] = [(x + c * y) % p for x, y in zip(matrix[j], matrix[k])]
        for row in matrix:
            row[k] = (row[k] - c * row[j]) % p
    return matrix, p, z, m


class TestSpectrumByCharpoly:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matrices_mod_split_prime())
    def test_matches_elimination_at_every_root(self, case):
        assert spectrum_mod(*case) == reference_spectrum_mod(*case)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matrices_mod_split_prime())
    def test_charpoly_is_det(self, case):
        matrix, p, _, _ = case
        n = len(matrix)
        chi = charpoly_mod(matrix, p)
        assert len(chi) == n + 1 and chi[-1] == 1
        assert all(0 <= c < p for c in chi)
        # two polynomials of degree n that agree at n + 1 points are equal
        for x in range(n + 1):
            value = sum(c * pow(x, k, p) for k, c in enumerate(chi)) % p
            assert value == det_mod([[((x if i == j else 0) - y) % p
                                      for j, y in enumerate(row)]
                                     for i, row in enumerate(matrix)], p)

    @pytest.mark.parametrize("exponents, above, counts, eliminations", [
        ((0, 0, 3), 0, [2, 0, 0, 1], 1),   # a repeated root, diagonalisable
        ((0, 0, 3), 1, None, 1),           # a repeated root, a Jordan block
        ((1, 2, 3), 0, [0, 1, 1, 1], 0),   # simple roots only
        ((5, 5, 5), 0, [0, 0, 0, 0, 0, 3], 1),
        ((5, 5, None), 0, None, 1),        # 0 is no root: the counts fall short
    ])
    def test_eliminates_only_at_repeated_roots(self, exponents, above, counts,
                                               eliminations, monkeypatch):
        m = 12
        p, z = split_prime(m, 7)
        # 0 is no power of z
        diagonal = [0 if e is None else pow(z, e, p) for e in exponents]
        matrix = [[diagonal[i] if i == j else above * (j == i + 1) for j in range(3)]
                  for i in range(3)]
        ranks = []

        def recording(rows, q):
            ranks.append(rows)
            return rank_mod(rows, q)

        monkeypatch.setattr(cyclotomic, "rank_mod", recording)
        assert spectrum_mod(matrix, p, z, m) == counts
        assert len(ranks) == eliminations
        monkeypatch.undo()
        assert reference_spectrum_mod(matrix, p, z, m) == counts
