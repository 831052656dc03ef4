"""Exact arithmetic in the cyclotomic field Q(zeta_m) and kernel ranks of
matrices over it.  An element is an integer residue modulo the monic m-th
cyclotomic polynomial over one positive common denominator, so sums,
products, conjugates and kernel ranks run on ints.  Eigenvalue counts of a
matrix reduced modulo a prime that splits completely in Q(zeta_m) run on
ints below that prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InputError


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_exact(num, den):
    """Division of integer polynomials where den is monic."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        c = num[-1]
        q[shift] = c
        for i, b in enumerate(den):
            num[shift + i] -= c * b
        _poly_trim(num)
    return _poly_trim(q), _poly_trim(num)


@cache
def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, computed by exact division of x^m - 1 by the
    Phi_d for proper divisors d."""
    if m == 1:
        return (-1, 1)
    num = [0] * m + [1]
    num[0] = -1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


@dataclass(frozen=True)
class CycloField:
    """The field Q(zeta_m); the toolkit always uses 12 | m."""

    m: int

    def __post_init__(self):
        if self.m < 1 or self.m % 12 != 0:
            raise InputError("conductor must be a positive multiple of 12",
                             code="bad-conductor")

    @cached_property
    def modulus(self):
        return cyclotomic_polynomial(self.m)

    @cached_property
    def degree(self):
        return len(self.modulus) - 1

    @cached_property
    def _tail(self):
        """The pairs (i, -c_i) over the nonzero c_i below the leading term of
        Phi_m, so that x^degree = sum of -c_i x^i."""
        return tuple((i, -c) for i, c in enumerate(self.modulus[:-1]) if c)

    def _reduce(self, poly):
        """The residue of an integer polynomial modulo the monic Phi_m, as a
        tuple of ``degree`` ints."""
        d = self.degree
        c = list(poly)
        if len(c) <= d:
            return tuple(c) + (0,) * (d - len(c))
        tail = self._tail
        for top in range(len(c) - 1, d - 1, -1):
            lead = c[top]
            if lead:
                shift = top - d
                for i, t in tail:
                    c[shift + i] += lead * t
        return tuple(c[:d])

    def _mul(self, a, b):
        """The product of two integer residues modulo Phi_m."""
        acc = [0] * (2 * self.degree - 1)
        _add_product(acc, a, b)
        return self._reduce(acc)

    def _substitute(self, num, k):
        """The image of an integer residue under zeta_m -> zeta_m^k."""
        m = self.m
        out = [0] * m
        for e, c in enumerate(num):
            if c:
                out[(k * e) % m] += c
        return self._reduce(out)

    def element(self, coeffs):
        """The residue of sum coeffs[i] x^i; the coefficients are ints or
        Fractions."""
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _number(self, self._reduce(num), den)

    def zero(self):
        return CycloNumber(self, (0,) * self.degree, 1)

    def one(self):
        return self.rational(1)

    def rational(self, q):
        """q, an int or a Fraction, as a field element."""
        return CycloNumber(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def root_of_unity(self, d, k=1):
        """zeta_m^(k*m/d), the k-th power of a chosen primitive d-th root."""
        if d <= 0 or self.m % d != 0:
            raise InputError("root order outside field", code="root-order")
        e = (k * (self.m // d)) % self.m
        return CycloNumber(self, self._reduce([0] * e + [1]), 1)


def _add_product(acc, a, b):
    """acc += a*b for integer coefficient sequences."""
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    acc[i + j] += u * v


def _number(field, num, den):
    """num/den in lowest terms: den > 0 and coprime to the content of num."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return CycloNumber(field, num, den)


@dataclass(frozen=True)
class CycloNumber:
    """num/den with num an integer residue modulo Phi_m (lowest degree
    first) and den a positive int coprime to the content of num, so equal
    values compare and hash equal."""

    field: CycloField
    num: tuple
    den: int

    @property
    def coeffs(self):
        """The rational coefficients in the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return _number(self.field, tuple(a + b for a, b in zip(self.num, other.num)),
                           self.den)
        return _number(self.field,
                       tuple(a * other.den + b * self.den
                             for a, b in zip(self.num, other.num)),
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return _number(self.field, self.field._mul(self.num, other.num),
                       self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            return other
        return self.field.rational(other)

    def conjugate(self):
        """Image under zeta_m -> zeta_m^(-1) (complex conjugation)."""
        return _number(self.field, self.field._substitute(self.num, -1), self.den)


# ---------------------------------------------------------------------------
# matrices over the field

def kernel_dimension(matrix):
    """dim ker over Q(zeta_m), by fraction-free elimination in Z[zeta_m].

    Each row is scaled by the lcm of its denominators into Z[zeta_m].  With
    pivot p, the first nonzero entry in column order, each lower row with f
    in the pivot column becomes p*row - f*pivot_row, divided by the integer
    content of its coefficients; no entry is inverted.  Since p != 0 and
    Z[zeta_m] is a domain, every step keeps the Q(zeta_m)-span of the rows,
    so the number of pivots is the rank."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    if not nc:
        return 0
    field = matrix[0][0].field
    rows = []
    for row in matrix:
        scale = lcm(*(x.den for x in row))
        rows.append([x.num if x.den == scale else tuple(c * (scale // x.den) for c in x.num)
                     for x in row])
    zero = (0,) * field.degree
    width = 2 * field.degree - 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if any(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            if not any(f):
                continue
            minus_f = [-v for v in f]
            # columns before c are zero in both rows, and column c cancels
            tail = []
            for x, y in zip(rows[i][c + 1:], pivot_row[c + 1:]):
                acc = [0] * width
                _add_product(acc, p, x)
                _add_product(acc, minus_f, y)
                tail.append(field._reduce(acc))
            content = gcd(*(v for e in tail for v in e))
            if content > 1:
                tail = [tuple(v // content for v in e) for e in tail]
            rows[i] = [zero] * (c + 1) + tail
        r += 1
        if r == nr:
            break
    return nc - r


def eigen_multiplicity(matrix, zeta: CycloNumber) -> int:
    """dim ker(M - zeta*I); for finite-order M this is the algebraic
    multiplicity of the eigenvalue zeta."""
    n = len(matrix)
    shifted = [[matrix[i][j] - zeta if i == j else matrix[i][j] for j in range(n)]
               for i in range(n)]
    return kernel_dimension(shifted)


# ---------------------------------------------------------------------------
# spectra modulo a prime that splits completely in Q(zeta_m)

def _is_prime(q):
    return q > 1 and all(q % f for f in range(2, isqrt(q) + 1))


@cache
def split_prime(m, above):
    """(p, z): the smallest prime p = 1 (mod m) with p > ``above``, and an
    element z of exact order m mod p, the least such power of the least
    base.  p splits completely in Q(zeta_m), and zeta_m -> z is reduction
    modulo one prime of Z[zeta_m] above p."""
    p = m + 1
    while p <= above or not _is_prime(p):
        p += m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for base in range(2, p):
        z = pow(base, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in primes):
            return p, z
    raise AssertionError("F_p^* is cyclic")


def rank_mod(matrix, p):
    """Rank over F_p of a matrix of ints in [0, p)."""
    rows = [list(row) for row in matrix]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        inv = pow(pivot_row[c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pivot_row)]
        r += 1
    return r


def charpoly_mod(matrix, p):
    """The coefficients of det(x I - M) over F_p, lowest degree first, of an
    n x n matrix M of ints in [0, p) with n < p.  By Newton's identities,
    as in Faddeev-LeVerrier, from the power sums s_k = tr(M^k):
    c_n = 1 and k c_(n-k) = -(c_(n-k+1) s_1 + ... + c_n s_k).  This takes
    n - 2 matrix products and divides only by k <= n < p."""
    n = len(matrix)
    columns = list(zip(*matrix))
    sums = [sum(row[i] for i, row in enumerate(matrix))]
    power = matrix  # M^(k-1) when s_k is taken
    for k in range(2, n + 1):
        sums.append(sum(sum(map(mul, row, col)) for row, col in zip(power, columns)))
        if k < n:
            power = [[sum(map(mul, row, col)) % p for col in columns] for row in power]
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        top = coeffs[n - k + 1:]
        coeffs[n - k] = -sum(map(mul, top, sums)) * pow(k, -1, p) % p
    return coeffs


def spectrum_mod(matrix, p, z, m):
    """The counts n - rank_p(M - z^e I) for e = 0, 1, ..., of an n x n matrix
    M of ints in [0, p) with z of order m mod p and n < p, up to the first e
    at which they sum to n; None when they sum to less than n over every
    e < m.  Eigenspaces of distinct eigenvalues are independent, so the sum
    never exceeds n.

    Each count is read off chi = det(x I - M) where it can be: the geometric
    multiplicity of z^e lies between 1 and its algebraic one when chi(z^e) =
    0, and is 0 otherwise.  So a non-root counts 0 and a simple root, where
    chi'(z^e) != 0, counts 1; only a repeated root is eliminated.  Every
    count is the same rank count as by elimination at each e."""
    n = len(matrix)
    chi = charpoly_mod(matrix, p)
    slope = [k * c for k, c in enumerate(chi)][1:]
    counts = []
    total = 0
    root = 1
    for _ in range(m):
        count = 0
        if not _horner(chi, root, p):
            count = 1
            if not _horner(slope, root, p):
                shifted = [[(x - root) % p if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(matrix)]
                count = n - rank_mod(shifted, p)
        counts.append(count)
        total += count
        if total == n:
            return counts
        root = root * z % p
    return None


def _horner(coeffs, x, p):
    """The polynomial with these coefficients, lowest degree first, at x,
    mod p."""
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % p
    return value
