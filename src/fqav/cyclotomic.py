"""Exact arithmetic in the cyclotomic field Q(zeta_m) and kernel ranks of
matrices over it.  Elements are residues modulo the m-th cyclotomic
polynomial, with Fraction coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


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


@lru_cache(maxsize=None)
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

    @property
    def modulus(self):
        return cyclotomic_polynomial(self.m)

    @property
    def degree(self):
        return len(self.modulus) - 1

    def element(self, coeffs):
        return CycloNumber(self, _reduce(coeffs, self.modulus, self.degree))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([Fraction(1)])

    def rational(self, q):
        return self.element([Fraction(q)])

    def root_of_unity(self, d, k=1):
        """zeta_m^(k*m/d), the k-th power of a chosen primitive d-th root."""
        if d <= 0 or self.m % d != 0:
            raise InputError("root order outside field", code="root-order")
        e = (k * (self.m // d)) % self.m
        coeffs = [Fraction(0)] * e + [Fraction(1)]
        return self.element(coeffs)


def _reduce(coeffs, modulus, degree):
    c = [Fraction(x) for x in coeffs]
    while len(c) > degree:
        lead = c.pop()
        if lead == 0:
            continue
        shift = len(c) - degree
        for i in range(degree):
            c[shift + i] -= lead * Fraction(modulus[i])
    c += [Fraction(0)] * (degree - len(c))
    return tuple(c)


@dataclass(frozen=True)
class CycloNumber:
    field: CycloField
    coeffs: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return CycloNumber(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        return CycloNumber(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        prod = [Fraction(0)] * (2 * self.field.degree)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return self.field.element(prod)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            return other
        return self.field.rational(other)

    def inverse(self):
        """Inverse modulo Phi_m via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise InputError("division by zero", code="zero-division")
        # r0 = Phi_m, r1 = self; track s-coefficients against r1 only
        r0 = [Fraction(c) for c in self.field.modulus]
        r1 = list(self.coeffs)
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [], [Fraction(1)]

        def poly_divmod_q(num, den):
            num = list(num)
            q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
            inv_lead = 1 / den[-1]
            while len(num) >= len(den):
                if num[-1] == 0:
                    num.pop()
                    continue
                shift = len(num) - len(den)
                c = num[-1] * inv_lead
                q[shift] += c
                for i, b in enumerate(den):
                    num[shift + i] -= c * b
                while num and num[-1] == 0:
                    num.pop()
            return q, num

        def poly_addmul(p, q, f):  # p - f*q
            out = [Fraction(0)] * max(len(p), len(q) + len(f) - 1 if q and f else 0)
            for i, a in enumerate(p):
                out[i] += a
            for i, a in enumerate(f):
                if a:
                    for j, b in enumerate(q):
                        out[i + j] -= a * b
            while out and out[-1] == 0:
                out.pop()
            return out

        while r1:
            q, r = poly_divmod_q(r0, r1)
            t0, t1 = t1, poly_addmul(t0, t1, q)
            r0, r1 = r1, r
        # r0 is now the gcd, a nonzero constant (Phi_m is irreducible)
        assert len(r0) == 1
        scale = 1 / r0[0]
        return self.field.element([c * scale for c in t0])

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def conjugate(self):
        """Image under zeta_m -> zeta_m^(-1) (complex conjugation)."""
        m = self.field.m
        out = [Fraction(0)] * m
        for e, c in enumerate(self.coeffs):
            if c:
                out[(-e) % m] += c
        return self.field.element(out)


# ---------------------------------------------------------------------------
# matrices over the field

def cyclo_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def cyclo_mat_mul(a, b):
    n = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def cyclo_mat_from_rational(field, matrix):
    return [[field.rational(x) for x in row] for row in matrix]


def kernel_dimension(matrix):
    """dim ker over Q(zeta_m) by exact Gaussian elimination; pivot is the
    first nonzero entry in column order."""
    a = [list(row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
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
