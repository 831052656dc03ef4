"""Model of A = E_1 x ... x E_n with CM data: endomorphisms in block form,
their rational/analytic representations, subtorus translates, and the
Kodaira dimension of a divisor with subtorus components.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import InputError
from .linalg import Lattice, TorsionPoint, mat_mul, matrix_rank

ZETA4 = "zeta4"
ZETA6 = "zeta6"
GENERIC = "generic"

_TAU_BLOCKS = {
    ZETA4: ((0, -1), (1, 0)),
    ZETA6: ((0, -1), (1, 1)),
}


@dataclass(frozen=True)
class EllipticFactor:
    """One elliptic curve factor: CM by zeta4 or zeta6, or a label-identified
    curve without CM (equal labels mean the same curve)."""

    cm: str
    label: str = ""

    def __post_init__(self):
        if self.cm not in (ZETA4, ZETA6, GENERIC):
            raise InputError(f"unknown cm type {self.cm!r}", code="bad-factor")

    @property
    def has_cm(self):
        return self.cm in _TAU_BLOCKS

    @property
    def tau_block(self):
        return _TAU_BLOCKS[self.cm]

    def hom_key(self, other):
        """Factors admit nonzero homomorphisms iff their keys agree."""
        if self.cm != other.cm:
            return None
        if self.cm == GENERIC and self.label != other.label:
            return None
        return (self.cm, self.label if self.cm == GENERIC else "")


@dataclass(frozen=True)
class AbelianVarietyModel:
    factors: tuple

    @classmethod
    def of(cls, *factors):
        return cls(tuple(factors))

    @property
    def n(self):
        return len(self.factors)

    @property
    def ambient_rank(self):
        return 2 * self.n


@dataclass(frozen=True)
class EndoBlockMatrix:
    """Endomorphism of A in n x n block form; block (j, k) is a pair (c, d)
    meaning c + d*tau acting from factor k to factor j.  ``matrix`` is its
    rational representation, a tuple of int rows; equality and hashing
    read the blocks only.  Build one with ``from_rows``, which
    validates the blocks and computes ``matrix`` once."""

    variety: AbelianVarietyModel
    blocks: tuple  # n x n of (c, d) int pairs
    matrix: tuple = dataclasses.field(compare=False, repr=False)  # rational_rep, 2n x 2n

    @classmethod
    def from_rows(cls, variety, rows):
        blocks = tuple(tuple((int(c), int(d)) for c, d in row) for row in rows)
        fs = variety.factors
        n = variety.n
        if len(blocks) != n or any(len(r) != n for r in blocks):
            raise InputError("holonomy block shape mismatch", code="not-endomorphism")
        keys = [f.hom_key(f) for f in fs]  # factors j, k admit homs iff keys agree
        for j, row in enumerate(blocks):
            for k, (c, d) in enumerate(row):
                if keys[j] != keys[k]:
                    if c or d:
                        raise InputError("not an endomorphism", code="not-endomorphism")
                elif d and not fs[j].has_cm:
                    raise InputError("not an endomorphism", code="not-endomorphism")
        phi = cls(variety, blocks, ())
        object.__setattr__(phi, "matrix", tuple(map(tuple, rational_rep(phi))))
        return phi

    def compose(self, other):
        """The product of the rational representations, with the blocks read
        back off it.  rational_rep is an injective ring homomorphism, so this
        is the block product, and a product of endomorphisms needs no
        validation."""
        m = tuple(map(tuple, mat_mul(self.matrix, other.matrix)))
        return EndoBlockMatrix(self.variety, block_pairs(m), m)


def block_pairs(m):
    """The blocks of the endomorphism whose rational representation is the
    int tuple rows m, which must be one: column 2k of block (j, k) is the
    image of 1, which is c + d*tau, so c = M[2j][2k] and d = M[2j+1][2k]."""
    return tuple(tuple(zip(cs[0::2], ds[0::2])) for cs, ds in zip(m[0::2], m[1::2]))


def rational_rep(phi: EndoBlockMatrix):
    """The 2n x 2n action on the lattice Z^(2n), coordinates (1, tau) per
    factor, computed from the blocks; ``phi.matrix`` keeps it as tuples."""
    fs = phi.variety.factors
    n = phi.variety.n
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for top, bottom, row in zip(out[0::2], out[1::2], phi.blocks):
        for k, (c, d) in enumerate(row):
            if d:
                (t00, t01), (t10, t11) = fs[k].tau_block
                top[2 * k:2 * k + 2] = c + d * t00, d * t01
                bottom[2 * k:2 * k + 2] = d * t10, c + d * t11
            elif c:
                top[2 * k] = bottom[2 * k + 1] = c
    return out


def analytic_rep_mod(variety, blocks, m, p, z):
    """The n x n action on the tangent space of the endomorphism of
    ``variety`` with these blocks, over Q(zeta_m), reduced modulo the prime
    of Z[zeta_m] that sends zeta_m to z mod p: c + d*tau becomes c + d
    z^(m/4) on a zeta4 factor and c + d z^(m/6) on a zeta6 factor, as int
    rows in [0, p)."""
    taus = [pow(z, m // (4 if f.cm == ZETA4 else 6), p) if f.has_cm else 0
            for f in variety.factors]
    return [[(c + d * tau) % p for (c, d), tau in zip(row, taus)] for row in blocks]


@dataclass(frozen=True)
class SubtorusTranslate:
    """A translate of a subtorus: saturated complex-linear lattice plus a
    torsion translate."""

    lattice: Lattice
    translate: TorsionPoint

    @property
    def dim(self):
        return self.lattice.rank // 2

    def canonical_key(self):
        """Hashable identity: the lattice plus the translate reduced modulo
        the subtorus (via the dual integer forms)."""
        return (self.lattice, self.translate.apply_matrix(self.lattice.complement_rows))

    def sort_key(self):
        return (self.lattice.basis, self.translate.sort_key())


def subtorus_kappa(lattices, ambient_rank):
    """n - dim of the common subtorus of the subtori with these lattices in
    Z^ambient_rank (the whole torus when there are none): the Kodaira
    dimension of a divisor whose components are translates of them.  The
    common subtorus has the kernel of the stacked ``complement_rows`` of the
    distinct lattices as its lattice, of rank ambient_rank minus their rank.
    One lattice, or none, needs no rank: its subtorus is the common one."""
    distinct = list(dict.fromkeys(lattices))
    if len(distinct) <= 1:
        return ambient_rank // 2 - (distinct[0].rank if distinct else ambient_rank) // 2
    complements = [row for lat in distinct for row in lat.complement_rows]
    return ambient_rank // 2 - (ambient_rank - matrix_rank(complements)) // 2
