"""Exact classification of finite quotients of products of elliptic curves:
quasietale / Q-abelian / Q-Fano flags, ages, ramification data, and the
quasietale cover by (abelian variety) x (Q-Fano quotient)."""

from .action import (
    AffineAutomorphism,
    FiniteGroupAction,
    age,
    close_group,
    descend_multiplication,
    fixed_locus,
    pointwise_stabilizer,
)
from .classify import (
    Analysis,
    ClassificationReport,
    DivisorLattices,
    RamificationData,
    divisor_lattices,
    irregularity,
    ramification_data,
    reid_tai,
)
from .cyclotomic import CycloField, CycloNumber, cyclotomic_polynomial, eigen_multiplicity
from .decompose import DecompositionResult, SublatticeAction, decompose
from .errors import CertificateError, FqavError, InputError
from .linalg import (
    AffineSolutionSet,
    Lattice,
    TorsionPoint,
    snf,
    solve_affine_mod_lattice,
)
from .variety import (
    AbelianVarietyModel,
    EllipticFactor,
    EndoBlockMatrix,
    SubtorusTranslate,
    rational_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
