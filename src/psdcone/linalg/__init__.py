"""Linear algebra layer: matrices, subspaces and PSD operators over two backends."""

from __future__ import annotations

from .matrix import (
    EXACT, FLOAT, Matrix, default_rank_tol, hermitian_part, psd_certify_exact, spectral_norm
)
from .psd import (
    PsdOperator, douglas_factor, finite_eigh, psd_check, psd_sqrt, spectral_root, spectral_roots
)
from .scalar import GaussianRational
from .semilinear import FLAVOR_CONJUGATE, FLAVOR_LINEAR, FLAVORS, SemilinearOperator
from .subspace import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    common_dim,
    principal_sines,
    subspace_intersect,
    subspace_preimage,
    subspace_sum,
)


def rank(m: Matrix, tol: float | None = None) -> int:
    """Rank of a matrix (exact elimination or singular-value count)."""
    return m.rank(tol)


def pinv(m: Matrix, tol: float | None = None) -> Matrix:
    """Moore–Penrose pseudoinverse on either backend."""
    return m.pinv(tol)


__all__ = [
    "EXACT",
    "FLOAT",
    "DEFAULT_TOL",
    "GaussianRational",
    "Matrix",
    "Subspace",
    "PsdOperator",
    "SemilinearOperator",
    "FLAVOR_LINEAR",
    "FLAVOR_CONJUGATE",
    "FLAVORS",
    "rank",
    "pinv",
    "column_space",
    "common_dim",
    "subspace_sum",
    "subspace_intersect",
    "subspace_preimage",
    "principal_sines",
    "psd_check",
    "psd_sqrt",
    "spectral_root",
    "spectral_roots",
    "finite_eigh",
    "douglas_factor",
    "default_rank_tol",
    "psd_certify_exact",
    "spectral_norm",
    "hermitian_part",
]
