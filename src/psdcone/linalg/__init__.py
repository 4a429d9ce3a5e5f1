"""Linear algebra layer: matrices, subspaces and PSD operators over two backends."""

from .matrix import (
    EXACT, FLOAT, Matrix, default_rank_tol, hermitian_norm, hermitian_part, hstack_rank,
    psd_certify_exact,
)
from .psd import PsdOperator, finite_eigh, psd_check, psd_sqrt, spectral_roots
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
)


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
    "column_space",
    "common_dim",
    "subspace_intersect",
    "subspace_preimage",
    "principal_sines",
    "psd_check",
    "psd_sqrt",
    "spectral_roots",
    "finite_eigh",
    "default_rank_tol",
    "psd_certify_exact",
    "hermitian_norm",
    "hermitian_part",
    "hstack_rank",
]
