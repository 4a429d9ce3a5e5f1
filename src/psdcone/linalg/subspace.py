"""Subspaces of C^n and the lattice operations on them.

Exact backend: bases are pivot columns of the generating matrix.  Float
backend: bases are kept orthonormal, cut at the rank of
:func:`~psdcone.linalg.matrix.numerical_rank`.  Every range comparison in
the package (inclusion, equality, intersection dimension, and through them
absolute continuity and singularity) is decided by :func:`common_dim`: an
exact rank on the exact backend, a count of principal angles on the float
one, where the tolerance is an angle in radians (a direction counts as
common when its sine is at most ``tol``).
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, DimensionMismatchError
from .matrix import EXACT, FLOAT, Matrix, numerical_rank

#: default angle tolerance (radians) for float subspace decisions
DEFAULT_TOL = 1e-8


class Subspace:
    """A linear subspace of C^n carried by an explicit basis matrix."""

    __slots__ = ("ambient_dim", "basis", "backend")

    def __init__(self, basis: Matrix, *, _validated: bool = False):
        object.__setattr__(self, "ambient_dim", basis.rows)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "backend", basis.backend)
        if not _validated and basis.cols:
            if basis.backend == EXACT:
                if basis.rank() != basis.cols:
                    raise ValueError("basis columns are not linearly independent")
            else:
                span = column_space(basis)
                if span.dim != basis.cols:
                    raise ValueError("basis columns are not numerically independent")
                object.__setattr__(self, "basis", span.basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, backend: str = EXACT) -> "Subspace":
        return cls(Matrix.zeros(ambient_dim, 0, backend), _validated=True)

    @classmethod
    def full(cls, ambient_dim: int, backend: str = EXACT) -> "Subspace":
        return cls(Matrix.identity(ambient_dim, backend), _validated=True)

    # -- basic views -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.cols

    def projector(self) -> Matrix:
        """Orthogonal projector onto the subspace (float backend)."""
        if self.backend != FLOAT:
            raise BackendError("projector requires the float backend")
        if self.dim == 0:
            return Matrix.zeros(self.ambient_dim, self.ambient_dim, FLOAT)
        b = self.basis.array
        return Matrix._trusted(b @ b.conj().T)

    # -- predicates ------------------------------------------------------

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Whether ``other`` is included in this subspace."""
        _check_pair(self, other)
        return other.dim <= self.dim and common_dim(other, self, tol) == other.dim

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        _check_pair(self, other)
        if self.dim != other.dim:
            return False
        return self.contains(other, tol) and other.contains(self, tol)


def _check_pair(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.backend != v.backend:
        raise BackendError("mixed-backend subspace operation; convert first")


def principal_sines(u: Subspace, v: Subspace) -> np.ndarray:
    """Sines of the principal angles of every direction of ``u`` against ``v``.

    Float backend only; returns ``u.dim`` values in descending order.  A zero
    sine means the corresponding direction lies inside ``v``.
    """
    _check_pair(u, v)
    if u.backend != FLOAT:
        raise BackendError("principal angles require the float backend")
    if u.dim == 0:
        return np.zeros(0)
    ub = u.basis.array
    if v.dim == 0:
        return np.ones(u.dim)
    vb = v.basis.array
    residual = ub - vb @ (vb.conj().T @ ub)
    s = np.linalg.svd(residual, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def common_dim(u: Subspace, v: Subspace, tol: float = DEFAULT_TOL) -> int:
    """dim(u ∩ v), the one place a range intersection is decided.

    Exact: u.dim + v.dim − rank [U | V], with no tolerance.  Float: the
    number of directions of ``u`` whose principal-angle sine against ``v``
    is at most ``tol``; not symmetric in u and v beyond rounding, so
    inclusion of u in v reads it with u first.
    """
    _check_pair(u, v)
    if u.dim == 0 or v.dim == 0:
        return 0
    if u.backend == EXACT:
        return u.dim + v.dim - Matrix.hstack([u.basis, v.basis]).rank()
    return int(np.sum(principal_sines(u, v) <= tol))


def column_space(m: Matrix, rank_hint: int | None = None) -> Subspace:
    """Range of ``m`` as a subspace.

    Exact: the pivot columns of ``m`` form the basis.  Float: the leading
    left singular vectors; ``rank_hint`` pins the dimension when the caller
    knows the rank (e.g. it was certified exactly), bypassing the cutoff.
    """
    if m.backend == EXACT:
        piv = m.pivot_columns()
        return Subspace(m.take_columns(piv), _validated=True)
    a = m.array
    if a.size == 0:
        return Subspace.zero(m.rows, FLOAT)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = rank_hint if rank_hint is not None else numerical_rank(s, *m.shape)
    return Subspace(Matrix._trusted(u[:, :r]), _validated=True)


def subspace_intersect(u: Subspace, v: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """The subspace u ∩ v.

    Exact: solve [U | -V] (x; y) = 0 and collect the points U x (the x-parts
    of a kernel basis are independent because V has independent columns).
    Float: the leading principal directions of u against v, as many as
    :func:`common_dim` counts.
    """
    _check_pair(u, v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim, u.backend)
    if u.backend == EXACT:
        aug = Matrix.hstack([u.basis, -v.basis])
        kern = aug.null_space()
        if kern.cols == 0:
            return Subspace.zero(u.ambient_dim, EXACT)
        return Subspace(u.basis @ kern.take_rows(range(u.dim)), _validated=True)
    k = min(common_dim(u, v, tol), v.dim)
    if k == 0:
        return Subspace.zero(u.ambient_dim, FLOAT)
    ub, vb = u.basis.array, v.basis.array
    p, _, _ = np.linalg.svd(ub.conj().T @ vb)
    basis = ub @ p[:, :k]
    return Subspace(Matrix._trusted(basis), _validated=True)


def subspace_preimage(m: Matrix, v: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """{x : m x ∈ v} for a square matrix acting on the ambient space."""
    if m.rows != m.cols:
        raise DimensionMismatchError("preimage expects a square matrix")
    if m.rows != v.ambient_dim:
        raise DimensionMismatchError("matrix size does not match the ambient dimension")
    if m.backend != v.backend:
        raise BackendError("mixed-backend preimage; convert first")
    n = m.rows
    if v.dim == n:
        return Subspace.full(n, m.backend)
    aug = Matrix.hstack([m, -v.basis]) if v.dim else m
    if m.backend == EXACT:
        kern = aug.null_space()
    else:
        scale = max(1.0, aug.norm())
        kern = aug.null_space(tol=tol * scale)
    if kern.cols == 0:
        return Subspace.zero(n, m.backend)
    x_part = kern.take_rows(range(n))
    if m.backend == EXACT:
        return Subspace(x_part, _validated=True)
    return column_space(x_part, rank_hint=kern.cols)
