"""Subspaces of C^n and the lattice operations on them.

Bases come from, and are validated by, :func:`column_space`: pivot columns
(exact) or orthonormal columns cut at the rank of
:func:`~psdcone.linalg.matrix.numerical_rank` (float).  Every comparison of
two subspaces (inclusion, equality, intersection dimension, and through
``relations.range_relations`` absolute continuity and singularity) is
decided by :func:`common_dim`: an exact rank on the exact backend, a count
of principal angles on the float one, where the tolerance is an angle in
radians (a direction counts as common when its sine is at most ``tol``).
When one side spans C^n it answers by counting, with no rank and no angle.
Equality is one inclusion at equal dimension; :func:`subspace_intersect` is
exact only.
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, DimensionMismatchError
from .matrix import EXACT, FLOAT, Matrix, column_intersection, hstack_rank, numerical_rank

#: default angle tolerance (radians) for float subspace decisions
DEFAULT_TOL = 1e-8


class Subspace:
    """A linear subspace of C^n carried by an explicit basis matrix."""

    __slots__ = ("ambient_dim", "basis", "backend")

    def __init__(self, basis: Matrix, *, _validated: bool = False):
        if not _validated and basis.cols:
            span = column_space(basis)
            if span.dim != basis.cols:
                raise ValueError("basis columns are not linearly independent")
            basis = span.basis
        object.__setattr__(self, "ambient_dim", basis.rows)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "backend", basis.backend)

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
        b = self.basis.array
        return Matrix._trusted(b @ b.conj().T)

    # -- predicates ------------------------------------------------------

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Whether ``other`` is included in this subspace."""
        _check_pair(self, other)
        return other.dim <= self.dim and common_dim(other, self, tol) == other.dim

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Whether the subspaces coincide: at equal dimension one inclusion decides."""
        _check_pair(self, other)
        return self.dim == other.dim and self.contains(other, tol)


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
    return np.minimum(s, 1.0)  # nonnegative, but rounding can pass 1


def common_dim(u: Subspace, v: Subspace, tol: float = DEFAULT_TOL) -> int:
    """dim(u ∩ v), the one place a range intersection is decided.

    Exact: u.dim + v.dim − rank [U | V], with no tolerance.  Float: the
    number of directions of ``u`` whose principal-angle sine against ``v``
    is at most ``tol``; not symmetric in u and v beyond rounding, so
    inclusion of u in v reads it with u first.  When either side spans C^n,
    rank [U | V] = n on both backends and the count u.dim + v.dim − n needs
    neither an elimination nor an SVD.
    """
    _check_pair(u, v)
    n = u.ambient_dim
    if u.dim == 0 or v.dim == 0:
        return 0
    if u.dim == n or v.dim == n:
        return u.dim + v.dim - n
    if u.backend == EXACT:
        return u.dim + v.dim - hstack_rank([u.basis, v.basis])
    return int(np.count_nonzero(principal_sines(u, v) <= tol))


def column_space(m: Matrix, rank_hint: int | None = None) -> Subspace:
    """Range of ``m`` as a subspace.

    Exact: the pivot columns of ``m`` form the basis, or ``m`` itself when
    ``rank_hint`` equals its column count.  Float: the leading left singular
    vectors; ``rank_hint`` pins the dimension when the caller knows the rank
    (e.g. it was certified exactly), bypassing the cutoff.
    """
    if m.backend == EXACT:
        if rank_hint != m.cols:
            m = m.take_columns(m.pivot_columns())
        return Subspace(m, _validated=True)
    u, s, _ = np.linalg.svd(m.array, full_matrices=False)
    r = rank_hint if rank_hint is not None else numerical_rank(s, *m.shape)
    return Subspace(Matrix._trusted(u[:, :r]), _validated=True)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """The subspace u ∩ v of exact subspaces (float ones: :func:`common_dim`).

    One sweep of [U | V] gives the points U x (the x-parts of a kernel basis are
    independent, as V's columns are); a spanning u leaves every column of V free
    and its own point, so ``v`` is the answer then, with no sweep.
    """
    _check_pair(u, v)
    if u.backend != EXACT:
        raise BackendError("subspace intersections require the exact backend")
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim, EXACT)
    if u.dim == u.ambient_dim:
        return v
    return Subspace(column_intersection(u.basis, v.basis), _validated=True)


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
    # the x-parts of a kernel basis are independent, as V's columns are
    if m.backend == EXACT:
        kern = Matrix.hstack([m, -v.basis]).null_space()
        return column_space(kern.take_rows(range(n)), rank_hint=kern.cols)
    aug = np.concatenate((m.array, -v.basis.array), axis=1)
    _, s, vh = np.linalg.svd(aug)  # one SVD gives both the scale σ_max and the kernel
    r = numerical_rank(s, *aug.shape, tol * max(1.0, s[0]))
    x = vh[r:, :n].conj().T  # (n, c) with c <= n, so its thin U is c wide
    return Subspace(Matrix._trusted(np.linalg.svd(x, full_matrices=False)[0]), _validated=True)
