"""Invertible linear / conjugate-linear operators acting on vectors."""

from __future__ import annotations

from ..errors import BackendError, DimensionMismatchError
from .matrix import EXACT, FLOAT, Matrix

FLAVOR_LINEAR = "linear"
FLAVOR_CONJUGATE = "conjugate"
FLAVORS = (FLAVOR_LINEAR, FLAVOR_CONJUGATE)


class SemilinearOperator:
    """x ↦ T x (linear) or x ↦ T conj(x) (conjugate-linear), with T invertible."""

    __slots__ = ("t", "flavor", "_float")

    def __init__(self, t: Matrix, flavor: str = FLAVOR_LINEAR):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if not t.is_square:
            raise DimensionMismatchError("semilinear operators are square")
        if t.rank() != t.rows:
            if t.backend == EXACT:
                raise ValueError("operator matrix is singular")
            raise BackendError("operator matrix is numerically singular")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_float", None)

    def __setattr__(self, name, value):
        raise AttributeError("SemilinearOperator is immutable")

    @property
    def dim(self) -> int:
        return self.t.rows

    @property
    def backend(self) -> str:
        return self.t.backend

    @property
    def is_conjugate(self) -> bool:
        return self.flavor == FLAVOR_CONJUGATE

    def to_float(self) -> "SemilinearOperator":
        """The float twin, converted and checked for singularity on first use only;
        a T whose float copy is numerically singular raises :class:`BackendError`."""
        if self.backend == FLOAT:
            return self
        if self._float is None:
            object.__setattr__(self, "_float", SemilinearOperator(self.t.to_float(), self.flavor))
        return self._float

    def apply_matrix(self, m: Matrix) -> Matrix:
        """Columnwise action: each column x becomes T x or T conj(x)."""
        if m.rows != self.dim:
            raise DimensionMismatchError("row count does not match the operator")
        arg = m.conj() if self.is_conjugate else m
        return self.t @ arg

    def compose(self, other: "SemilinearOperator") -> "SemilinearOperator":
        """self ∘ other; flavors multiply like signs."""
        if self.dim != other.dim:
            raise DimensionMismatchError("composition dimension mismatch")
        inner = other.t.conj() if self.is_conjugate else other.t
        flavor = (
            FLAVOR_CONJUGATE
            if (self.is_conjugate != other.is_conjugate)
            else FLAVOR_LINEAR
        )
        return SemilinearOperator(self.t @ inner, flavor)

    def __repr__(self) -> str:
        return f"SemilinearOperator(dim={self.dim}, flavor={self.flavor}, backend={self.backend})"
