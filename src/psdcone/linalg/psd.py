"""Positive semidefinite operators with certified rank.

Exact backend: PSD-ness and rank come from a fraction-free pivoted LDL*
elimination, so both are certificates, not numerical guesses.  Float
backend: eigendecomposition with the standard cutoff; operators built by
generators or congruences can carry an exactly known rank instead.

Factored operators: an exact operator built from a factor G of full column
rank (A = G G*) keeps G.  Its rank is the column count of G and its range
is spanned by G's columns (ran G G* = ran G), so neither needs elimination;
the matrix G G* is formed only when something first reads it.  Factors are
born where a generator has just checked G's rank (``random_psd``, the pair
builders, ``rank_one``) and are carried through the exact map images that
keep them: T G under a congruence (T conj(G) for the conjugate flavor), and
V G or V (G*)^-1 on the invertible operands of a wild map with exponent +1
or -1.  Every other exact operator is unfactored, and its range is
eliminated and checked against its certified rank.

Float operators keep their eigendecomposition the way exact ones keep G,
computed once when first read: the range (the top ``rank`` eigenvectors, by
:func:`eigen_range`, which also reads the map verifiers' stacked images), the
square root and the pseudo-inverse root all read that one copy.  The zero
operator is born with its range.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np

from ..errors import BackendError, DimensionMismatchError
from .matrix import EXACT, FLOAT, Matrix, default_rank_tol, hermitian_part, psd_certify_exact
from .scalar import GaussianRational
from .subspace import Subspace, column_space

#: entries up to this size hermitize, as (A + A*) / 2, without overflow
_HERMITIZABLE = float(np.finfo(np.float64).max) / 2


class PsdOperator:
    """A PSD matrix together with its (certified) rank and cached range.

    ``factor`` is an exact G of full column rank with A = G G*, or None.
    """

    __slots__ = ("dim", "backend", "rank", "factor", "_matrix", "_range", "_eigh")

    def __init__(
        self,
        matrix: Matrix | None,
        rank: int,
        *,
        factor: Matrix | None = None,
        _trusted: bool = False,
    ):
        if matrix is not None and not matrix.is_square:
            raise DimensionMismatchError("PSD operators are square")
        if not _trusted:
            raise ValueError("use PsdOperator.from_matrix or a generator")
        shape = factor if matrix is None else matrix
        put = object.__setattr__
        put(self, "dim", shape.rows)
        put(self, "backend", shape.backend)
        put(self, "rank", rank)
        put(self, "factor", factor)
        put(self, "_matrix", matrix)
        put(self, "_range", None)
        put(self, "_eigh", None)

    def __setattr__(self, name, value):
        raise AttributeError("PsdOperator is immutable")

    @classmethod
    def from_matrix(cls, m: Matrix, tol: float | None = None) -> "PsdOperator":
        """Validate PSD-ness and compute the rank.

        Exact input is certified; float input is checked against
        ``max(m,n)*eps*scale`` (or ``tol*scale``) and stored hermitized.  Raises
        ``ValueError`` naming why ``m`` is not PSD.
        """
        reason, stored, rank = _psd_test(m, tol)
        if reason is not None:
            raise ValueError(reason)
        return cls(stored, rank, _trusted=True)

    @classmethod
    def certified(cls, m: Matrix, rank: int) -> "PsdOperator":
        """Trusted constructor for callers that know the rank exactly."""
        return cls(m, rank, _trusted=True)

    @classmethod
    def from_factor(cls, g: Matrix) -> "PsdOperator":
        """G G* for an exact nonempty G whose full column rank the caller has checked."""
        if g.backend != EXACT:
            raise BackendError("factored operators are exact")
        return cls(None, g.cols, factor=g, _trusted=True)

    @classmethod
    def zero(cls, dim: int, backend: str = EXACT) -> "PsdOperator":
        op = cls(Matrix.zeros(dim, dim, backend), 0, _trusted=True)
        object.__setattr__(op, "_range", Subspace.zero(dim, backend))
        return op

    # ------------------------------------------------------------------

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            g = self.factor
            object.__setattr__(self, "_matrix", g @ g.H)
        return self._matrix

    @property
    def is_invertible(self) -> bool:
        return self.rank == self.dim

    def range(self) -> Subspace:
        """Range (column space) of the operator; computed once and cached."""
        if self._range is None:
            if self.factor is not None:
                sub = Subspace(self.factor, _validated=True)
            elif self.backend == EXACT:
                sub = column_space(self.matrix)
                if sub.dim != self.rank:
                    raise ArithmeticError("certified rank disagrees with elimination")
            elif self.rank == 0:
                sub = Subspace.zero(self.dim, FLOAT)
            else:
                sub = eigen_range(self.eigh()[1], self.rank)
            object.__setattr__(self, "_range", sub)
        return self._range

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues and eigenvectors (float); computed once."""
        if self._eigh is None:
            if self.backend != FLOAT:
                raise BackendError("eigendecompositions are float work; convert first")
            eigval, eigvec = finite_eigh(self.matrix.array)
            eigval.flags.writeable = eigvec.flags.writeable = False
            object.__setattr__(self, "_eigh", (eigval, eigvec))
        return self._eigh

    def to_float(self) -> "PsdOperator":
        if self.backend == FLOAT:
            return self
        return PsdOperator.certified(Matrix._trusted(float_array(self)), self.rank)

    def scaled(self, c) -> "PsdOperator":
        """c * A for a finite nonnegative real c of any numeric or exact type,
        taken as the exact ``Fraction`` of its real value."""
        r = _real_value(c)
        if r is None or not 0 <= r < float("inf"):
            raise ValueError("scaling by anything but a nonnegative real leaves the PSD cone")
        if r == 0:
            return PsdOperator.zero(self.dim, self.backend)
        return PsdOperator.certified(self.matrix.scale(Fraction(r)), self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PsdOperator):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"PsdOperator(dim={self.dim}, rank={self.rank}, backend={self.backend})"


def float_array(a: PsdOperator) -> np.ndarray:
    """``a.matrix.array`` bit for bit; G G* in float for a factor G over 1 with
    2·rank·max|g|² < 2^53: each partial sum is an exact integer (+ 0.0 turns -0.0 into 0.0)."""
    if (g := a.factor) is not None:
        den, re, im = g.gaussian_ints()
        if den == 1 and 2 * g.cols * max(map(abs, re + im)) ** 2 < 2**53:
            f = g.array
            return f @ f.conj().T + 0.0
    return a.matrix.array


def _real_value(c):
    """The real number ``c`` stands for, or None when it has an imaginary part."""
    if isinstance(c, numbers.Real):
        return c
    if isinstance(c, numbers.Complex):
        return None if c.imag else c.real
    z = GaussianRational.coerce(c)
    return None if z.im else z.re


def _psd_test(m: Matrix, tol: float | None) -> tuple[str | None, Matrix, int]:
    """The one PSD test: (why ``m`` is not PSD or None, the matrix to store, its rank).

    Exact: the LDL* certificate of :func:`psd_certify_exact` decides, with
    no tolerance.  Float: with scale = max(1, max |m_ij|) and the relative
    cut = ``tol`` or max(m,n)·eps, ``m`` must be Hermitian within cut·scale,
    and its hermitized form, which is what gets stored, may dip no lower than
    −cut·scale; eigenvalues above cut·scale count toward the rank.
    Float entries too large to hermitize, or a spectrum beyond the double
    range, raise :class:`BackendError`.
    """
    if m.backend == EXACT:
        ok, rank = psd_certify_exact(m)
        return (None if ok else "matrix is not positive semidefinite"), m, rank
    a = m.array
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if scale > _HERMITIZABLE:
        raise BackendError("float entries beyond half the double range overflow when hermitized")
    cut = tol if tol is not None else default_rank_tol(m.rows, m.cols)
    if not (m.is_square and np.abs(a - a.conj().T).max() <= cut * scale):
        return "matrix is not Hermitian within tolerance", m, 0
    h = Matrix._trusted(hermitian_part(a))
    eig = np.linalg.eigvalsh(h.array)
    if not np.isfinite(eig).all():
        raise BackendError("eigenvalues overflow the double range")
    if float(eig[0]) < -cut * scale:
        return "matrix has a negative eigenvalue beyond tolerance", h, 0
    return None, h, int(np.count_nonzero(eig > cut * scale))


def psd_check(m: Matrix, tol: float | None = None) -> bool:
    """Whether ``m`` is PSD, by the test :meth:`PsdOperator.from_matrix` applies.

    Non-Hermitian input answers False rather than raising.  For the float
    backend ``tol`` scales the permitted asymmetry and eigenvalue dip.
    """
    return _psd_test(m, tol)[0] is None


def finite_eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a float (..., n, n) stack whose spectra must be finite."""
    eigval, eigvec = np.linalg.eigh(x)
    if not np.isfinite(eigval).all():
        raise BackendError("eigenvalues overflow the double range")
    return eigval, eigvec


def eigen_range(eigvec: np.ndarray, rank: int) -> Subspace:
    """Range of a float PSD matrix of certified ``rank``, read off its
    ascending eigenvectors ``eigvec`` (n, n): the top ``rank`` of them."""
    return Subspace(Matrix._trusted(eigvec[:, eigvec.shape[1] - rank :]), _validated=True)


def spectral_roots(eigval, eigvec, ranks, inverse: bool = False) -> np.ndarray:
    """A^{1/2}, or (A^{1/2})^+ when ``inverse``, of a float matrix or of each of a stack.

    ``eigval`` (..., n) and ``eigvec`` (..., n, n) are ascending eigendecompositions
    and ``ranks`` the certified rank or ranks.  Eigenvalues below a matrix's rank
    count as zero, so either root has exactly the rank (and hence the range) of
    that matrix.  One matrix is sliced: a mask would cost more than its root.
    """
    n = eigval.shape[-1]
    if inverse:
        power = 1.0 / np.sqrt(np.maximum(eigval, np.finfo(float).tiny))
    else:
        power = np.sqrt(np.maximum(eigval, 0.0))
    lows = n - np.asarray(ranks)
    if lows.size == 1:
        power[..., : lows.item()] = 0.0
    else:
        power[np.arange(n) < lows[:, None]] = 0.0
    return (eigvec * power[..., None, :]) @ eigvec.conj().swapaxes(-1, -2)


def psd_sqrt(a: PsdOperator) -> PsdOperator:
    """The PSD square root (float backend only), of exactly the rank of ``a``."""
    root = Matrix._trusted(hermitian_part(spectral_roots(*a.eigh(), a.rank)))
    return PsdOperator.certified(root, a.rank)

