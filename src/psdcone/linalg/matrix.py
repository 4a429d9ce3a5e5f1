"""Dense complex matrices over two scalar backends.

The ``exact`` backend stores a Gaussian-rational matrix as Gaussian-integer
numerators over one positive denominator: two ``dtype=object`` numpy arrays
of Python ints (real and imaginary numerators) and an int ``den``, kept in
lowest terms (the gcd of ``den`` and every numerator is 1) so that equality
and hashing compare values.  Products, sums, conjugates and slices are
whole-array integer operations that clear the denominator once per matrix,
not once per entry.  Rank uses fraction-free Bareiss elimination on the
numerators (every exact rank, ``Matrix.rank``'s included, is
:func:`hstack_rank`'s), PSD certification a diagonally pivoted fraction-free
LDL* on the upper half, and kernels and inverses a fraction-free
Gauss–Jordan grid read with one division (only ``rref`` divides the whole
grid), all on rows of Python ints and with no rounding.  Single entries are
handed out as reduced :class:`~psdcone.linalg.scalar.GaussianRational` scalars.  The
``float`` backend stores complex128 arrays and relies on numpy's SVD/eigh
with the usual ``max(m, n) * eps * sigma_max`` rank cutoff, applied by
:func:`numerical_rank` alone.  Float input is copied and checked for
finiteness where it enters (:meth:`Matrix.from_float`); results computed
from matrices already held are wrapped as they are, with no copy and no
second check, so code whose arithmetic can overflow checks its own result.

:class:`Matrix` holds values and does arithmetic; it runs no tolerance
test and takes no decision that has a home elsewhere.  The float Hermitian
cut and the hermitized form a float operator stores belong to the PSD test
(``psd._psd_test``), the exact Hermitian test to :func:`psd_certify_exact`,
and whether two float matrices agree to the check that needs it (a Lebesgue
split's sum, ``lebesgue.verify_decomposition``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..errors import BackendError, DimensionMismatchError
from .scalar import GaussianRational

EXACT = "exact"
FLOAT = "float"

_EPS = float(np.finfo(np.float64).eps)


def default_rank_tol(rows: int, cols: int, smax: float = 1.0) -> float:
    """Singular-value cutoff for numerical rank: max(m, n) * eps * sigma_max
    (with sigma_max left at 1, a cut relative to the caller's own scale)."""
    return max(rows, cols, 1) * _EPS * smax


def hermitian_norm(x: np.ndarray) -> np.ndarray:
    """Spectral norm max |λ| of each Hermitian matrix of a (..., n, n) stack, from
    one ``eigvalsh`` (about half an SVD's cost) that reads only lower triangles."""
    return np.abs(np.linalg.eigvalsh(x)).max(axis=-1)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X*) / 2 of each matrix of a (..., n, n) float stack; scrubs float asymmetry."""
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def numerical_rank(s: np.ndarray, rows: int, cols: int, tol: float | None = None) -> int:
    """How many singular values ``s`` (descending) of a rows × cols matrix exceed
    ``tol``, or :func:`default_rank_tol` when ``tol`` is None.

    The one float rank cutoff: matrix rank and kernels, column spaces and
    subspace bases all count through it.
    """
    if not s.size:
        return 0
    cut = tol if tol is not None else default_rank_tol(rows, cols, float(s[0]))
    return int(np.count_nonzero(s > cut))


class Matrix:
    """Immutable dense matrix tagged with its scalar backend.

    ``rows >= 1``; ``cols >= 0`` (zero-column matrices carry rank-0 subspace
    bases).  Use :meth:`exact` / :meth:`from_float` or the shape constructors.
    """

    __slots__ = ("rows", "cols", "backend", "_re", "_im", "_den", "_f")

    def __init__(self, backend, _f=None, _re=None, _im=None, _den=1):
        rows, cols = (_f if backend == FLOAT else _re).shape
        if rows < 1:
            raise ValueError("matrix needs at least one row")
        put = object.__setattr__
        put(self, "rows", rows)
        put(self, "cols", cols)
        put(self, "backend", backend)
        put(self, "_f", _f)
        put(self, "_re", _re)
        put(self, "_im", _im)
        put(self, "_den", _den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def exact(cls, data: Iterable[Iterable]) -> "Matrix":
        parts = [[_parts(v) for v in row] for row in data]
        if not parts:
            raise ValueError("matrix needs at least one row")
        if any(len(r) != len(parts[0]) for r in parts):
            raise ValueError("ragged rows")
        den = math.lcm(*(q.denominator for row in parts for v in row for q in v))
        re, im = (
            np.array(
                [[v[k].numerator * (den // v[k].denominator) for v in row] for row in parts],
                dtype=object,
            )
            for k in (0, 1)
        )
        return _exact(re, im, den)

    @classmethod
    def from_gaussian_ints(cls, parts: np.ndarray, den: int = 1) -> "Matrix":
        """Exact matrix from a rows × cols × 2 object array of int (re, im) over ``den``."""
        return _exact(parts[..., 0], parts[..., 1], den)

    @classmethod
    def from_float(cls, data) -> "Matrix":
        arr = np.array(data, dtype=np.complex128, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("non-finite entry in float matrix")
        arr.flags.writeable = False
        return cls(FLOAT, _f=arr)

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Matrix":
        """The float matrix holding ``arr`` itself, a 2-d complex128 array computed
        from matrices already held: no copy and no finiteness check."""
        arr.flags.writeable = False
        return cls(FLOAT, _f=arr)

    @classmethod
    def zeros(cls, rows: int, cols: int, backend: str = EXACT) -> "Matrix":
        if backend == EXACT:
            zero = np.zeros((rows, cols), dtype=object)
            return _exact(zero, zero)
        return cls._trusted(np.zeros((rows, cols), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Matrix":
        if backend == EXACT:
            return _exact(np.eye(n, dtype=object), np.zeros((n, n), dtype=object))
        return cls._trusted(np.eye(n, dtype=np.complex128))

    @classmethod
    def hstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        if not parts:
            raise ValueError("nothing to stack")
        backend = parts[0].backend
        rows = parts[0].rows
        if any(p.backend != backend or p.rows != rows for p in parts):
            raise DimensionMismatchError("hstack needs matching backends and row counts")
        if backend == FLOAT:
            return cls._trusted(np.hstack([p._f for p in parts]))
        den = math.lcm(*(p._den for p in parts))
        re, im = zip(*(p._over(den) for p in parts))
        return _exact(np.hstack(re), np.hstack(im), den)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def array(self) -> np.ndarray:
        """Read-only complex128 view (converting when exact).

        Exact entries are rounded once, like ``float(Fraction)``: Python's
        int true division rounds the exact quotient correctly.  An entry
        beyond the double range raises :class:`BackendError`.
        """
        if self.backend == FLOAT:
            return self._f
        arr = np.empty(self.shape, dtype=np.complex128)
        try:  # over 1, float(int) is the same rounding with no division
            arr.real = self._re if self._den == 1 else self._re / self._den
            arr.imag = self._im if self._den == 1 else self._im / self._den
        except OverflowError:
            raise BackendError("an exact entry is too large for the float backend") from None
        arr.flags.writeable = False
        return arr

    @property
    def exact_rows(self) -> tuple:
        """Entries as rows of reduced Gaussian rationals (exact backend)."""
        self._need(EXACT)
        return tuple(
            tuple(map(self._scalar, rr, ri))
            for rr, ri in zip(self._re.tolist(), self._im.tolist())
        )

    def _scalar(self, re: int, im: int) -> GaussianRational:
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))

    def entry(self, i: int, j: int):
        if self.backend == EXACT:
            return self._scalar(self._re[i, j], self._im[i, j])
        return complex(self._f[i, j])

    def column(self, j: int) -> "Matrix":
        return self._map(lambda a: a[:, j : j + 1])

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        idx = list(idx)
        return self._map(lambda a: a[:, idx])

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        idx = list(idx)
        return self._map(lambda a: a[idx])

    def first_nonzero(self) -> tuple[int, int] | None:
        """Row-major position of the first nonzero entry (exact backend); None if zero."""
        self._need(EXACT)
        k = next((k for k, z in enumerate(zip(self._re.flat, self._im.flat)) if any(z)), None)
        return None if k is None else divmod(k, self.cols)

    def gaussian_ints(self) -> tuple[int, list[int], list[int]]:
        """(den, re, im) of an exact matrix in lowest terms, numerators row-major."""
        self._need(EXACT)
        return self._den, self._re.ravel().tolist(), self._im.ravel().tolist()

    def _need(self, backend: str) -> None:
        if self.backend != backend:
            raise BackendError(f"operation requires the {backend} backend")

    def _map(self, fn) -> "Matrix":
        """Apply an array map that commutes with real scaling (a slice, a transpose, a sign)."""
        if self.backend == FLOAT:
            return Matrix._trusted(fn(self._f))
        return _exact(fn(self._re), fn(self._im), self._den)

    def _over(self, den: int) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary numerators over ``den``, a multiple of this denominator."""
        k = den // self._den
        if k == 1:
            return self._re, self._im
        return self._re * k, self._im * k

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix._trusted(self.array)

    def to_exact(self) -> "Matrix":
        if self.backend == EXACT:
            return self
        return Matrix.exact(
            [[(Fraction(float(v.real)), Fraction(float(v.imag))) for v in row] for row in self._f]
        )

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_operand(self, other: "Matrix") -> None:
        """Refuse a second operand that is not a Matrix on this backend."""
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.backend != other.backend:
            raise BackendError("mixed backends; convert explicitly first")

    def _combine(self, other: "Matrix", op) -> "Matrix":
        self._check_operand(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"shape {self.shape} vs {other.shape}")
        if self.backend == FLOAT:
            return Matrix._trusted(op(self._f, other._f))
        den = math.lcm(self._den, other._den)
        (ar, ai), (br, bi) = self._over(den), other._over(den)
        return _exact(op(ar, br), op(ai, bi), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "Matrix":
        return self._map(np.negative)

    def scale(self, s) -> "Matrix":
        """s times the matrix; a float factor or product past the double range is a BackendError."""
        if self.backend == FLOAT:
            try:
                c = complex(s)
            except OverflowError:
                raise BackendError("the factor is too large for the float backend") from None
            with np.errstate(over="ignore", invalid="ignore"):
                f = c * self._f
            if not np.isfinite(f).all():
                raise BackendError("scaled entries leave the double range")
            return Matrix._trusted(f)
        s = GaussianRational.coerce(s)
        q = math.lcm(s.re.denominator, s.im.denominator)
        sr = s.re.numerator * (q // s.re.denominator)
        si = s.im.numerator * (q // s.im.denominator)
        re, im = self._re * sr, self._im * sr
        if si:
            re, im = re - self._im * si, im + self._re * si
        return _exact(re, im, self._den * q)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_operand(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if self.backend == FLOAT:
            return Matrix._trusted(self._f @ other._f)
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        return _exact(ar @ br - ai @ bi, ar @ bi + ai @ br, self._den * other._den)

    def conj(self) -> "Matrix":
        """Entrywise complex conjugate."""
        if self.backend == FLOAT:
            return Matrix._trusted(np.conj(self._f))
        return _exact(self._re, -self._im, self._den)

    @property
    def H(self) -> "Matrix":
        """Conjugate transpose."""
        if self.backend == FLOAT:
            return Matrix._trusted(self._f.conj().T)
        if self.cols == 0:
            raise ValueError("cannot transpose a zero-column matrix into zero rows")
        return _exact(self._re.T, -self._im.T, self._den)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.backend != other.backend or self.shape != other.shape:
            return False
        if self.backend == EXACT:
            return (
                self._den == other._den
                and np.array_equal(self._re, other._re)
                and np.array_equal(self._im, other._im)
            )
        return bool(np.array_equal(self._f, other._f))

    def __hash__(self) -> int:
        if self.backend == EXACT:
            return hash((self.rows, self.cols, self._den, *self._re.flat, *self._im.flat))
        return hash((self.rows, self.cols, self._f.tobytes()))

    def is_zero(self) -> bool:
        if self.backend == EXACT:
            return not (self._re.any() or self._im.any())
        return not self._f.any()

    # ------------------------------------------------------------------
    # rank / elimination
    # ------------------------------------------------------------------

    def rank(self) -> int:
        if self.backend == EXACT:
            return hstack_rank([self])
        return numerical_rank(np.linalg.svd(self._f, compute_uv=False), *self.shape)

    def pivot_columns(self) -> tuple[int, ...]:
        """Column indices where exact elimination places pivots."""
        self._need(EXACT)
        return tuple(_sweep(self._re.tolist(), self._im.tolist(), self.rows, self.cols, False)[0])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns (exact backend): the
        Gauss–Jordan grid divided by its last pivot."""
        self._need(EXACT)
        re, im = self._re.tolist(), self._im.tolist()
        pivots, (dr, di) = _sweep(re, im, self.rows, self.cols, True)
        red = _divide(np.array(re, dtype=object), np.array(im, dtype=object), dr, di)
        return red, tuple(pivots)

    def null_space(self) -> "Matrix":
        """Basis of the kernel as matrix columns, zero columns if trivial (exact backend)."""
        self._need(EXACT)
        if self.cols == 0:
            raise DimensionMismatchError("kernel of a zero-column matrix is degenerate")
        return hstack_kernel([self])[1]

    def inverse(self) -> "Matrix":
        """Inverse of an exact square matrix, read off the kernel of [A | I]: A is
        invertible iff the sweep pivots on its n columns, and then the kernel
        column of free column n + k has A x = −d·e_k, so its top block is −d·A^{-1}."""
        self._need(EXACT)
        if not self.is_square:
            raise DimensionMismatchError("inverse needs a square matrix")
        n = self.rows
        pivots, kre, kim, (dr, di) = _kernel([self, Matrix.identity(n)])
        if pivots != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return _divide(kre[:n], kim[:n], -dr, -di)

    def pinv(self) -> "Matrix":
        """Moore–Penrose pseudoinverse (exact backend).

        Full-rank factorization m = F G (pivot columns times nonzero echelon
        rows) and m+ = G* (F* m G*)^{-1} F*.
        """
        self._need(EXACT)
        if self.cols == 0:
            raise DimensionMismatchError("pseudoinverse of a zero-column matrix is empty")
        red, pivots = self.rref()
        r = len(pivots)
        if r == 0:
            return Matrix.zeros(self.cols, self.rows, EXACT)
        f = self.take_columns(pivots)                      # rows x r
        g = red.take_rows(range(r))                        # r x cols
        core = (f.H @ self @ g.H).inverse()                # r x r
        return g.H @ core @ f.H


def _parts(v) -> tuple:
    """Real and imaginary parts of an exact scalar, as ints or Fractions."""
    if type(v) is int:
        return (v, 0)
    if type(v) is tuple and len(v) == 2 and all(type(p) in (int, Fraction) for p in v):
        return v
    z = GaussianRational.coerce(v)
    return (z.re, z.im)


def _exact(re: np.ndarray, im: np.ndarray, den: int = 1) -> Matrix:
    """The exact matrix (re + i·im) / den in lowest terms; ``den`` is positive."""
    if den != 1:
        g = math.gcd(den, *re.flat, *im.flat)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    return Matrix(EXACT, _re=re, _im=im, _den=den)


# ----------------------------------------------------------------------
# exact kernels: fraction-free elimination over Gaussian integers, in place
# on the real and imaginary numerators given as lists of rows of ints
# ----------------------------------------------------------------------


def _sweep(re, im, m, n, jordan):
    """Fraction-free elimination taking the first nonzero entry of a column as pivot.

    Every other row becomes (p·row − row[c]·pivot_row) / prev, where p is the
    pivot and prev the pivot before it; each entry stays a minor of the input,
    so the division is exact, and skipped when by 1, as at the first pivot
    (:func:`psd_certify_exact` keeps all of its own).  Bareiss (``jordan`` false)
    clears below the pivots; Gauss–Jordan also clears above them, which leaves
    every pivot equal to the last one.  Returns (pivot columns, last pivot).
    """
    prev_re, prev_im = 1, 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        found = next((i for i in range(r, m) if re[i][c] or im[i][c]), None)
        if found is None:
            continue
        if found != r:
            re[r], re[found] = re[found], re[r]
            im[r], im[found] = im[found], im[r]
        ar, ai = re[r][c], im[r][c]
        rr, ri = re[r], im[r]
        # a complex prev divides as conj(prev) / |prev|^2
        div = prev_re * prev_re + prev_im * prev_im if prev_im else prev_re
        # left of c the pivot row is 0: rows above scale free entries, take the new pivot
        above = [j for j in range(c) if j not in pivots] + list(range(c + 1, n)) if jordan else ()
        for i in range(0 if jordan else r + 1, m):
            if i == r:
                continue
            xr, xi = re[i], im[i]
            br, bi = xr[c], xi[c]
            if i < r:
                xr[pivots[i]], xi[pivots[i]] = ar, ai
            for j in above if i < r else range(c + 1, n):
                ur = ar * xr[j] - ai * xi[j] - br * rr[j] + bi * ri[j]
                ui = ar * xi[j] + ai * xr[j] - br * ri[j] - bi * rr[j]
                if prev_im:
                    ur, ui = ur * prev_re + ui * prev_im, ui * prev_re - ur * prev_im
                if div == 1:
                    xr[j], xi[j] = ur, ui
                    continue
                xr[j], er = divmod(ur, div)
                xi[j], ei = divmod(ui, div)
                if er or ei:
                    raise ArithmeticError("non-exact division in fraction-free elimination")
            xr[c] = xi[c] = 0
        prev_re, prev_im = ar, ai
        pivots.append(c)
        if len(pivots) == m:
            break
    return pivots, (prev_re, prev_im)


def hstack_rank(parts: Sequence[Matrix]) -> int:
    """Exact rank of [parts…] from each part's numerators; a positive column scale keeps rank."""
    if any(p.backend != EXACT or p.rows != parts[0].rows for p in parts):
        raise DimensionMismatchError("hstack_rank needs exact parts with matching row counts")
    # Bareiss on the transpose, whose rows are the parts' columns
    re = [row for p in parts for row in p._re.T.tolist()]
    im = [row for p in parts for row in p._im.T.tolist()]
    return len(_sweep(re, im, len(re), parts[0].rows, False)[0])


def _divide(re: np.ndarray, im: np.ndarray, dr: int, di: int) -> Matrix:
    """(re + i·im) / (dr + i·di) for a nonzero Gaussian integer divisor.

    x / d = x·conj(d) / |d|^2 keeps the denominator a positive integer.
    """
    return _exact(re * dr + im * di, im * dr - re * di, dr * dr + di * di)


def psd_certify_exact(m: Matrix) -> tuple[bool, int]:
    """Exact PSD certificate via diagonally pivoted fraction-free LDL*.

    Returns (is_psd, rank).  Pivots are successive ratios of principal minors
    of the (symmetrically permuted) matrix; positivity of every pivot plus a
    vanishing trailing block is equivalent to PSD-ness, and the pivot count
    is the rank.  Non-Hermitian input returns (False, 0).  The positive
    common denominator changes neither, so the numerators are certified.
    Each pivot updates the Hermitian Schur complement on and above the diagonal.
    """
    re, im, n = m._re.tolist(), m._im.tolist(), m.rows
    # im[i][i] == -im[i][i] rejects a non-real diagonal
    if not m.is_square or any(
        re[i][j] != re[j][i] or im[i][j] != -im[j][i] for i in range(n) for j in range(i, n)
    ):
        return (False, 0)
    active = list(range(n))
    prev = 1
    rank = 0
    while active:
        diag = [re[i][i] for i in active]
        if min(diag) < 0:
            return (False, rank)
        p = max(diag)
        if p == 0:
            # all remaining diagonal entries vanish: PSD iff the block is zero
            return (not any(re[i][j] or im[i][j] for i in active for j in active), rank)
        piv = active.pop(diag.index(p))
        kr, ki = re[piv], im[piv]
        for a, i in enumerate(active):
            xr, xi = re[i], im[i]
            gr, gi = xr[piv], xi[piv]
            for j in active[a:]:
                ur, er = divmod(p * xr[j] - gr * kr[j] + gi * ki[j], prev)
                ui, ei = divmod(p * xi[j] - gr * ki[j] - gi * kr[j], prev)
                if er or ei:
                    raise ArithmeticError("non-exact division in fraction-free elimination")
                xr[j], xi[j], re[j][i], im[j][i] = ur, ui, ur, -ui
        prev = p
        rank += 1
    return (True, rank)


def _grid(parts: Sequence[Matrix]):
    """(re, im, pivots, free columns, last pivot) of the Gauss–Jordan grid of [parts…]."""
    den = math.lcm(*(p._den for p in parts))
    re, im = (np.hstack(x).tolist() for x in zip(*(p._over(den) for p in parts)))
    pivots, d = _sweep(re, im, len(re), len(re[0]), True)
    return re, im, pivots, [c for c in range(len(re[0])) if c not in pivots], d


def _kernel(parts: Sequence[Matrix]):
    """(pivots, kre, kim, d) of one Gauss–Jordan sweep of [parts…].  Every pivot
    equals the last one, d, so (kre + i·kim) / d, with d at each free column f
    and −grid[r][f] at the r-th pivot column, spans the kernel."""
    re, im, pivots, free, d = _grid(parts)
    kern = np.zeros((2, len(re[0]), len(free)), dtype=object)
    kern[:, free, range(len(free))] = np.array(d, dtype=object)[:, None]
    kern[:, pivots] = -np.array([re, im], dtype=object)[:, : len(pivots)][:, :, free]
    return tuple(pivots), kern[0], kern[1], d


def hstack_kernel(parts: Sequence[Matrix]) -> tuple[tuple[int, ...], Matrix]:
    """Pivot columns and kernel basis of exact [parts…], with no stacked matrix built."""
    pivots, kre, kim, (dr, di) = _kernel(parts)
    return pivots, _divide(kre, kim, dr, di)


def column_intersection(u: Matrix, v: Matrix) -> Matrix:
    """Basis of span U ∩ span V for exact U, V of independent columns: U's p columns
    pivot first in the grid of [U | V], so the kernel vector of a free column f starts
    −g_f / d, g_f the top p rows at f, and the points U·g_f / d (up to sign) take one
    product and one division by d·den(U), with no kernel array built."""
    re, im, _, free, (dr, di) = _grid([u, v])
    gr, gi = (
        np.array([[row[f] for f in free] for row in x[: u.cols]], dtype=object) for x in (re, im)
    )
    return _divide(u._re @ gr - u._im @ gi, u._re @ gi + u._im @ gr, dr * u._den, di * u._den)
