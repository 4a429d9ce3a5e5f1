"""Lines, line maps, and reconstruction of the operator behind a line map.

A :class:`Line` is a one-dimensional subspace whose direction is divided once
by its first nonzero entry.  It compares and hashes by an integer key, the
lowest-terms denominator and Gaussian-integer numerators of that divided
direction, so projective equality is tuple equality; the same direction is
kept as an exact n×1 matrix for arithmetic.  Coplanarity and independence
are exact ranks of side-by-side columns, :func:`~psdcone.linalg.hstack_rank`.
A cone map that sends rank-one operators to rank-one operators induces a map
on lines via Ψ([f]) = ran φ(f f*); :func:`induced_line_map` builds it for any
:class:`~psdcone.preserver.PreserverSpec`.

:func:`reconstruct_semilinear` inverts the construction: from the values of a
line map on 2n probes it recovers an operator T (unique up to a scalar) and
its flavor, or raises :class:`NotSemilinearError` when no such T exists.
:func:`verify_projectivity` checks the geometric prerequisite — coplanarity
preserved in both directions — on canonical and seeded triples; it needs
ambient dimension at least 3, where coplanarity carries information.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, LineMapError, NotSemilinearError
from .generators import derive_seed, random_direction, random_scalar, rank_one
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLAVOR_CONJUGATE,
    FLAVOR_LINEAR,
    GaussianRational,
    Matrix,
    SemilinearOperator,
    hstack_rank,
)
from .linalg.matrix import hstack_kernel
from .preserver import PreserverSpec, _image_ranges
from .report import Verdict

# Rational reconstruction bounds.  Directions arising here are ratios of
# Gaussian integers whose squared magnitudes stay in the low thousands, so a
# denominator cap of 1e5 covers every true value, while the best rational
# approximation of an irrational below that cap still misses by ~1/(2e10) —
# comfortably above the acceptance window and far above eigenvector noise.
_SNAP_DENOMINATOR = 10**5
_SNAP_TOL = 1e-11
# Relative cutoff for picking the first genuinely nonzero component of a
# float direction; true components sit at least ~1e-4 of the largest one.
_PIVOT_CUT = 1e-6


@dataclass(frozen=True, init=False, repr=False)
class Line:
    """A point of projective space; Lines compare and hash by their integer key."""

    _key: tuple
    _col: Matrix = field(compare=False)

    def __init__(self, entries):
        self._normalise(Matrix.exact([[c] for c in entries]))

    def _normalise(self, col: Matrix) -> None:
        # the key is (den, re…, im…) of v / (a + bi) = v·(a − bi) / (a² + b²) for the
        # first nonzero entry a + bi, in lowest terms; v's own denominator cancels
        _, re, im = col.gaussian_ints()
        k = next((k for k, (x, y) in enumerate(zip(re, im)) if x or y), None)
        if k is None:
            raise ValueError("a line needs a nonzero direction")
        a, b = re[k], im[k]
        den = a * a + b * b
        re, im = [x * a + y * b for x, y in zip(re, im)], [y * a - x * b for x, y in zip(re, im)]
        g = math.gcd(den, *re, *im)
        den, re, im = den // g, [x // g for x in re], [y // g for y in im]
        parts = np.array([re, im], dtype=object).T.reshape(-1, 1, 2)
        object.__setattr__(self, "_key", (den, *re, *im))
        object.__setattr__(self, "_col", Matrix.from_gaussian_ints(parts, den))

    @classmethod
    def from_vector(cls, v) -> "Line":
        if not isinstance(v, Matrix):
            return cls(v)
        if v.cols != 1:
            raise DimensionMismatchError("expected a column vector")
        line = cls.__new__(cls)
        line._normalise(v)
        return line

    @property
    def ambient_dim(self) -> int:
        return self._col.rows

    def column(self) -> Matrix:
        return self._col

    def __repr__(self) -> str:
        return f"Line({', '.join(str(row[0]) for row in self._col.exact_rows)})"


def unit_line(n: int, j: int) -> Line:
    """The line of e_j."""
    if not 0 <= j < n:
        raise ValueError("a unit line needs 0 <= j < n")
    return Line.from_vector(Matrix.identity(n).column(j))


class LineMap:
    """A self-map of projective space, evaluated lazily and cached."""

    __slots__ = ("ambient_dim", "_fn", "_cache")

    def __init__(self, ambient_dim: int, fn):
        self.ambient_dim = ambient_dim
        self._fn = fn
        self._cache: dict[Line, Line] = {}

    def __call__(self, line: Line) -> Line:
        if line.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("line lives in the wrong ambient space")
        hit = self._cache.get(line)
        if hit is None:
            hit = self._fn(line)
            if not isinstance(hit, Line) or hit.ambient_dim != self.ambient_dim:
                raise LineMapError("line map returned a value outside its space")
            self._cache[line] = hit
        return hit


def _snap_direction(v: np.ndarray) -> Matrix:
    """The exact column at the rational point that the float direction ``v``
    sits at, scaled so its first clearly nonzero entry is 1."""
    mags = np.abs(v)
    top = float(mags.max())
    if top <= 0.0:
        raise LineMapError("zero direction cannot define a line")
    idx = int(np.argmax(mags > _PIVOT_CUT * top))
    w = v / v[idx]
    out = []
    for z in w:
        re = Fraction(float(z.real)).limit_denominator(_SNAP_DENOMINATOR)
        im = Fraction(float(z.imag)).limit_denominator(_SNAP_DENOMINATOR)
        if abs(float(re) - z.real) > _SNAP_TOL or abs(float(im) - z.imag) > _SNAP_TOL:
            raise LineMapError("direction does not sit at a rational point")
        out.append([(re, im)])
    return Matrix.exact(out)


def induced_line_map(spec: PreserverSpec) -> LineMap:
    """The action of a cone map on lines, Ψ([f]) = ran φ(f f*).

    The image's range is read as the map verifiers read it, by
    :func:`~psdcone.preserver._image_ranges`: exact-capable maps stay exact,
    and a spectral map's float image is ranked by its own spectrum and its
    direction snapped back to exact rational coordinates.  An image that is
    not rank one, or does not sit at a rational point, raises
    :class:`LineMapError`.
    """
    n = spec.dimension
    snap = not spec.exact_capable

    def fn(line: Line) -> Line:
        (image,) = _image_ranges(spec, [spec.operand(rank_one(line.column()))], DEFAULT_TOL)
        if image.dim != 1:
            raise LineMapError("rank-one input mapped to an image of different rank")
        basis = image.basis
        return Line.from_vector(_snap_direction(basis.array[:, 0]) if snap else basis)

    return LineMap(n, fn)


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------


def _solve_two(w1: Matrix, wj: Matrix, d: Matrix) -> tuple[GaussianRational, GaussianRational]:
    """Exact coefficients (α, β) with d = α·w1 + β·wj, or a failure."""
    pivots, kern = hstack_kernel([w1, wj, d])
    # a nonzero entry of d below row 2 would have made column 2 a pivot
    if pivots != (0, 1):
        raise NotSemilinearError(
            "image of a diagonal probe leaves the plane spanned by the coordinate images"
        )
    return -kern.entry(0, 0), -kern.entry(1, 0)  # the kernel column is (−α, −β, 1)


def reconstruct_semilinear(line_map: LineMap) -> SemilinearOperator:
    """Recover (T, flavor) from a line map, up to one global scalar.

    Probes the images of the coordinate lines [e_j], the diagonal lines
    [e_1 + e_j], and the imaginary probe [e_1 + i·e_2].  The coordinate
    images fix the columns of T up to scalars, the diagonal images pin the
    scalars relative to the first column, and the imaginary probe decides
    between the linear and conjugate flavors.  Raises
    :class:`NotSemilinearError` when the probed values are inconsistent with
    every operator.
    """
    n = line_map.ambient_dim
    if n < 2:
        raise DimensionMismatchError("reconstruction needs ambient dimension at least 2")

    w = [line_map(unit_line(n, j)).column() for j in range(n)]
    if hstack_rank(w) != n:
        raise NotSemilinearError("images of the coordinate lines are linearly dependent")

    cols = [w[0]]
    for j in range(1, n):
        diag = Line(1 if k in (0, j) else 0 for k in range(n))
        alpha, beta = _solve_two(w[0], w[j], line_map(diag).column())
        if not alpha or not beta:
            raise NotSemilinearError(
                "image of a diagonal probe collapses onto a coordinate image"
            )
        cols.append(w[j].scale(beta / alpha))
    t = Matrix.hstack(cols)

    probe = Line(((1, 0), (0, 1)) + ((0, 0),) * (n - 2))
    image = line_map(probe)
    linear_target = Line.from_vector(cols[0] + cols[1].scale((0, 1)))
    conjugate_target = Line.from_vector(cols[0] - cols[1].scale((0, 1)))
    if image == linear_target:
        flavor = FLAVOR_LINEAR
    elif image == conjugate_target:
        flavor = FLAVOR_CONJUGATE
    else:
        raise NotSemilinearError("imaginary probe matches neither flavor")
    return SemilinearOperator(t, flavor)


def projective_scalar(a: Matrix, b: Matrix):
    """The scalar λ with a = λ·b when the exact matrices are proportional, else None."""
    if a.backend != EXACT or b.backend != EXACT or a.shape != b.shape:
        return None
    pivot = b.first_nonzero()
    if pivot is None:
        return GaussianRational.coerce(1) if a.is_zero() else None
    lam = a.entry(*pivot) / b.entry(*pivot)
    return lam if a == b.scale(lam) else None


# ----------------------------------------------------------------------
# projectivity verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivityReport(Verdict):
    ambient_dim: int
    coplanar_triples: int
    independent_triples: int
    failures: tuple
    note: str = "coplanarity checked in both directions on canonical and seeded triples"

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_projectivity(line_map: LineMap, trials: int = 50, seed: int = 0) -> ProjectivityReport:
    """Check that coplanar triples stay coplanar and independent triples stay
    independent — the geometric prerequisite for a line map to come from an
    invertible operator.  Canonical triples make the check deterministic even
    at ``trials=0``; seeded random triples widen the net, and a negative
    count raises ``ValueError``."""
    n = line_map.ambient_dim
    if n < 3:
        raise DimensionMismatchError(
            "coplanarity carries no information below ambient dimension 3"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    failures: list[dict] = []
    coplanar = 0
    independent = 0
    units = [unit_line(n, i) for i in range(n)]

    def check(kind: str, label, triple, want_rank_two: bool):
        nonlocal coplanar, independent
        got = hstack_rank([line_map(ln).column() for ln in triple])
        if want_rank_two:
            coplanar += 1
            if got > 2:
                failures.append({"kind": kind, "triple": label, "image_rank": got})
        else:
            independent += 1
            if got != 3:
                failures.append({"kind": kind, "triple": label, "image_rank": got})

    for i in range(n):
        for j in range(i + 1, n):
            mixed = Line(1 if k in (i, j) else 0 for k in range(n))
            check("canonical", f"e{i},e{j},e{i}+e{j}", (units[i], units[j], mixed), True)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                check("canonical", f"e{i},e{j},e{k}", (units[i], units[j], units[k]), False)

    rand = random.Random(derive_seed(seed, 51, n))
    made = 0
    while made < trials:
        u = random_direction(n, rand)
        v = random_direction(n, rand)
        if hstack_rank([u, v]) != 2:
            continue
        combo = u.scale(random_scalar(rand)) + v.scale(random_scalar(rand))
        if combo.is_zero():
            continue
        triple = (Line.from_vector(u), Line.from_vector(v), Line.from_vector(combo))
        check("random", f"seeded#{made}", triple, True)
        x = random_direction(n, rand)
        if hstack_rank([u, v, x]) == 3:
            check("random", f"seeded#{made}/independent", (triple[0], triple[1], Line.from_vector(x)), False)
        made += 1

    return ProjectivityReport(
        ambient_dim=n,
        coplanar_triples=coplanar,
        independent_triples=independent,
        failures=tuple(failures),
    )


def swap_counterexample_line_map(dim: int = 3) -> LineMap:
    """A bijection of lines that is not induced by any operator: it swaps
    [e_1] with [e_1 + e_2] and fixes every other line, which breaks the
    coplanarity of ([e_1], [e_3], [e_1 + e_3])."""
    if dim < 3:
        raise ValueError("the counterexample needs ambient dimension at least 3")
    swapped_a = unit_line(dim, 0)
    swapped_b = Line((1, 1) + (0,) * (dim - 2))

    def fn(line: Line) -> Line:
        if line == swapped_a:
            return swapped_b
        if line == swapped_b:
            return swapped_a
        return line

    return LineMap(dim, fn)
