"""Lines, line maps, and reconstruction of the operator behind a line map.

A :class:`Line` is a one-dimensional subspace whose direction is divided once
by its first nonzero entry.  It is held as an integer key, the lowest-terms
denominator and Gaussian-integer numerators of that divided direction, so
projective equality is tuple equality; the exact n×1 column is built from the
key only when arithmetic asks for it.  Coplanarity and independence are exact
eliminations swept straight off the lines' keys, with no matrix built; each
function below reads all its canonical probes or triples off one elimination.
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

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, GenerationError, LineMapError, NotSemilinearError
from .generators import RETRY_BUDGET, derive_seed, random_direction, random_scalar, rank_one
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLAVOR_CONJUGATE,
    FLAVOR_LINEAR,
    GaussianRational,
    Matrix,
    SemilinearOperator,
)
from .linalg.matrix import _sweep, hstack_kernel
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
    """A point of projective space, held as its integer key (den, re…, im…), by
    which Lines compare and hash; :meth:`column` builds the exact column once."""

    _key: tuple
    _col: Matrix | None = field(compare=False)

    def __init__(self, entries):
        self._normalise(*Matrix.exact([[c] for c in entries]).gaussian_ints()[1:])

    def _normalise(self, re: list[int], im: list[int]) -> None:
        # the key is (den, re…, im…) of v / (a + bi) = v·(a − bi) / (a² + b²) for the
        # first nonzero entry a + bi, in lowest terms; v's own denominator cancels
        k = next((k for k, (x, y) in enumerate(zip(re, im)) if x or y), None)
        if k is None:
            raise ValueError("a line needs a nonzero direction")
        a, b = re[k], im[k]
        den = a * a + b * b
        re, im = [x * a + y * b for x, y in zip(re, im)], [y * a - x * b for x, y in zip(re, im)]
        g = math.gcd(den, *re, *im)
        object.__setattr__(self, "_key", (den // g, *(x // g for x in re), *(y // g for y in im)))
        object.__setattr__(self, "_col", None)

    @classmethod
    def _of(cls, re: list[int], im: list[int]) -> "Line":
        """The line through the Gaussian-integer direction re + i·im."""
        line = cls.__new__(cls)
        line._normalise(re, im)
        return line

    @classmethod
    def from_vector(cls, v) -> "Line":
        if not isinstance(v, Matrix):
            return cls(v)
        if v.cols != 1:
            raise DimensionMismatchError("expected a column vector")
        return cls._of(*v.gaussian_ints()[1:])

    @property
    def ambient_dim(self) -> int:
        return len(self._key) // 2

    def _parts(self) -> tuple[list[int], list[int]]:
        n = len(self._key) // 2
        return list(self._key[1 : n + 1]), list(self._key[n + 1 :])

    def column(self) -> Matrix:
        if self._col is None:
            parts = np.array(self._parts(), dtype=object).T.reshape(-1, 1, 2)
            object.__setattr__(self, "_col", Matrix.from_gaussian_ints(parts, self._key[0]))
        return self._col

    def __repr__(self) -> str:
        return f"Line({', '.join(str(row[0]) for row in self.column().exact_rows)})"


def _indicator(n: int, support) -> Line:
    """The line of the 0/1 vector with ones at ``support``."""
    return Line._of([1 if k in support else 0 for k in range(n)], [0] * n)


def _rank(lines) -> int:
    """Exact rank of the lines' directions, swept off their keys' numerators."""
    re, im = zip(*(ln._parts() for ln in lines))
    return len(_sweep(list(re), list(im), len(re), lines[0].ambient_dim, False)[0])


def unit_line(n: int, j: int) -> Line:
    """The line of e_j."""
    if not 0 <= j < n:
        raise ValueError("a unit line needs 0 <= j < n")
    return _indicator(n, (j,))


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


def reconstruct_semilinear(line_map: LineMap) -> SemilinearOperator:
    """Recover (T, flavor) from a line map, up to one global scalar.

    Probes the images of the coordinate lines [e_j], the diagonal lines
    [e_1 + e_j], and the imaginary probe [e_1 + i·e_2].  The coordinate
    images fix the columns of T up to scalars, the diagonal images pin the
    scalars relative to the first column, and the imaginary probe decides
    between the linear and conjugate flavors.  Once one rank shows the
    coordinate images independent, one kernel of [coordinate images | diagonal
    images] writes every diagonal image in their basis.  Raises
    :class:`NotSemilinearError` when the probed values fit no operator.
    """
    n = line_map.ambient_dim
    if n < 2:
        raise DimensionMismatchError("reconstruction needs ambient dimension at least 2")

    images = [line_map(unit_line(n, j)) for j in range(n)]
    if _rank(images) != n:
        raise NotSemilinearError("images of the coordinate lines are linearly dependent")

    w = [image.column() for image in images]
    # the w are a basis, so the kernel column of [w | d_1 … d_{n−1}] for the image
    # d_j of [e_0 + e_j] is (−c, 1) with d_j = Σ c_r·w_r: d_j = α·w_0 + β·w_j iff
    # c sits on {0, j}
    _, kern = hstack_kernel(w + [line_map(_indicator(n, (0, j))).column() for j in range(1, n)])
    cols = [w[0]]
    for j in range(1, n):
        if any(kern.entry(r, j - 1) for r in range(1, n) if r != j):
            raise NotSemilinearError(
                "image of a diagonal probe leaves the plane spanned by the coordinate images"
            )
        alpha, beta = kern.entry(0, j - 1), kern.entry(j, j - 1)
        if not alpha or not beta:
            raise NotSemilinearError("image of a diagonal probe collapses onto a coordinate image")
        cols.append(w[j].scale(beta / alpha))
    t = Matrix.hstack(cols)

    image = line_map(Line._of([1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)))
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
    at ``trials=0``; when the unit images are independent, one elimination of
    them and the images of the [e_i + e_j] decides every canonical triple, else
    each is ranked.  Seeded random triples widen the net; a negative count
    raises ``ValueError``, and a sampler that keeps drawing dependent
    directions raises :class:`GenerationError` after ``RETRY_BUDGET`` draws."""
    n = line_map.ambient_dim
    if n < 3:
        raise DimensionMismatchError(
            "coplanarity carries no information below ambient dimension 3"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    failures: list[dict] = []
    independent = math.comb(n, 3)
    units = [unit_line(n, i) for i in range(n)]
    pairs = [(i, j, f"e{i},e{j},e{i}+e{j}") for i, j in itertools.combinations(range(n), 2)]
    mixed = [_indicator(n, (i, j)) for i, j, _ in pairs]

    def check(kind: str, label, triple, want_rank_two: bool):
        got = _rank([line_map(ln) for ln in triple])
        if (got > 2 if want_rank_two else got != 3):
            failures.append({"kind": kind, "triple": label, "image_rank": got})

    # a Gauss–Jordan sweep of [unit images | mixed images] whose units pivot on their
    # own n columns shows every unit triple independent, and leaves the image of
    # [e_i + e_j] as its coordinates in their basis: on {i, j} iff its triple is coplanar
    images = [line_map(ln) for ln in units + mixed]
    re, im = ([list(row) for row in zip(*part)] for part in zip(*(ln._parts() for ln in images)))
    if _sweep(re, im, n, len(images), True)[0] == list(range(n)):
        for f, (i, j, label) in enumerate(pairs, n):
            if any(re[r][f] or im[r][f] for r in range(n) if r not in (i, j)):
                failures.append({"kind": "canonical", "triple": label, "image_rank": 3})
    else:
        for (i, j, label), line in zip(pairs, mixed):
            check("canonical", label, (units[i], units[j], line), True)
        for i, j, k in itertools.combinations(range(n), 3):
            check("canonical", f"e{i},e{j},e{k}", (units[i], units[j], units[k]), False)

    rand = random.Random(derive_seed(seed, 51, n))
    for made in range(trials):
        # redraw a dependent pair (u, v) a bounded number of times; then s·u + t·v ≠ 0
        for _ in range(RETRY_BUDGET):
            u = random_direction(n, rand)
            v = random_direction(n, rand)
            pair = [Line.from_vector(u), Line.from_vector(v)]
            if _rank(pair) == 2:
                break
        else:
            raise GenerationError("could not draw two independent directions for a seeded triple")
        combo = u.scale(random_scalar(rand)) + v.scale(random_scalar(rand))
        check("random", f"seeded#{made}", (*pair, Line.from_vector(combo)), True)
        x = Line.from_vector(random_direction(n, rand))
        if _rank([*pair, x]) == 3:
            independent += 1
            check("random", f"seeded#{made}/independent", (*pair, x), False)

    return ProjectivityReport(
        ambient_dim=n,
        coplanar_triples=len(pairs) + trials,
        independent_triples=independent,
        failures=tuple(failures),
    )


def swap_counterexample_line_map(dim: int = 3) -> LineMap:
    """A bijection of lines that is not induced by any operator: it swaps
    [e_1] with [e_1 + e_2] and fixes every other line, which breaks the
    coplanarity of ([e_1], [e_3], [e_1 + e_3])."""
    if dim < 3:
        raise ValueError("the counterexample needs ambient dimension at least 3")
    a, b = unit_line(dim, 0), _indicator(dim, (0, 1))
    swap = {a: b, b: a}
    return LineMap(dim, lambda line: swap.get(line, line))
