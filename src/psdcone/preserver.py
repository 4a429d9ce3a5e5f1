"""Cone maps and verification of what they preserve.

Four map kinds are supported:

``congruence``   A ↦ T A T* (or T conj(A) T* for the conjugate flavor); runs
                 on both backends and preserves rank exactly.
``form_iv``      A ↦ S^{1/2} Z_A S^{1/2} with S = T A T* (resp. conjugated)
                 and {Z_A} an operator-indexed family of invertible positive
                 weights; spectral, so float backend only.
``wild``         identity on non-invertible operators, A ↦ V A^{±1} V* on
                 invertible ones with seeded invertible V and exponent; a
                 bijection of the cone that respects domination and
                 singularity while acting freely inside the invertibles.
``composite``    sequential composition of the above, kept flat: a composite
                 part's own parts are spliced in, in order.

A :class:`PreserverSpec` derives its data once: whether its images are
exact, a wild map's V and exponent, and the operator T that induces the map
(ran φ(A) = T(ran A)).  The verifiers are sampling-based: they establish
necessary conditions on finite samples and say so in their reports.  All
three, :func:`dim2_conditions` included, read the ranges of their images
through one blocked path, :func:`_mapped`: fixed blocks of trials, float
images computed as (m, n, n) stacks with one stacked pass over each block's
images, then one stacked ``eigh`` that ranks each image by its own spectrum.
:func:`verify_range_form` transports each operand's exact range basis by the
matrix of the T the spec names, so it shares no arithmetic with the map.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BackendError, DimensionMismatchError
from .generators import (
    derive_seed,
    random_direction,
    random_psd,
    random_scalar,
    random_semilinear,
    rank_one,
)
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    PsdOperator,
    SemilinearOperator,
    Subspace,
    column_space,
    finite_eigh,
    hermitian_part,
    hstack_rank,
    spectral_roots,
)
from .linalg.psd import eigen_range, float_array
from .relations import range_relations, relation_triple
from .report import Verdict

KIND_CONGRUENCE = "congruence"
KIND_FORM_IV = "form_iv"
KIND_WILD = "wild"
KIND_COMPOSITE = "composite"
KINDS = (KIND_CONGRUENCE, KIND_FORM_IV, KIND_WILD, KIND_COMPOSITE)


@dataclass(frozen=True, eq=False, slots=True)
class WeightFamily:
    """Deterministic family A ↦ Z_A of invertible positive float weights.

    The family hashes (seed, A) to draw Z_A = G G* + I.
    """

    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("weight seed must be non-negative")

    @classmethod
    def seeded(cls, seed: int) -> "WeightFamily":
        return cls(seed)

    def z_for(self, x: np.ndarray) -> np.ndarray:
        """The weights (m, n, n) of the float operands stacked in ``x`` (m, n, n):
        one stream per operand, keyed by the first 8 bytes of the sha256 of
        ``float|n|`` and its bytes (−0.0 read as 0.0), one (2, n, n) standard
        normal draw each into one (m, 2, n, n) array, then G G* + I hermitized
        over the whole stack."""
        n = x.shape[-1]
        head = f"float|{n}|".encode()
        draws = np.empty((len(x), 2, n, n))
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
        for d, r in zip(draws, x + 0.0):
            key = int.from_bytes(hashlib.sha256(head + r.tobytes()).digest()[:8], "big")
            np.random.default_rng((self.seed, key)).standard_normal(out=d)
        g = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        return hermitian_part(g @ g.conj().swapaxes(-1, -2) + np.eye(n))


@dataclass(frozen=True, eq=False)
class PreserverSpec:
    """Validated description of a cone map; apply it with :func:`apply_map`.

    A composite's parts are never composites: a composite part is spliced in."""

    kind: str
    dimension: int
    operator: SemilinearOperator | None = None
    weights: WeightFamily | None = None
    wild_seed: int | None = None
    parts: tuple["PreserverSpec", ...] = ()

    def __post_init__(self):
        kind = self.kind
        if kind not in KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if kind in (KIND_CONGRUENCE, KIND_FORM_IV):
            if self.operator is None:
                raise ValueError(f"{kind} needs an operator")
            if self.operator.dim != self.dimension:
                raise DimensionMismatchError("operator size differs from map dimension")
        if kind == KIND_FORM_IV and self.weights is None:
            raise ValueError("form_iv needs a weight family")
        if kind == KIND_WILD:
            if self.wild_seed is None:
                raise ValueError("wild needs a seed")
            self.wild_data  # V is drawn here, once
        if kind == KIND_COMPOSITE:
            if not isinstance(self.parts, tuple) or not self.parts:
                raise ValueError("composite needs a non-empty tuple of parts")
            if any(p.dimension != self.dimension for p in self.parts):
                raise DimensionMismatchError("composite parts disagree on dimension")
            flat = (q for p in self.parts for q in (p.parts if p.kind == KIND_COMPOSITE else (p,)))
            object.__setattr__(self, "parts", tuple(flat))

    # -- convenience constructors ---------------------------------------

    @classmethod
    def congruence(cls, operator: SemilinearOperator) -> "PreserverSpec":
        return cls(KIND_CONGRUENCE, operator.dim, operator=operator)

    @classmethod
    def form_iv(cls, operator: SemilinearOperator, weights: WeightFamily) -> "PreserverSpec":
        return cls(KIND_FORM_IV, operator.dim, operator=operator, weights=weights)

    @classmethod
    def composite(cls, parts) -> "PreserverSpec":
        parts = tuple(parts)
        if not parts:
            raise ValueError("composite needs at least one part")
        return cls(KIND_COMPOSITE, parts[0].dimension, parts=parts)

    # -- derived once ------------------------------------------------------

    @cached_property
    def exact_capable(self) -> bool:
        """Whether images can be computed without spectral calculus."""
        if self.kind == KIND_CONGRUENCE:
            return self.operator.backend == EXACT
        if self.kind == KIND_COMPOSITE:
            return all(p.exact_capable for p in self.parts)
        return self.kind == KIND_WILD

    @cached_property
    def wild_data(self) -> tuple[Matrix, int]:
        """(V, exponent) of a wild map, drawn when the spec is built."""
        if self.kind != KIND_WILD:
            raise ValueError("not a wild map")
        rand = random.Random(derive_seed(self.wild_seed, 901, self.dimension))
        exponent = rand.choice((1, -1))
        v = random_semilinear(self.dimension, derive_seed(self.wild_seed, 902, self.dimension)).t
        return v, exponent

    @cached_property
    def inducing_operator(self) -> SemilinearOperator:
        """The T with ran φ(A) = T(ran A): a congruence's or form_iv's own
        operator, the identity for a wild map, and T_k∘…∘T_1 for a composite
        of parts 1..k (on the float backend once the parts' backends differ)."""
        if self.kind == KIND_WILD:
            return SemilinearOperator(Matrix.identity(self.dimension, EXACT))
        if self.kind != KIND_COMPOSITE:
            return self.operator
        t = self.parts[0].inducing_operator
        for part in self.parts[1:]:
            s = part.inducing_operator
            if s.backend != t.backend:
                s, t = s.to_float(), t.to_float()
            t = s.compose(t)
        return t

    def operand(self, a):
        """``a`` on the backend the map's images are computed on."""
        return a if self.exact_capable else a.to_float()

    def __repr__(self) -> str:
        return f"PreserverSpec(kind={self.kind}, dim={self.dimension})"


def make_wild_map(seed: int, dim: int) -> PreserverSpec:
    """A seeded bijection of the cone that fixes every non-invertible element."""
    return PreserverSpec(KIND_WILD, dim, wild_seed=seed)


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------


def apply_map(spec: PreserverSpec, a: PsdOperator) -> PsdOperator:
    """Image of ``a`` under the map described by ``spec``.

    Images keep a certified rank: congruences with invertible T preserve
    rank, the weight sandwich preserves the rank of S, and wild maps fix or
    invert.  Exact congruence and wild images of a factored operand are
    factored too (see :mod:`psdcone.linalg.psd`).  An exact operand of a map
    that is not ``exact_capable`` raises :class:`BackendError` before any
    part runs.  A float operand is mapped by :func:`_map_stack` as a stack of
    one; a float image that overflows the double range raises
    :class:`BackendError`.
    """
    if a.dim != spec.dimension:
        raise DimensionMismatchError("operator size differs from map dimension")
    if a.backend == FLOAT:
        image = _map_stack(spec, a.matrix.array[None], np.array([a.rank]))[0]
        return PsdOperator.certified(Matrix._trusted(image), a.rank)
    if not spec.exact_capable:
        raise BackendError(f"{spec.kind} images need the float backend; convert the operand")
    if spec.kind == KIND_COMPOSITE:
        for part in spec.parts:
            a = apply_map(part, a)
        return a
    if spec.kind == KIND_CONGRUENCE:
        return _apply_congruence(spec.operator, a)
    return _apply_wild(a, *spec.wild_data)


def _apply_congruence(op: SemilinearOperator, a: PsdOperator) -> PsdOperator:
    """T A T* (T conj(A) T* for the conjugate flavor) of an exact operand."""
    if a.factor is not None:
        return PsdOperator.from_factor(op.apply_matrix(a.factor))
    return PsdOperator.certified(op.apply_matrix(a.matrix) @ op.t.H, a.rank)


def _apply_wild(a: PsdOperator, v: Matrix, exponent: int) -> PsdOperator:
    """V A^{±1} V* on an exact invertible operand, identity elsewhere."""
    if not a.is_invertible:
        return a
    if a.factor is not None:
        g = a.factor if exponent == 1 else a.factor.H.inverse()
        return PsdOperator.from_factor(v @ g)
    core = a.matrix if exponent == 1 else a.matrix.inverse()
    return PsdOperator.certified(v @ core @ v.H, a.dim)


def _map_stack(spec: PreserverSpec, x: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Images of the float operands stacked in ``x`` (m, n, n), of certified ``ranks``.

    The one float kernel: a pass over the stack per map part does to each
    operand, in the same order, what the part does to it alone.  Congruence
    is T X T* (T conj(X) T* for the conjugate flavor); form_iv takes one
    stacked ``eigh`` of S = T X T*, the root of S at each rank, the stack's
    weights from one ``z_for`` call, and root·Z·root; wild maps only the
    invertible operands; a composite folds its parts.  Maps keep ranks, so
    ``ranks`` rank the images.  Each image is hermitized and checked once:
    products of finite operands can overflow (:class:`BackendError`).
    """
    # every image is checked by ``_finite``, so overflow needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == KIND_COMPOSITE:
            for part in spec.parts:
                x = _map_stack(part, x, ranks)
            return x
        if spec.kind == KIND_WILD:
            moved = ranks == spec.dimension
            if not moved.any():
                return x
            v, exponent = spec.wild_data
            v = v.to_float().array
            core = x[moved] if exponent == 1 else hermitian_part(np.linalg.inv(x[moved]))
            out = x.copy()
            out[moved] = _finite(hermitian_part(v @ core @ v.conj().T))
            return out
        op = spec.operator.to_float()
        t = op.t.array
        s = _finite(hermitian_part(t @ (x.conj() if op.is_conjugate else x) @ t.conj().T))
        if spec.kind == KIND_CONGRUENCE:
            return s
        root = hermitian_part(spectral_roots(*finite_eigh(s), ranks))
        return _finite(hermitian_part(root @ spec.weights.z_for(x) @ root))


def _finite(x: np.ndarray) -> np.ndarray:
    """The float images ``x``, checked once: products of finite operands can overflow."""
    if not np.isfinite(x).all():
        raise BackendError("the map's image overflows the double range")
    return x


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PreservationReport(Verdict):
    map_kind: str
    dimension: int
    image_backend: str
    trials: int
    violations: tuple
    note: str = "sampled necessary conditions; both directions of ≪ and ⊥ checked"

    @property
    def passed(self) -> bool:
        return not self.violations


def _sampled_pair(dim: int, seed: int, k: int) -> tuple[PsdOperator, PsdOperator]:
    rand = random.Random(derive_seed(seed, 21, k))
    ra = rand.randint(0, dim)
    rb = rand.randint(0, dim)
    a = random_psd(dim, ra, derive_seed(seed, 22, k))
    b = random_psd(dim, rb, derive_seed(seed, 23, k))
    return a, b


#: trials whose images are mapped and whose ranges are read as one block
_MAP_BLOCK = 256


def _mapped(spec: PreserverSpec, samples, operands, tol: float):
    """(sample, operands(sample), ranges of their images) for each sample, in
    order and lazily: ``operands`` runs once per sample, and each block of
    ``_MAP_BLOCK`` samples takes one :func:`_image_ranges` call, so memory
    stays O(block).  Operands are imaged as ``operands`` returns them."""
    samples = iter(samples)
    while block := list(itertools.islice(samples, _MAP_BLOCK)):
        groups = [operands(s) for s in block]
        ranges = iter(_image_ranges(spec, [x for g in groups for x in g], tol))
        for s, g in zip(block, groups):
            yield s, g, tuple(itertools.islice(ranges, len(g)))


def verify_relation_preservation(
    spec: PreserverSpec,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PreservationReport:
    """Sample pairs, compare domination/singularity before and after the map.

    Input pairs are drawn with exact Gaussian-integer entries so the input
    side is decided exactly; the image side by :func:`range_relations` on the
    image ranges that :func:`_mapped` reads (exact, or principal angles at
    ``tol`` for maps that are not exact-capable).  The report is the one that
    checking a trial at a time gives, in O(block·n²) memory for any
    ``trials``.  Fewer than one trial raises ``ValueError``: a report over no
    pair shows nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    violations: list[dict] = []
    names = ("abs_cont_ab", "abs_cont_ba", "singular")
    pairs = _mapped(spec, range(trials), lambda k: _sampled_pair(spec.dimension, seed, k), tol)
    for k, (a, b), (u, v) in pairs:
        image = range_relations(u, v, tol)[1:]
        for name, want, got in zip(names, relation_triple(a, b), image):
            if want != got:
                violations.append({"trial": k, "relation": name, "input": want, "image": got})
    return PreservationReport(
        map_kind=spec.kind,
        dimension=spec.dimension,
        image_backend=EXACT if spec.exact_capable else FLOAT,
        trials=trials,
        violations=tuple(violations),
    )


def _image_ranges(spec: PreserverSpec, operands, tol: float) -> list[Subspace]:
    """Ranges of the images of ``operands``, exact or float as they come.

    Exact-capable maps image them one by one.  Others take one
    :func:`_map_stack` call on the stack of their :func:`float_array` (the
    bits of ``to_float()``) and one stacked ``eigh`` of the images themselves.  Each is
    ranked by its own spectrum, not its operand's rank: the eigenvalues above
    ``tol`` times its largest (not n·eps times it, as in a matrix rank: rounding
    in a chain of map parts can lift a zero one past that).  Its range is read
    by :func:`eigen_range`, never off S = T A T*: ran S is T(ran A).
    """
    if spec.exact_capable:
        return [apply_map(spec, a).range() for a in operands]
    ranks = np.array([a.rank for a in operands])
    images = _map_stack(spec, np.array([float_array(a) for a in operands]), ranks)
    eigval, eigvec = finite_eigh(images)
    image_ranks = np.sum(eigval > tol * eigval[:, -1:], axis=1)
    return [eigen_range(v, r) for v, r in zip(eigvec, image_ranks)]


@dataclass(frozen=True)
class RangeFormReport(Verdict):
    map_kind: str
    dimension: int
    samples: int
    violations: tuple
    note: str = "sampled over every rank 0..dim"

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_range_form(
    spec: PreserverSpec,
    trials: int = 40,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> RangeFormReport:
    """Check ran φ(A) = T(ran A), T the map's ``inducing_operator``, on
    samples covering every rank, reading the image ranges through
    :func:`_mapped`.

    T(ran A) is read off T's matrix and the drawn operand's exact range
    basis G, as the span of T G (T conj(G) for the conjugate flavor) on the
    images' backend, so no image arithmetic of the map is shared with it.

    Each rank gets at least one sample, so ``trials=0`` still checks every
    rank; a negative count raises ``ValueError``.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = spec.dimension
    per_rank = max(1, trials // (n + 1))
    t = spec.operand(spec.inducing_operator)
    samples = [(r, j) for r in range(n + 1) for j in range(per_rank)]

    def operand(sample):
        return (random_psd(n, sample[0], derive_seed(seed, 31, *sample)),)

    violations = []
    for (r, j), (a,), (image,) in _mapped(spec, samples, operand, tol):
        g = spec.operand(a.range().basis)
        # spelled out, not ``t.apply_matrix(g)``: the images go through
        # apply_matrix, and the reference must not share a fault with them
        transported = column_space(t.t @ (g.conj() if t.is_conjugate else g), rank_hint=a.rank)
        if not image.equals(transported, tol):
            violations.append({"rank": r, "sample": j})
    return RangeFormReport(
        map_kind=spec.kind, dimension=n, samples=len(samples), violations=tuple(violations)
    )


@dataclass(frozen=True)
class Dim2Report(Verdict):
    zero_fixed: bool
    invertibility_preserved: bool
    line_map_well_defined: bool
    line_map_injective: bool
    first_failure: str | None
    trials: int
    note: str = (
        "dimension-2 criteria are necessary conditions checked on finite samples; "
        "no coplanarity certificate exists in this dimension"
    )

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def dim2_conditions(
    spec: PreserverSpec,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Dim2Report:
    """Sampled necessary conditions for two-dimensional preserver candidates:

    the image of zero is exactly zero, invertibility is preserved both ways,
    and the induced action on lines (ranges of rank-one elements) is well
    defined and injective on the sampled lines.  Every image range is read
    through :func:`_mapped`; only the zero operator's image is mapped alone.
    Fewer than one trial raises ``ValueError``: three of the four criteria
    would go unchecked.
    """
    if spec.dimension != 2:
        raise DimensionMismatchError("these conditions are specific to dimension 2")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    z_img = apply_map(spec, spec.operand(PsdOperator.zero(2, EXACT)))
    zero_fixed = z_img.matrix.is_zero()

    def sampled(k: int) -> tuple[PsdOperator]:
        rank = random.Random(derive_seed(seed, 41, k)).choice((0, 1, 2))
        return (random_psd(2, rank, derive_seed(seed, 42, k)),)

    images = _mapped(spec, range(trials), sampled, tol)
    invertibility_preserved = all((a.rank == 2) == (image.dim == 2) for _, (a,), (image,) in images)

    rand = random.Random(derive_seed(seed, 43))

    def lines(_k: int) -> tuple[PsdOperator, ...]:
        """f f*, (c f)(c f)*, and g g* when g is off the line of f."""
        f = random_direction(2, rand)
        g = random_direction(2, rand)
        pair = (rank_one(f), rank_one(f.scale(random_scalar(rand))))
        return pair + ((rank_one(g),) if hstack_rank([f, g]) == 2 else ())

    line_map_well_defined = line_map_injective = True
    for _, _, (line, scaled, *other) in _mapped(spec, range(trials), lines, tol):
        if line.dim != 1 or not line.equals(scaled, tol):
            line_map_well_defined = False
            break
        if other and other[0].dim == 1 and line.equals(other[0], tol):
            line_map_injective = False
            break

    verdicts = {
        "zero_fixed": zero_fixed,
        "invertibility_preserved": invertibility_preserved,
        "line_map_well_defined": line_map_well_defined,
        "line_map_injective": line_map_injective,
    }
    first_failure = next((name for name, ok in verdicts.items() if not ok), None)
    return Dim2Report(**verdicts, first_failure=first_failure, trials=trials)
