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
``composite``    sequential composition of the above.

The verifiers are sampling-based: they establish necessary conditions on
finite samples and say so in their reports.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

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
    psd_sqrt,
)
from .relations import relation_triple
from .report import Verdict

KIND_CONGRUENCE = "congruence"
KIND_FORM_IV = "form_iv"
KIND_WILD = "wild"
KIND_COMPOSITE = "composite"
KINDS = (KIND_CONGRUENCE, KIND_FORM_IV, KIND_WILD, KIND_COMPOSITE)


def _canonical_bytes(a: PsdOperator) -> bytes:
    """Stable serialization of a float operator for keying weight families."""
    m = a.matrix
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
    payload = (np.ascontiguousarray(m.array) + 0.0).tobytes()
    return m.backend.encode() + b"|" + str(m.rows).encode() + b"|" + payload


class WeightFamily:
    """Deterministic family A ↦ Z_A of invertible positive float weights.

    The family hashes (seed, A) to draw Z_A = G G* + I.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("weight seed must be non-negative")
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, name, value):
        raise AttributeError("WeightFamily is immutable")

    @classmethod
    def seeded(cls, seed: int) -> "WeightFamily":
        return cls(seed)

    def z_for(self, a: PsdOperator) -> Matrix:
        digest = hashlib.sha256(_canonical_bytes(a)).digest()
        key = int.from_bytes(digest[:8], "big")
        rng = np.random.default_rng((self.seed, key))
        n = a.dim
        re, im = rng.standard_normal((2, n, n))
        g = (re + 1j * im) / np.sqrt(2)
        z = g @ g.conj().T + np.eye(n)
        return Matrix._trusted((z + z.conj().T) / 2.0)


class PreserverSpec:
    """Declarative description of a cone map; apply it with :func:`apply_map`."""

    __slots__ = ("kind", "dimension", "operator", "weights", "wild_seed", "parts")

    def __init__(
        self,
        kind: str,
        dimension: int,
        operator: SemilinearOperator | None = None,
        weights: WeightFamily | None = None,
        wild_seed: int | None = None,
        parts: tuple["PreserverSpec", ...] = (),
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if kind in (KIND_CONGRUENCE, KIND_FORM_IV):
            if operator is None:
                raise ValueError(f"{kind} needs an operator")
            if operator.dim != dimension:
                raise DimensionMismatchError("operator size differs from map dimension")
        if kind == KIND_FORM_IV and weights is None:
            raise ValueError("form_iv needs a weight family")
        if kind == KIND_WILD and wild_seed is None:
            raise ValueError("wild needs a seed")
        if kind == KIND_COMPOSITE:
            if not parts:
                raise ValueError("composite needs at least one part")
            if any(p.dimension != dimension for p in parts):
                raise DimensionMismatchError("composite parts disagree on dimension")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "wild_seed", wild_seed)
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("PreserverSpec is immutable")

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

    # --------------------------------------------------------------------

    @property
    def exact_capable(self) -> bool:
        """Whether images can be computed without spectral calculus."""
        if self.kind == KIND_CONGRUENCE:
            return self.operator.backend == EXACT
        if self.kind == KIND_WILD:
            return True
        if self.kind == KIND_COMPOSITE:
            return all(p.exact_capable for p in self.parts)
        return False

    def operand(self, a):
        """``a`` on the backend the map's images are computed on."""
        return a if self.exact_capable else a.to_float()

    def wild_data(self) -> tuple[Matrix, int]:
        """Derived (V, exponent) of a wild map."""
        if self.kind != KIND_WILD:
            raise ValueError("not a wild map")
        rand = random.Random(derive_seed(self.wild_seed, 901, self.dimension))
        exponent = rand.choice((1, -1))
        v = random_semilinear(self.dimension, derive_seed(self.wild_seed, 902, self.dimension)).t
        return v, exponent

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
    factored too (see :mod:`psdcone.linalg.psd`).  form_iv requires the
    float backend (spectral square root).  A float image that overflows the
    double range raises :class:`BackendError`.
    """
    if a.dim != spec.dimension:
        raise DimensionMismatchError("operator size differs from map dimension")
    if spec.kind == KIND_COMPOSITE:
        out = a
        for part in spec.parts:
            out = apply_map(part, out)
        return out
    if spec.kind == KIND_FORM_IV and a.backend != FLOAT:
        raise BackendError(
            "form_iv images need a spectral square root; convert the operand "
            "to the float backend first"
        )
    if a.backend == EXACT:
        return _apply_simple(spec, a)
    # every float image is checked by ``_finite``, so overflow needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _apply_simple(spec, a)


def _apply_simple(spec: PreserverSpec, a: PsdOperator) -> PsdOperator:
    """Image of ``a`` under a congruence, form_iv or wild map."""
    if spec.kind == KIND_CONGRUENCE:
        return _apply_congruence(spec.operator, a)
    if spec.kind == KIND_FORM_IV:
        return _apply_form_iv(spec.operator, spec.weights, a)
    v, exponent = spec.wild_data()
    if a.backend == FLOAT:
        v = v.to_float()
    return _apply_wild(a, v, exponent)


def _apply_congruence(op: SemilinearOperator, a: PsdOperator) -> PsdOperator:
    if a.backend == FLOAT:
        op = op.to_float()
    elif op.backend == FLOAT:
        raise BackendError("float operator cannot act on an exact operand; convert it")
    if a.factor is not None:
        return PsdOperator.from_factor(op.apply_matrix(a.factor))
    m = op.apply_matrix(a.matrix) @ op.t.H
    if m.backend == FLOAT:
        m = _finite(m.hermitize())
    return PsdOperator.certified(m, a.rank)


def _apply_form_iv(op: SemilinearOperator, weights: WeightFamily, a: PsdOperator) -> PsdOperator:
    root = psd_sqrt(_apply_congruence(op, a)).matrix
    z = weights.z_for(a)
    out = _finite((root @ z @ root).hermitize())
    return PsdOperator.certified(out, a.rank)


def _apply_wild(a: PsdOperator, v: Matrix, exponent: int) -> PsdOperator:
    """V A^{±1} V* on invertibles, identity elsewhere (both backends)."""
    if not a.is_invertible:
        return a
    if a.factor is not None:
        g = a.factor if exponent == 1 else a.factor.H.inverse()
        return PsdOperator.from_factor(v @ g)
    if exponent == 1:
        core = a.matrix
    elif a.backend == EXACT:
        core = a.matrix.inverse()
    else:
        core = Matrix._trusted(np.linalg.inv(a.matrix.array)).hermitize()
    m = v @ core @ v.H
    if m.backend == FLOAT:
        m = _finite(m.hermitize())
    return PsdOperator.certified(m, a.dim)


def _finite(m: Matrix) -> Matrix:
    """The float image ``m``, checked once: products of finite operands can overflow."""
    if not np.isfinite(m.array).all():
        raise BackendError("the map's image overflows the double range")
    return m


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


def verify_relation_preservation(
    spec: PreserverSpec,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PreservationReport:
    """Sample pairs, compare domination/singularity before and after the map.

    Input pairs are drawn with exact Gaussian-integer entries so the input
    side is decided exactly; the image side is decided on the backend the
    map supports (exactly for congruence/wild, principal angles at ``tol``
    for spectral maps).
    """
    violations: list[dict] = []
    names = ("abs_cont_ab", "abs_cont_ba", "singular")
    for k in range(trials):
        a, b = _sampled_pair(spec.dimension, seed, k)
        truth = relation_triple(a, b)
        fa, fb = apply_map(spec, spec.operand(a)), apply_map(spec, spec.operand(b))
        image = relation_triple(fa, fb, tol)
        if image != truth:
            for name, want, got in zip(names, truth, image):
                if want != got:
                    violations.append(
                        {"trial": k, "relation": name, "input": want, "image": got}
                    )
    return PreservationReport(
        map_kind=spec.kind,
        dimension=spec.dimension,
        image_backend=EXACT if spec.exact_capable else FLOAT,
        trials=trials,
        violations=tuple(violations),
    )


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
    t: SemilinearOperator,
    trials: int = 40,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> RangeFormReport:
    """Check ran φ(A) = T(ran A) on samples covering every rank."""
    if t.dim != spec.dimension:
        raise DimensionMismatchError("witness operator size differs from map dimension")
    n = spec.dimension
    per_rank = max(1, trials // (n + 1))
    t = spec.operand(t)
    violations: list[dict] = []
    samples = 0
    for r in range(n + 1):
        for j in range(per_rank):
            a = spec.operand(random_psd(n, r, derive_seed(seed, 31, r, j)))
            samples += 1
            expected = t.apply_subspace(a.range())
            if not apply_map(spec, a).range().equals(expected, tol):
                violations.append({"rank": r, "sample": j})
    return RangeFormReport(
        map_kind=spec.kind, dimension=n, samples=samples, violations=tuple(violations)
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

    the zero operator stays fixed, invertibility is preserved both ways, and
    the induced action on lines (ranges of rank-one elements) is well defined
    and injective on the sampled lines.
    """
    if spec.dimension != 2:
        raise DimensionMismatchError("these conditions are specific to dimension 2")

    def image_of(a: PsdOperator) -> PsdOperator:
        return apply_map(spec, spec.operand(a))

    failures: list[str] = []

    z_img = image_of(PsdOperator.zero(2, EXACT))
    zero_fixed = z_img.rank == 0 and z_img.matrix.is_zero(tol)
    if not zero_fixed:
        failures.append("zero_fixed")

    invertibility_preserved = True
    for k in range(trials):
        rank = random.Random(derive_seed(seed, 41, k)).choice((0, 1, 2))
        a = random_psd(2, rank, derive_seed(seed, 42, k))
        img = image_of(a)
        if (a.rank == 2) != (img.rank == 2):
            invertibility_preserved = False
            break
    if not invertibility_preserved:
        failures.append("invertibility_preserved")

    line_map_well_defined = True
    line_map_injective = True
    rand = random.Random(derive_seed(seed, 43))
    for k in range(trials):
        f = random_direction(2, rand)
        g = random_direction(2, rand)
        rank_one_image = image_of(rank_one(f))
        if rank_one_image.rank != 1:
            line_map_well_defined = False
            break
        scaled = image_of(rank_one(f.scale(random_scalar(rand))))
        if not rank_one_image.range().equals(scaled.range(), tol):
            line_map_well_defined = False
            break
        if Matrix.hstack([f, g]).rank() == 2:
            other = image_of(rank_one(g))
            if other.rank == 1 and rank_one_image.range().equals(other.range(), tol):
                line_map_injective = False
                break
    if not line_map_well_defined:
        failures.append("line_map_well_defined")
    if not line_map_injective:
        failures.append("line_map_injective")

    return Dim2Report(
        zero_fixed=zero_fixed,
        invertibility_preserved=invertibility_preserved,
        line_map_well_defined=line_map_well_defined,
        line_map_injective=line_map_injective,
        first_failure=failures[0] if failures else None,
        trials=trials,
    )
