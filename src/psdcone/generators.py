"""Seeded generators for PSD operators, operator pairs and invertible maps.

Exact-backend draws use small Gaussian integers (real/imaginary parts in
-3..3) so downstream elimination stays fast and every certificate is exact.
All generators are deterministic in their seed and re-certify what they
promise (rank, relation class, invertibility), retrying up to
``RETRY_BUDGET`` times before giving up.  Certified pairs come from one
draw–certify loop over :data:`RELATION_KINDS`: a kind's ``draw(dim, rand,
factor)`` gives (G_a, r_a, G_b, r_b, accept), with ``rand`` seeded by (seed,
salt, dim) and factor k of attempt t by (seed, salt + 1 + k, dim) and t; the
loop rank-checks both factors and passes the pair's ``relation_triple`` to
``accept``."""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

import numpy as np

from .errors import GenerationError
from .linalg import (
    EXACT,
    FLAVOR_LINEAR,
    GaussianRational,
    Matrix,
    PsdOperator,
    SemilinearOperator,
    hermitian_part,
)
from .relations import relation_triple

RETRY_BUDGET = 64

_ENTRY_LO, _ENTRY_HI = -3, 3
_ENTRY_WIDTH = _ENTRY_HI - _ENTRY_LO + 1
_ENTRY_BITS = _ENTRY_WIDTH.bit_length()
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1


def derive_seed(seed: int, *salts: int) -> int:
    """Deterministically derive an independent sub-seed."""
    h = seed & _MASK
    for s in salts:
        h = (h ^ ((s + 1) * _MIX)) & _MASK
        h = (h * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & _MASK
    return h


def _gauss_ints(count: int, rand: random.Random) -> list[tuple[int, int]]:
    """``count`` Gaussian integers as (re, im) pairs, drawn re first.

    Each part is ``rand.randint(_ENTRY_LO, _ENTRY_HI)`` drawn the way
    ``randint`` draws it, without its call overhead: ``_ENTRY_BITS`` random
    bits, redrawn while they reach the width of the range.
    """
    bits = rand.getrandbits
    parts = []
    for _ in range(2 * count):
        r = bits(_ENTRY_BITS)
        while r >= _ENTRY_WIDTH:
            r = bits(_ENTRY_BITS)
        parts.append(r + _ENTRY_LO)
    return list(zip(parts[::2], parts[1::2]))


def _int_matrix(entries: list[tuple[int, int]], rows: int, cols: int) -> Matrix:
    """The exact rows × cols matrix of Gaussian integers given row by row."""
    return Matrix.from_gaussian_ints(np.array(entries, dtype=object).reshape(rows, cols, 2))


def _gauss_int_matrix(rows: int, cols: int, rand: random.Random) -> Matrix:
    return _int_matrix(_gauss_ints(rows * cols, rand), rows, cols)


def _nonzero_gauss_ints(count: int, rand: random.Random) -> list[tuple[int, int]]:
    """``count`` Gaussian integers, redrawn together until one is nonzero."""
    while True:
        entries = _gauss_ints(count, rand)
        if any(map(any, entries)):
            return entries


def random_direction(n: int, rand: random.Random) -> Matrix:
    """Nonzero Gaussian-integer column vector of length n, redrawn until nonzero."""
    return _int_matrix(_nonzero_gauss_ints(n, rand), n, 1)


def random_scalar(rand: random.Random) -> GaussianRational:
    """Nonzero Gaussian-integer scalar, drawn like a direction of length 1."""
    return GaussianRational(*_nonzero_gauss_ints(1, rand)[0])


def random_psd(dim: int, rank: int, seed: int, backend: str = EXACT) -> PsdOperator:
    """Seeded PSD operator of certified rank, built as G G*; exact ones keep G."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    if rank == 0:
        return PsdOperator.zero(dim, backend)
    if backend == EXACT:
        rand = random.Random(derive_seed(seed, 101, dim, rank))
        for _ in range(RETRY_BUDGET):
            op = _operator_from_factor(_gauss_int_matrix(dim, rank, rand), rank)
            if op is not None:
                return op
        raise GenerationError("could not draw a full-column-rank exact factor")
    rng = np.random.default_rng(derive_seed(seed, 102, dim, rank))
    for _ in range(RETRY_BUDGET):
        g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] / s[0] > 1e-6:
            return PsdOperator.certified(Matrix._trusted(hermitian_part(g @ g.conj().T)), rank)
    raise GenerationError("could not draw a well-conditioned float factor")


def rank_one(f: Matrix) -> PsdOperator:
    """f f* for a nonzero column vector f; an exact f is kept as the factor."""
    if f.cols != 1:
        raise ValueError("expected a column vector")
    if f.is_zero():
        raise ValueError("zero vector spans no line")
    if f.backend == EXACT:
        return PsdOperator.from_factor(f)
    return PsdOperator.certified(f @ f.H, 1)


def random_semilinear(
    dim: int, seed: int, flavor: str = FLAVOR_LINEAR
) -> SemilinearOperator:
    """Seeded invertible Gaussian-integer operator of the requested flavor."""
    rand = random.Random(derive_seed(seed, 103, dim))
    for _ in range(RETRY_BUDGET):
        t = _gauss_int_matrix(dim, dim, rand)
        if t.rank() == dim:
            return SemilinearOperator(t, flavor)
    raise GenerationError("could not draw an invertible matrix")


def _factor(rows: int, cols: int, sub: int, attempt: int) -> Matrix:
    return _gauss_int_matrix(rows, cols, random.Random(derive_seed(sub, attempt)))


def _operator_from_factor(g: Matrix, rank: int) -> PsdOperator | None:
    """G G* when ``g`` has full column rank ``rank`` (the zero operator at 0), else None."""
    if g.rank() != rank:
        return None
    return PsdOperator.from_factor(g) if rank else PsdOperator.zero(g.rows)


def _draw_ac(dim, rand, factor):
    """b = H H*, a = (H M)(H M)*; half the draws take ra = rb and need b ≪ a too."""
    rb = rand.randint(1, dim)
    equal_range = rand.random() < 0.5
    ra = rb if equal_range else rand.randint(0, rb - 1)
    h = factor(0, dim, rb)
    return h @ factor(1, rb, ra), ra, h, rb, lambda t: t[0] and (not equal_range or t[1])


def _draw_singular(dim, rand, factor):
    ra = rand.randint(0, dim - 1)
    rb = rand.randint(0 if ra else 1, dim - ra)
    return factor(0, dim, ra), ra, factor(1, dim, rb), rb, lambda t: t[2]


def _draw_incomparable(dim, rand, factor):
    """Factors [S | Xa] and [S | Xb]: the ranges share S and each has a block of its
    own, so they overlap without nesting, which takes at least three dimensions."""
    shared = rand.randint(1, dim - 2)
    pa = rand.randint(1, dim - shared - 1)
    pb = rand.randint(1, dim - shared - pa)
    s = factor(0, dim, shared)
    ga = Matrix.hstack([s, factor(1, dim, pa)])
    gb = Matrix.hstack([s, factor(2, dim, pb)])
    return ga, shared + pa, gb, shared + pb, lambda t: not any(t)


class RelationKind(NamedTuple):
    salt: int
    min_dim: int
    refusal: str
    draw: Callable


RELATION_KINDS = {
    "ac": RelationKind(201, 1, "absolutely continuous pairs need dim >= 1", _draw_ac),
    "singular": RelationKind(301, 2, "singular pairs need dim >= 2", _draw_singular),
    "incomparable": RelationKind(401, 3, "incomparable pairs need dim >= 3", _draw_incomparable),
}


def random_pair_with_relation(
    dim: int, relation: str, seed: int
) -> tuple[PsdOperator, PsdOperator]:
    """Seeded pair (a, b) certified to satisfy the requested relation.

    relation ∈ :data:`RELATION_KINDS`: "ac" (a ≪ b; strict-rank or
    equal-range, half and half), "singular" (a ⊥ b) or "incomparable"
    (neither), each from its ``min_dim`` up (below it: GenerationError).
    """
    kind = RELATION_KINDS.get(relation)
    if kind is None:
        raise ValueError(f"unknown relation {relation!r}")
    if dim < kind.min_dim:
        raise GenerationError(kind.refusal)
    rand = random.Random(derive_seed(seed, kind.salt, dim))
    subs = [derive_seed(seed, kind.salt + 1 + k, dim) for k in range(3)]
    for attempt in range(RETRY_BUDGET):
        ga, ra, gb, rb, accept = kind.draw(
            dim, rand, lambda k, rows, cols: _factor(rows, cols, subs[k], attempt)
        )
        a, b = _operator_from_factor(ga, ra), _operator_from_factor(gb, rb)
        if a is not None and b is not None and accept(relation_triple(a, b)):
            return a, b
    raise GenerationError(f"exhausted retries building a certified {relation} pair")
