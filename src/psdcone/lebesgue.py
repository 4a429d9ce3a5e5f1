"""Lebesgue-type decomposition of one PSD operator along another.

``decompose(a, b)`` splits a into an absolutely continuous part (range
dominated by b) and a singular part, via the domain
M = {x : a^{1/2} x ∈ ran b}: the a.c. part is a^{1/2} P_M a^{1/2}.  The
split is float-backend work (square roots are spectral); its invariants and
a sampled maximality oracle live in :func:`verify_decomposition`, which
draws its contractions in stacked blocks, from the same random stream as
one draw at a time, each scaled by its largest |eigenvalue|.

Cost model of the check, per split: one square root and one preimage SVD,
shared with ``decompose`` when the check is asked about the split's own
``a`` and ``tol``, and taken only when the oracle draws at all.  Per block
of draws: one stacked ``eigvalsh`` that normalises them, Frobenius bounds
that settle the range filter (keeping and dropping exactly the draws the
spectral norms would; only a draw they leave open pays for those norms), and
one stacked Cholesky that certifies the kept draws' gaps.  Only a block that
Cholesky cannot certify takes the stacked ``eigvalsh`` of its gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .generators import derive_seed
from .linalg import (
    DEFAULT_TOL,
    Matrix,
    PsdOperator,
    Subspace,
    hermitian_norm,
    hermitian_part,
    psd_sqrt,
    subspace_preimage,
)
from .relations import is_singular
from .report import Verdict

#: eigenvalue slack, relative to ‖a‖, granted to the maximality oracle
_MAXIMALITY_SLACK = 1e-12
#: contractions drawn and checked per stack by the maximality oracle (even,
#: so a draw's parity, which decides its support, is the same in every block)
_ORACLE_BLOCK = 256
#: unit roundoff of a double
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _root_and_domain(a: PsdOperator, b: PsdOperator, tol: float) -> tuple[Matrix, Subspace]:
    """a^{1/2} and the a.c. domain {x : a^{1/2} x ∈ ran b}, from one square root."""
    root = psd_sqrt(a).matrix
    return root, subspace_preimage(root, b.range(), tol)


@dataclass(frozen=True)
class LebesgueDecomposition:
    ac_part: PsdOperator
    singular_part: PsdOperator
    base: PsdOperator
    #: (a, base, tol, a^{1/2}, projector onto the a.c. domain) of the
    #: ``decompose`` call that made this split, for its check to reuse
    _source: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.base.dim


def decompose(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> LebesgueDecomposition:
    """Split a = ac + singular relative to b.

    Both parts are built from the same square root (ac = S P S,
    singular = S (I-P) S with P the projector onto the a.c. domain M), so
    they are PSD by construction and sum to a up to rounding.  As ker S ⊆ M,
    rank ac = dim M − (n − rank a) and rank singular = n − dim M; eigenvalues
    would mistake a zero part's rounding noise for rank or for negativity.
    An exact ``a`` is refused by its ``eigh``, and an exact or wrongly sized
    ``b`` by :func:`subspace_preimage`.
    """
    n = a.dim
    root, domain = _root_and_domain(a, b, tol)
    p = domain.projector().array
    s = root.array
    ac = Matrix._trusted(hermitian_part(s @ p @ s))
    singular = Matrix._trusted(hermitian_part(s @ (np.eye(n) - p) @ s))
    return LebesgueDecomposition(
        ac_part=PsdOperator.certified(ac, domain.dim - (n - a.rank)),
        singular_part=PsdOperator.certified(singular, n - domain.dim),
        base=b,
        _source=(a, b, tol, s, p),
    )


def _root_and_projector(dec: LebesgueDecomposition, a: PsdOperator, tol: float):
    """a^{1/2} and the projector onto the a.c. domain of ``dec.base``, as arrays.

    Read off the split when ``decompose`` made it from this very ``a`` and
    base at this ``tol``; computed afresh otherwise, as for a hand-built split.
    """
    if dec._source is not None:
        made_a, made_b, made_tol, s, p = dec._source
        if made_a is a and made_b is dec.base and made_tol == tol:
            return s, p
    root, domain = _root_and_domain(a, dec.base, tol)
    return root.array, domain.projector().array


@dataclass(frozen=True)
class DecompositionCheck(Verdict):
    """Outcome of the decomposition invariants plus the maximality oracle."""

    sum_ok: bool
    ac_ok: bool
    singular_ok: bool
    maximality_sampled: int
    maximality_kept: int
    maximality_violations: int
    worst_excess: float
    note: str = "finite-sample maximality check; necessary conditions only"

    @property
    def passed(self) -> bool:
        return (
            self.sum_ok
            and self.ac_ok
            and self.singular_ok
            and self.maximality_violations == 0
        )


def _dominated_residual(c: np.ndarray, p_base: np.ndarray) -> np.ndarray:
    """‖(I-P) C (I-P)‖₂ / max(1, ‖C‖₂) for each C of a (..., n, n) stack: 0 iff ran C ⊆ ran P."""
    q = np.eye(p_base.shape[-1]) - p_base
    r = q @ c @ q
    return hermitian_norm(r) / np.maximum(1.0, hermitian_norm(c))


def _dominated(c: np.ndarray, p_base: np.ndarray, tol: float) -> np.ndarray:
    """Mask of ``_dominated_residual(c, p_base) <= tol`` over a (m, n, n) stack.

    With R = (I-P) C (I-P) and ‖X‖₂ ≤ ‖X‖_F ≤ √n‖X‖₂: ‖R‖_F ≤ tol/2 puts the
    residual at most tol/2 (its scale is ≥ 1), and
    ‖R‖_F > 2·tol·√n·max(1, ‖C‖_F) puts it above 2·tol.  Rounding moves
    either norm by far less than that factor of 2, so both decisions are the
    spectral ones; only the draws in between take the spectral norms.
    """
    n = p_base.shape[-1]
    q = np.eye(n) - p_base
    # near the double range these norms overflow to inf; as ‖R‖_F ≤ ‖C‖_F
    # that leaves the draw to the spectral norms, so the warning is moot
    with np.errstate(over="ignore"):
        fro_r = np.linalg.norm(q @ c @ q, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(c, axis=(-2, -1)))
    keep = fro_r <= tol / 2
    undecided = ~keep & (fro_r <= 2.0 * tol * np.sqrt(n) * scale)
    if undecided.any():
        keep[undecided] = _dominated_residual(c[undecided], p_base) <= tol
    return keep


def _gaps_certified(k: np.ndarray, delta: float) -> bool:
    """Whether every matrix K of the Hermitian stack ``k`` has an ``eigvalsh``
    minimum above −2δ, shown by one stacked Cholesky of K + δI.

    If Cholesky of K + δI runs to completion, K + δI + E is positive definite
    for some E with ‖E‖₂ ≤ nγ_{n+1}‖K + δI‖₂ (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm 10.5), so λ_min(K) > −δ − ‖E‖₂; and
    ``eigvalsh`` is backward stable, its minimum being λ_min(K + F) with
    ‖F‖₂ a small multiple of n²·u·‖K‖₂.  With nγ_{n+1} ≤ 2n²u and
    ‖X‖₂ ≤ ‖X‖_F, the guard 64·n²·u·(‖K‖_F + δ) ≤ δ bounds ‖E‖₂ + ‖F‖₂ by δ
    with room to spare, so a certified stack holds no minimum at or below
    −2δ.  A non-finite K has an infinite or NaN norm and fails the guard;
    a stack that fails the guard or Cholesky is left to ``eigvalsh``.
    """
    n = k.shape[-1]
    # near the double range the norms overflow to inf, which fails the guard
    with np.errstate(over="ignore"):
        fro = np.linalg.norm(k, axis=(-2, -1))
    if not np.all(64 * n * n * _UNIT_ROUNDOFF * (fro + delta) <= delta):
        return False
    try:
        np.linalg.cholesky(k + delta * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _maximality_oracle(
    dec: LebesgueDecomposition,
    a: PsdOperator,
    trials: int,
    seed: int,
    tol: float,
    scale_a: float,
    p_base: np.ndarray,
) -> tuple[int, int, float]:
    """(kept, violations, worst excess) over ``trials`` sampled contractions."""
    n = a.dim
    s, p_dom = _root_and_projector(dec, a, tol)
    rng = np.random.default_rng(derive_seed(seed, 71, n))
    cushion = dec.ac_part.matrix.array + tol * np.eye(n)
    slack = _MAXIMALITY_SLACK * scale_a
    delta = slack / 2
    kept = violations = 0
    worst = 0.0
    for start in range(0, trials, _ORACLE_BLOCK):
        z = rng.standard_normal((min(_ORACLE_BLOCK, trials - start), 2, n, n))
        w = z[:, 0] + 1j * z[:, 1]
        w = hermitian_part(w)
        top = hermitian_norm(w)
        top[top == 0.0] = 1.0
        r = (np.eye(n) + w / top[:, None, None]) / 2.0  # eigenvalues in [0, 1]
        r[1::2] = p_dom @ r[1::2] @ p_dom  # still 0 ≤ R ≤ I, on the domain
        c = s @ r @ s
        c = hermitian_part(c)
        c = c[_dominated(c, p_base, tol)]
        kept += len(c)
        room = cushion - c
        if _gaps_certified(room, delta):
            continue  # every gap is above −slack: no violation in this block
        gaps = np.linalg.eigvalsh(room)[:, 0]
        excess = -gaps[gaps < -slack]
        violations += len(excess)
        worst = max(worst, float(excess.max(initial=0.0)))
    return kept, violations, worst


def verify_decomposition(
    dec: LebesgueDecomposition,
    a: PsdOperator,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> DecompositionCheck:
    """Check the defining invariants and sample the maximality property.

    Maximality oracle: draw contractions R = (I + W/‖W‖₂)/2, 0 ≤ R ≤ I, for
    Hermitian W, form C = a^{1/2} R a^{1/2} (every PSD C ≤ a arises this
    way), keep those whose range is dominated by the base within tolerance,
    and demand C ≤ ac_part + tol·I, counting a violation when the least
    eigenvalue of the gap falls below −``_MAXIMALITY_SLACK``·max(1, ‖a‖).
    The odd-indexed draws are supported on the a.c. domain so the filter
    stays non-vacuous when the base is rank deficient.  Draws are processed
    as stacks of ``_ORACLE_BLOCK`` matrices: the random stream, and so every
    count, is the one drawn one contraction at a time, while memory stays
    O(block·n²) for any number of trials.

    Every norm here is of a Hermitian matrix, so it is max |eigenvalue|, from
    one ``eigvalsh`` (:func:`hermitian_norm`; ‖a‖ from ``a.eigh()``).  The
    range filter, of the draws and of ``ac_ok`` alike, asks
    ‖(I-P) C (I-P)‖₂ / max(1, ‖C‖₂) ≤ tol, P projecting onto ran base.
    Frobenius norms settle it (:func:`_dominated`): as
    ‖X‖₂ ≤ ‖X‖_F ≤ √n‖X‖₂, they bound that residual from both sides with a
    factor of 2 to spare, so every draw they keep or drop is one the
    spectral norms keep or drop; only draws between the bounds, in practice
    almost none, take the spectral norms.  Likewise one stacked Cholesky
    certifies that no kept draw of a block can be a violation
    (:func:`_gaps_certified`, at half the slack); only a block it leaves
    open takes the ``eigvalsh`` of its gaps, so every count and
    ``worst_excess`` is the one those eigenvalues give.

    Cost: a^{1/2} and the a.c. domain are reused from ``decompose`` when
    ``dec`` was made by it from this same ``a`` object and base at the same
    ``tol``, computed here once otherwise, and not at all for ``trials=0``.
    Each block then takes one stacked ``eigvalsh`` (the normalisation) and
    one stacked Cholesky.

    ``trials=0`` checks only the invariants; a negative count raises
    ``ValueError``, and ``a`` must act on the decomposition's space (an exact
    ``a`` is refused by its ``eigh``).
    """
    if a.dim != dec.dim:
        raise DimensionMismatchError("operators act on different spaces")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    ac = dec.ac_part.matrix.array
    sing = dec.singular_part.matrix.array
    total = ac + sing - a.matrix.array
    scale_a = max(1.0, float(np.abs(a.eigh()[0]).max()))
    sum_ok = float(hermitian_norm(total)) <= tol * scale_a

    p_base = dec.base.range().projector().array
    ac_ok = bool(_dominated(ac[None], p_base, tol)[0])
    singular_ok = is_singular(dec.singular_part, dec.base, tol)

    kept, violations, worst = (
        _maximality_oracle(dec, a, trials, seed, tol, scale_a, p_base) if trials else (0, 0, 0.0)
    )
    return DecompositionCheck(
        sum_ok=sum_ok,
        ac_ok=ac_ok,
        singular_ok=singular_ok,
        maximality_sampled=trials,
        maximality_kept=kept,
        maximality_violations=violations,
        worst_excess=worst,
    )
