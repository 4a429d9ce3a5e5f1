"""Lebesgue-type decomposition of one PSD operator along another.

``decompose(a, b)`` splits a into an absolutely continuous part (range
dominated by b) and a singular part, via the domain
M = {x : a^{1/2} x ∈ ran b}: the a.c. part is a^{1/2} P_M a^{1/2}.  The
split is float-backend work (square roots are spectral); its invariants and
a sampled maximality oracle live in :func:`verify_decomposition`, which
draws its contractions in stacked blocks, from the same random stream as
one draw at a time, each scaled by its largest |eigenvalue|.  Every norm it
takes is of a Hermitian matrix and comes from one ``eigvalsh``; Frobenius
bounds settle its range filter, keeping and dropping exactly the draws
those norms would, and only a draw they leave open pays for the norms.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _root_and_domain(a: PsdOperator, b: PsdOperator, tol: float) -> tuple[Matrix, Subspace]:
    """a^{1/2} and the a.c. domain {x : a^{1/2} x ∈ ran b}, from one square root."""
    root = psd_sqrt(a).matrix
    return root, subspace_preimage(root, b.range(), tol)


@dataclass(frozen=True)
class LebesgueDecomposition:
    ac_part: PsdOperator
    singular_part: PsdOperator
    base: PsdOperator

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
    )


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
    and demand C ≤ ac_part + tol·I.  The odd-indexed draws are supported on
    the a.c. domain so the filter stays non-vacuous when the base is rank
    deficient.  Draws are processed as stacks of ``_ORACLE_BLOCK`` matrices:
    the random stream, and so every count, is the one drawn one contraction
    at a time, while memory stays O(block·n²) for any number of trials.

    Every norm here is of a Hermitian matrix, so it is max |eigenvalue|, from
    one ``eigvalsh`` (:func:`hermitian_norm`; ‖a‖ from ``a.eigh()``).  The
    range filter asks ‖(I-P) C (I-P)‖₂ / max(1, ‖C‖₂) ≤ tol, P projecting
    onto ran base.  Frobenius norms settle it (:func:`_dominated`): as
    ‖X‖₂ ≤ ‖X‖_F ≤ √n‖X‖₂, they bound that residual from both sides with a
    factor of 2 to spare, so every draw they keep or drop is one the
    spectral norms keep or drop; only draws between the bounds, in practice
    almost none, take the spectral norms.

    ``trials=0`` checks only the invariants; a negative count raises
    ``ValueError``, and ``a`` must act on the decomposition's space (an exact
    ``a`` is refused by its ``eigh``).
    """
    if a.dim != dec.dim:
        raise DimensionMismatchError("operators act on different spaces")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = a.dim
    ac = dec.ac_part.matrix.array
    sing = dec.singular_part.matrix.array
    total = ac + sing - a.matrix.array
    scale_a = max(1.0, float(np.abs(a.eigh()[0]).max()))
    sum_ok = float(hermitian_norm(total)) <= tol * scale_a

    p_base = dec.base.range().projector().array
    ac_ok = bool(_dominated_residual(ac, p_base) <= tol)
    singular_ok = is_singular(dec.singular_part, dec.base, tol)

    root, domain = _root_and_domain(a, dec.base, tol)
    p_dom = domain.projector().array
    s = root.array
    rng = np.random.default_rng(derive_seed(seed, 71, n))
    cushion = ac + tol * np.eye(n)
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
        gaps = np.linalg.eigvalsh(cushion - c)[:, 0]
        excess = -gaps[gaps < -_MAXIMALITY_SLACK * scale_a]
        violations += len(excess)
        worst = max(worst, float(excess.max(initial=0.0)))
    return DecompositionCheck(
        sum_ok=sum_ok,
        ac_ok=ac_ok,
        singular_ok=singular_ok,
        maximality_sampled=trials,
        maximality_kept=kept,
        maximality_violations=violations,
        worst_excess=worst,
    )

