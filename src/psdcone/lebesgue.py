"""Lebesgue-type decomposition of one PSD operator along another.

``decompose(a, b)`` splits a into an absolutely continuous part (range
dominated by b) and a singular part, via the domain
M = {x : a^{1/2} x ∈ ran b}: the a.c. part is a^{1/2} P_M a^{1/2}.  The
split is float-backend work (square roots are spectral).

:func:`verify_decomposition` checks a split by a second, independent
computation.  The maximal a.c. part is the shorted operator S of a to ran b
(Anderson & Trapp, *SIAM J. Appl. Math.* 28, 1975), and every PSD C ≤ a with
ran C ⊆ ran b satisfies C ≤ S (Ando, *Acta Sci. Math.* 38, 1976).  With W an
orthonormal basis of ker b, S = a − a W (W* a W)⁺ W* a, read off a and b's
eigenvectors with no square root and no preimage SVD; one Loewner test
against S decides maximality for every such C at once.  That the a.c. part is
≪ b and the singular part ⊥ b is decided as every ≪ and ⊥ of the package
is, by one :func:`~psdcone.linalg.common_dim` each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    DEFAULT_TOL,
    Matrix,
    PsdOperator,
    default_rank_tol,
    hermitian_norm,
    hermitian_part,
    psd_sqrt,
    subspace_preimage,
)
from .linalg.matrix import numerical_rank
from .relations import is_abs_continuous, is_singular
from .report import Verdict

#: eigenvalue slack, relative to ‖a‖, granted to the maximality check
_MAXIMALITY_SLACK = 1e-12


@dataclass(frozen=True)
class LebesgueDecomposition:
    ac_part: PsdOperator
    singular_part: PsdOperator
    base: PsdOperator


def decompose(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> LebesgueDecomposition:
    """Split a = ac + singular relative to b.

    Both parts are built from one square root S = a^{1/2}: ac = S P S and
    singular = S (I-P) S, with P the projector onto the a.c. domain
    M = {x : S x ∈ ran b}, so they are PSD by construction and sum to a up
    to rounding.  As ker S ⊆ M, rank ac = dim M − (n − rank a) and rank
    singular = n − dim M; eigenvalues would mistake a zero part's rounding
    noise for rank or for negativity.
    An exact ``a`` is refused by its ``eigh``, and an exact or wrongly sized
    ``b`` by :func:`subspace_preimage`.
    """
    n = a.dim
    root = psd_sqrt(a).matrix
    domain = subspace_preimage(root, b.range(), tol)
    p, s = domain.projector().array, root.array
    ac = Matrix._trusted(hermitian_part(s @ p @ s))
    singular = Matrix._trusted(hermitian_part(s @ (np.eye(n) - p) @ s))
    return LebesgueDecomposition(
        ac_part=PsdOperator.certified(ac, domain.dim - (n - a.rank)),
        singular_part=PsdOperator.certified(singular, n - domain.dim),
        base=b,
    )


@dataclass(frozen=True)
class DecompositionCheck(Verdict):
    """Outcome of the decomposition invariants plus the decided maximality check."""

    sum_ok: bool
    ac_ok: bool
    singular_ok: bool
    maximality_violations: int
    worst_excess: float
    note: str = "maximality decided against the shorted operator of a to ran base"

    @property
    def passed(self) -> bool:
        return (
            self.sum_ok
            and self.ac_ok
            and self.singular_ok
            and self.maximality_violations == 0
        )


def _shorted(a: PsdOperator, b: PsdOperator, norm_a: float) -> np.ndarray:
    """The shorted operator a − a W K⁺ W* a of a to ran b, K = W* a W.

    W holds b's eigenvectors below its certified rank, an orthonormal basis
    of ker b, and K⁺ = V diag(1/λ) V* over the eigenpairs of K that
    :func:`numerical_rank` counts.  K is a compression of a, so its rank is
    cut as a's would be, at ``default_rank_tol`` of ``norm_a`` = ‖a‖: a cut
    relative to ‖K‖ would count the rounding noise of a K that is zero
    (a ≪ b) as rank.
    """
    n = a.dim
    w = b.eigh()[1][:, : n - b.rank]
    aw = a.matrix.array @ w
    lam, v = np.linalg.eigh(w.conj().T @ aw)
    cut = default_rank_tol(n, n, norm_a)
    keep = len(lam) - numerical_rank(lam[::-1], n, n, cut)
    f = aw @ v[:, keep:] / np.sqrt(lam[keep:])
    return a.matrix.array - f @ f.conj().T


def verify_decomposition(
    dec: LebesgueDecomposition,
    a: PsdOperator,
    tol: float = DEFAULT_TOL,
    *,
    trials: int | None = None,
    seed: int | None = None,
) -> DecompositionCheck:
    """Check the defining invariants and decide maximality.

    Invariants: the parts sum to a (‖ac + singular − a‖₂ ≤ tol·max(1, ‖a‖)),
    the a.c. part is ≪ the base and the singular part is ⊥ the base, each
    decided as every ≪ and ⊥ is, by :func:`~psdcone.relations.relation_triple`
    at the angle ``tol``.  Both range tests trust each part's certified rank:
    a float part's range is its top ``rank`` eigenvectors, so a tail of
    eigenvalues below that rank is not tested against the base.
    Maximality: every PSD C ≤ a with ran C ⊆ ran base lies below the shorted
    operator S (:func:`_shorted`), so the split is maximal when
    gap = λ_min(ac + tol·I − S) ≥ −``_MAXIMALITY_SLACK``·max(1, ‖a‖).
    ``maximality_violations`` is 1 when it is not, and ``worst_excess`` is
    then −gap.  Every norm is of a Hermitian matrix, so it is max |eigenvalue|
    (:func:`hermitian_norm`; ‖a‖ from ``a.eigh()``).

    Cost: the cached ``eigh`` of a, of the base and of each nonzero part,
    one ``eigh`` of W* a W, one ``eigvalsh`` of the gap and at most two
    principal-angle SVDs, none over an invertible base (there
    :func:`~psdcone.linalg.common_dim` counts); no square root and no
    preimage SVD.

    ``trials`` and ``seed`` are accepted and ignored: they sized and seeded
    the sampled oracle this check replaced, and ``perfbench/workloads.py``
    still passes them.  The benchmark-side change that drops them there
    (ROADMAP item 14) deletes them here.  ``a`` must be a float operator on
    the split's space: ``a.eigh()`` refuses any other with ``BackendError``,
    and a size check before the sum with ``DimensionMismatchError``.
    """
    norm_a = float(np.abs(a.eigh()[0]).max())
    scale_a = max(1.0, norm_a)
    if not a.dim == dec.ac_part.dim == dec.singular_part.dim:
        raise DimensionMismatchError("the split's parts and a differ in size")
    ac = dec.ac_part.matrix.array
    total = ac + dec.singular_part.matrix.array - a.matrix.array
    sum_ok = float(hermitian_norm(total)) <= tol * scale_a
    ac_ok = is_abs_continuous(dec.ac_part, dec.base, tol)
    singular_ok = is_singular(dec.singular_part, dec.base, tol)

    gap = float(np.linalg.eigvalsh(ac + tol * np.eye(a.dim) - _shorted(a, dec.base, norm_a))[0])
    violated = gap < -_MAXIMALITY_SLACK * scale_a
    return DecompositionCheck(
        sum_ok=sum_ok,
        ac_ok=ac_ok,
        singular_ok=singular_ok,
        maximality_violations=int(violated),
        worst_excess=-gap if violated else 0.0,
    )
