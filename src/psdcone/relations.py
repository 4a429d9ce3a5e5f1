"""Order and range relations between PSD operators.

In finite dimension absolute continuity is range inclusion and singularity
is trivial range intersection, so both come down to one number,
dim(ran a ∩ ran b): a ≪ b iff it equals rank a, a ⊥ b iff it is 0.  That
number is decided by :func:`~psdcone.linalg.subspace.common_dim` (exact
rank, or principal angles at ``tol`` radians on the float backend), and
:func:`range_relations` alone reads ≪, ≫ and ⊥ off it.  The Loewner order
is decided by :func:`~psdcone.linalg.psd.psd_check` once exact ranks leave
it open (:func:`leq`).  ``common_dim`` and ``Matrix`` arithmetic refuse
operators on different spaces or backends, before :func:`leq` reads a rank.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import (
    DEFAULT_TOL, EXACT, PsdOperator, Subspace, common_dim, hermitian_part, psd_check, spectral_roots,
)
from .linalg.psd import float_array


def range_relations(
    u: Subspace, v: Subspace, tol: float = DEFAULT_TOL
) -> tuple[int, bool, bool, bool]:
    """(dim(u ∩ v), u ⊆ v, v ⊆ u, u ∩ v = 0) from one :func:`common_dim`."""
    inter = common_dim(u, v, tol)
    return inter, inter == u.dim, inter == v.dim, inter == 0


def relation_triple(
    a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL
) -> tuple[bool, bool, bool]:
    """(a ≪ b, b ≪ a, a ⊥ b) from a single intersection computation."""
    return range_relations(a.range(), b.range(), tol)[1:]


def leq(a: PsdOperator, b: PsdOperator, tol: float | None = None) -> bool:
    """Loewner order: whether b - a is PSD.

    a ≤ b forces ran a ⊆ ran b (Douglas), so exact operands, whose ranks are
    certificates, skip the LDL* of b - a when rank a > rank b or rank a = 0.
    A float rank is a numerical cut, so float operands always test b - a.
    """
    if a.backend == b.backend == EXACT and a.dim == b.dim:
        if a.rank > b.rank:
            return False
        if a.rank == 0:
            return True
    return psd_check(b.matrix - a.matrix, tol)


def is_singular(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> bool:
    """Mutual singularity: ranges intersect only in 0."""
    return relation_triple(a, b, tol)[2]


def is_abs_continuous(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> bool:
    """Absolute continuity of a with respect to b: ran a ⊆ ran b."""
    return relation_triple(a, b, tol)[0]


def same_range_class(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> bool:
    """Mutual absolute continuity, i.e. equal ranges."""
    ab, ba, _ = relation_triple(a, b, tol)
    return ab and ba


def min_domination_constant(
    a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL
) -> float | None:
    """Least c ≥ 0 with a ≤ c·b, or None when no constant exists.

    Whether one exists (a ≪ b) is decided on the operands' own backend, as
    :func:`analyze_pair` decides it, so the two always agree.  The value is
    then computed on float copies as the top eigenvalue of
    (b^{1/2})^+ a (b^{1/2})^+.
    """
    if not is_abs_continuous(a, b, tol):
        return None
    return _domination_constant(a, b)


def _domination_constant(a: PsdOperator, b: PsdOperator) -> float:
    """The constant of :func:`min_domination_constant` once a ≪ b is decided."""
    if a.rank == 0:
        return 0.0
    bf = b.to_float()
    p = spectral_roots(*bf.eigh(), bf.rank, inverse=True)
    mid = p @ float_array(a) @ p
    top = float(np.linalg.eigvalsh(hermitian_part(mid))[-1])
    return max(top, 0.0)


@dataclass(frozen=True)
class RelationReport:
    """Flat summary of every pairwise relation between two PSD operators."""

    backend: str
    dim: int
    rank_a: int
    rank_b: int
    leq_ab: bool
    leq_ba: bool
    abs_cont_ab: bool
    abs_cont_ba: bool
    singular: bool
    same_range_class: bool
    dim_range_sum: int
    dim_range_intersection: int
    min_domination_constant: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_pair(a: PsdOperator, b: PsdOperator, tol: float = DEFAULT_TOL) -> RelationReport:
    """Evaluate every relation once, consistently, and report it flat.

    The range-arithmetic fields all derive from one intersection-dimension
    computation, so the reported quantities satisfy the lattice identities
    (dim sum = rank_a + rank_b - dim intersection, singular ⟺ trivial
    intersection, same range class ⟺ mutual absolute continuity).
    """
    ra, rb = a.rank, b.rank
    inter, ac_ab, ac_ba, singular = range_relations(a.range(), b.range(), tol)
    return RelationReport(
        backend=a.backend,
        dim=a.dim,
        rank_a=ra,
        rank_b=rb,
        # a ≤ b forces ran a ⊆ ran b (Douglas)
        leq_ab=ac_ab and leq(a, b, tol),
        leq_ba=ac_ba and leq(b, a, tol),
        abs_cont_ab=ac_ab,
        abs_cont_ba=ac_ba,
        singular=singular,
        same_range_class=ac_ab and ac_ba,
        dim_range_sum=ra + rb - inter,
        dim_range_intersection=inter,
        min_domination_constant=_domination_constant(a, b) if ac_ab else None,
    )
