"""Domination / singularity analysis of operator pairs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from psdcone.errors import BackendError, DimensionMismatchError
from psdcone.generators import RELATION_KINDS, derive_seed, random_pair_with_relation, random_psd
from psdcone.linalg import EXACT, FLOAT, Matrix, PsdOperator, common_dim, subspace_intersect
from psdcone.linalg.matrix import psd_certify_exact
from psdcone.relations import (
    analyze_pair,
    is_abs_continuous,
    is_singular,
    leq,
    min_domination_constant,
    relation_triple,
    same_range_class,
)

from naive_oracles import min_constant_bisect

DOM = 2**60


def _op(rows):
    return PsdOperator.from_matrix(Matrix.exact(rows))


def test_frozen_report_diag_pair():
    report = analyze_pair(_op([[1, 0], [0, 0]]), _op([[1, 0], [0, 1]]))
    assert report.backend == EXACT
    assert (report.rank_a, report.rank_b) == (1, 2)
    assert report.leq_ab and not report.leq_ba
    assert report.abs_cont_ab and not report.abs_cont_ba
    assert not report.singular
    assert not report.same_range_class
    assert report.dim_range_sum == 2
    assert report.dim_range_intersection == 1
    assert report.min_domination_constant == pytest.approx(1.0)


def test_frozen_report_singular_pair():
    ones = _op([[1, 1], [1, 1]])
    e1 = _op([[1, 0], [0, 0]])
    report = analyze_pair(ones, e1)
    assert report.singular
    assert not report.abs_cont_ab and not report.abs_cont_ba
    assert report.dim_range_intersection == 0
    assert report.min_domination_constant is None


def test_min_constant_oracle_reproduces_known_values():
    # lambda_max of ones(2) against the identity is exactly 2
    ones = _op([[1, 1], [1, 1]])
    eye = _op([[1, 0], [0, 1]])
    got = min_constant_bisect(ones, eye)
    assert abs(got - 2) < Fraction(1, 2**38)
    # [[2,1],[1,1]] against the identity: largest eigenvalue (3+sqrt 5)/2
    bumpy = _op([[2, 1], [1, 1]])
    want = (3 + math.sqrt(5)) / 2
    assert abs(float(min_constant_bisect(bumpy, eye)) - want) < 1e-9


def test_min_constant_matches_bisection_oracle():
    rand = random.Random(31)
    checked = 0
    while checked < 15:
        dim = rand.randint(2, 4)
        a, b = random_pair_with_relation(dim, "ac", derive_seed(31, checked))
        if a.rank == 0:
            checked += 1
            continue
        oracle = min_constant_bisect(a, b)
        got = min_domination_constant(a, b)
        assert got is not None and oracle is not None
        assert abs(float(oracle) - got) < 1e-7 * max(1.0, got)
        # the constant it names must actually dominate (with headroom for floats)
        assert leq(a, b.scaled(Fraction(float(got) * (1 + 1e-9)).limit_denominator(10**12)))
        checked += 1


def test_min_constant_degenerate_cases():
    zero = PsdOperator.zero(2, EXACT)
    eye = _op([[1, 0], [0, 1]])
    assert min_domination_constant(zero, eye) == 0.0
    ones = _op([[1, 1], [1, 1]])
    e1 = _op([[1, 0], [0, 0]])
    assert min_domination_constant(ones, e1) is None  # not dominated at all


def test_a_zero_operand_is_dominated_at_constant_zero_without_float_copies():
    # 0 <= 0·b for every PSD b: the constant is read off rank a = 0, so a b
    # whose entries no double holds no longer turns it into a BackendError
    zero = PsdOperator.zero(2, EXACT)
    huge = _op([[10**400, 0], [0, 0]])
    assert leq(zero, huge) and not leq(huge, zero)
    assert min_domination_constant(zero, huge) == 0.0
    assert analyze_pair(zero, huge).min_domination_constant == 0.0
    assert analyze_pair(huge, zero).min_domination_constant is None


def test_domination_at_large_scale_decides_range_inclusion():
    rand = random.Random(77)
    for k in range(60):
        dim = rand.randint(2, 4)
        kind = ("ac", "singular", "incomparable")[k % 3]
        if kind == "incomparable" and dim < 3:
            kind = "ac"
        a, b = random_pair_with_relation(dim, kind, derive_seed(77, k))
        assert is_abs_continuous(a, b) == leq(a, b.scaled(DOM))
        assert is_abs_continuous(b, a) == leq(b, a.scaled(DOM))


def test_leq_basics():
    a = random_psd(3, 2, seed=5)
    b = random_psd(3, 3, seed=6)
    apb = PsdOperator.certified(a.matrix + b.matrix, 3)
    assert leq(a, apb)
    assert not leq(apb, a)  # b is invertible, so the sum strictly exceeds a
    assert leq(a, a)


def _exact_order_pairs():
    """Seeded exact pairs over dims 1-6: every (rank a, rank b) from
    random_psd, zero operators included, and two pairs of each relation kind."""
    pairs = []
    for dim in range(1, 7):
        for ra in range(dim + 1):
            for rb in range(dim + 1):
                pairs.append((random_psd(dim, ra, derive_seed(41, dim, ra, rb, 0)),
                              random_psd(dim, rb, derive_seed(41, dim, ra, rb, 1))))
        for name, kind in sorted(RELATION_KINDS.items()):
            if dim >= kind.min_dim:
                pairs += [random_pair_with_relation(dim, name, derive_seed(43, dim, k))
                          for k in range(2)]
    return pairs


def _order_questions(a, b):
    """(x, y) for every order the agreement tests ask of a pair: both ways,
    and both ways against the 2^60 ladder."""
    return ((a, b), (b, a), (a, b.scaled(DOM)), (b, a.scaled(DOM)))


def test_exact_order_agrees_with_the_certificate_of_the_difference():
    # leq reads certified ranks before it builds b - a; every answer must be
    # the LDL* certificate's on that difference, computed directly
    seen = set()
    for a, b in _exact_order_pairs():
        for x, y in _order_questions(a, b):
            want = psd_certify_exact(y.matrix - x.matrix)[0]
            assert leq(x, y) is want, (x.dim, x.rank, y.rank)
            seen.add((x.rank > y.rank, x.rank == 0, want))
    # both answers behind the certificate, and each shortcut, were reached
    assert seen == {(True, False, False), (False, True, True), (False, False, True),
                    (False, False, False)}


def test_exact_order_takes_the_certificate_only_when_ranks_leave_it_open(monkeypatch):
    import psdcone.linalg.psd as psd_module

    calls = []
    monkeypatch.setattr(
        psd_module, "psd_certify_exact", lambda m: calls.append(m) or psd_certify_exact(m)
    )
    for a, b in _exact_order_pairs():
        for x, y in _order_questions(a, b):
            calls.clear()
            leq(x, y)
            decided = x.rank > y.rank or x.rank == 0
            assert len(calls) == (0 if decided else 1), (x.dim, x.rank, y.rank)


def _sweep_pairs():
    """Seeded exact pairs over dims 1-5 and every rank pair, zero operators
    included, each also against a + b (which dominates a); then their float copies."""
    pairs = []
    for dim in range(1, 6):
        for ra in range(dim + 1):
            for rb in range(dim + 1):
                a = random_psd(dim, ra, derive_seed(13, dim, ra, rb, 0))
                b = random_psd(dim, rb, derive_seed(13, dim, ra, rb, 1))
                pairs += [(a, b), (a, PsdOperator.from_matrix(a.matrix + b.matrix))]
    return pairs + [(a.to_float(), b.to_float()) for a, b in pairs]


def test_relation_triple_consistent_with_analyze():
    for a, b in _sweep_pairs():
        rep = analyze_pair(a, b)
        assert relation_triple(a, b) == (rep.abs_cont_ab, rep.abs_cont_ba, rep.singular)
        assert is_abs_continuous(a, b) == rep.abs_cont_ab
        assert is_abs_continuous(b, a) == rep.abs_cont_ba
        assert is_singular(a, b) == rep.singular
        assert same_range_class(a, b) == rep.same_range_class
        assert min_domination_constant(a, b) == rep.min_domination_constant
        u, v = a.range(), b.range()
        inter = common_dim(u, v)
        assert inter == rep.dim_range_intersection
        if u.backend == EXACT:
            assert subspace_intersect(u, v).dim == inter
        assert v.contains(u) == (inter == u.dim)
        assert u.contains(v) == (common_dim(v, u) == v.dim)


def test_same_range_class():
    a = random_psd(3, 2, seed=8)
    assert same_range_class(a, a.scaled(2))
    other = random_psd(3, 1, seed=9)
    assert not same_range_class(a, other)


def test_zero_operator_relations():
    zero = PsdOperator.zero(3, EXACT)
    b = random_psd(3, 2, seed=10)
    assert is_abs_continuous(zero, b)
    assert is_singular(zero, b)  # trivial intersection
    rep = analyze_pair(zero, b)
    assert rep.abs_cont_ab and rep.singular and rep.min_domination_constant == 0.0


def test_report_constant_follows_its_own_domination_decision():
    # ran a ⊆ ran b exactly, but b = v v* + w w* with v = (1, 1e9, 0) is so
    # ill-conditioned that a float re-check of the inclusion fails: the report
    # used to say abs_cont_ab with a constant of None ("no constant exists")
    f = Matrix.exact([[1], [0], [0]])
    v = Matrix.exact([[1], [10**9], [0]])
    w = Matrix.exact([[0], [1], [0]])
    a = PsdOperator.from_matrix(f @ f.H)
    b = PsdOperator.from_matrix(v @ v.H + w @ w.H)
    rep = analyze_pair(a, b)
    assert rep.abs_cont_ab
    assert rep.min_domination_constant is not None
    # the public function decides on the same backend, so it names the same constant
    assert min_domination_constant(a, b) == rep.min_domination_constant


def test_report_orders_only_what_its_ranges_allow():
    # a ≤ b forces ran a ⊆ ran b; within tol the float order used to accept
    # diag(1, 1e-9) ≤ diag(1, 0) beside abs_cont_ab=False and no constant
    a = PsdOperator.from_matrix(Matrix.from_float(np.diag([1.0, 1e-9])))
    b = PsdOperator.from_matrix(Matrix.from_float(np.diag([1.0, 0.0])))
    assert leq(a, b, 1e-8)  # the bare order test is unchanged
    rep = analyze_pair(a, b, 1e-8)
    assert (rep.rank_a, rep.rank_b) == (2, 1)
    assert not rep.abs_cont_ab and not rep.leq_ab
    assert rep.min_domination_constant is None
    assert rep.abs_cont_ba and rep.leq_ba is leq(b, a, 1e-8)


def test_float_report_matches_exact_on_integer_data():
    rand = random.Random(21)
    for k in range(25):
        dim = rand.randint(2, 4)
        kind = ("ac", "singular")[k % 2]
        a, b = random_pair_with_relation(dim, kind, derive_seed(21, k))
        exact_rep = analyze_pair(a, b)
        float_rep = analyze_pair(a.to_float(), b.to_float())
        assert float_rep.backend == FLOAT
        for field in ("abs_cont_ab", "abs_cont_ba", "singular", "leq_ab", "leq_ba",
                      "rank_a", "rank_b", "dim_range_sum", "dim_range_intersection"):
            assert getattr(float_rep, field) == getattr(exact_rep, field), (field, k)


def test_report_dict_round_trip():
    rep = analyze_pair(_op([[1, 0], [0, 0]]), _op([[1, 0], [0, 1]]))
    d = rep.to_dict()
    assert d["abs_cont_ab"] is True
    assert set(d) == {
        "backend", "dim", "rank_a", "rank_b", "leq_ab", "leq_ba",
        "abs_cont_ab", "abs_cont_ba", "singular", "same_range_class",
        "dim_range_sum", "dim_range_intersection", "min_domination_constant",
    }


def test_dimension_mismatch_rejected():
    a = random_psd(2, 1, seed=1)
    b = random_psd(3, 1, seed=2)
    with pytest.raises(Exception):
        analyze_pair(a, b)


@pytest.mark.parametrize("fn", [relation_triple, leq, analyze_pair, min_domination_constant])
def test_operands_on_other_spaces_or_backends_are_refused(fn):
    # the refusals come from common_dim and Matrix arithmetic, in both orders,
    # also where exact leq would otherwise settle the order by ranks alone
    a = random_psd(2, 1, seed=1)
    for other, error in (
        (random_psd(3, 1, seed=2), DimensionMismatchError),
        (random_psd(3, 3, seed=2), DimensionMismatchError),
        (random_psd(3, 0, seed=2), DimensionMismatchError),
        (random_psd(2, 2, seed=2, backend=FLOAT), BackendError),
        (random_psd(2, 0, seed=2, backend=FLOAT), BackendError),
    ):
        for pair in ((a, other), (other, a)):
            with pytest.raises(error):
                fn(*pair)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_an_invertible_operand_takes_no_elimination_and_no_angles(backend, monkeypatch):
    # ran b = C^n, so dim(ran a ∩ ran b) = rank a is counted: relation_triple
    # then takes neither a Bareiss rank of [U | V] nor a principal-angle SVD,
    # with b on either side, and still reads a ≪ b, and b ≪ a only when a is
    # invertible too
    import psdcone.linalg.subspace as subspace_module

    seen = []
    for name in ("hstack_rank", "principal_sines"):
        kernel = getattr(subspace_module, name)
        monkeypatch.setattr(
            subspace_module, name, lambda *args, _k=kernel, _n=name: seen.append(_n) or _k(*args)
        )
    for n in (2, 3, 4):
        b = random_psd(n, n, derive_seed(5, n))
        b = b if backend == EXACT else b.to_float()
        for r in range(n + 1):
            a = random_psd(n, r, derive_seed(6, n, r))
            a = a if backend == EXACT else a.to_float()
            assert relation_triple(a, b) == (True, r == n, r == 0)
            assert relation_triple(b, a) == (r == n, True, r == 0)
    assert seen == []
