"""Seeded generators: determinism, certified ranks, requested relations."""

import random

import pytest

import psdcone.generators as generators
from psdcone.errors import GenerationError
from psdcone.generators import (
    RELATION_KINDS,
    RETRY_BUDGET,
    _gauss_ints,
    derive_seed,
    random_direction,
    random_pair_with_relation,
    random_psd,
    random_scalar,
    random_semilinear,
    rank_one,
)
from psdcone.linalg import EXACT, FLOAT, Matrix, column_space
from psdcone.relations import analyze_pair, relation_triple
from psdcone.suite import _relation_kinds

from naive_oracles import grid_of, naive_det, naive_gauss_ints, CZERO


def test_derive_seed_is_stable_and_salt_sensitive():
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(5) != derive_seed(6)
    assert 0 <= derive_seed(123, 456) < 2**63


def test_random_psd_is_deterministic():
    a = random_psd(4, 2, seed=11)
    b = random_psd(4, 2, seed=11)
    assert a.matrix == b.matrix
    c = random_psd(4, 2, seed=12)
    assert a.matrix != c.matrix


def test_random_psd_certified_rank_every_requested_value():
    for dim in range(1, 6):
        for r in range(dim + 1):
            op = random_psd(dim, r, seed=derive_seed(3, dim, r))
            assert op.rank == r
            assert op.range().dim == r
            assert op.matrix == op.matrix.H


def test_random_psd_float_backend():
    op = random_psd(3, 2, seed=7, backend=FLOAT)
    assert op.backend == FLOAT
    assert op.rank == 2


def test_rank_one_from_vector():
    f = Matrix.exact([[1], [(0, 2)], [0]])
    op = rank_one(f)
    assert op.rank == 1
    assert op.range().contains(column_space(f))


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: rank_one(Matrix.exact([[1, 0], [0, 1]])), "expected a column vector"),
        (lambda: rank_one(Matrix.exact([[0], [0]])), "zero vector spans no line"),
        (lambda: random_psd(3, 4, seed=1), "rank 4 out of range for dimension 3"),
        (lambda: random_psd(3, -1, seed=1), "rank -1 out of range for dimension 3"),
    ],
    ids=["rank_one-matrix", "rank_one-zero", "random_psd-rank-above", "random_psd-rank-below"],
)
def test_generators_refuse_requests_they_cannot_meet(draw, message):
    with pytest.raises(ValueError, match=message):
        draw()


def test_direction_and_scalar_samplers_keep_the_stream():
    # the samplers draw (re, im) pairs in -3..3 row by row and redraw an
    # all-zero draw, so every seeded check built on them replays unchanged
    def reference_direction(rand, n):
        while True:
            entries = [(rand.randint(-3, 3), rand.randint(-3, 3)) for _ in range(n)]
            if any(e != (0, 0) for e in entries):
                return Matrix.exact([[e] for e in entries])

    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 1, 2, 3):
            assert random_direction(n, ours) == reference_direction(theirs, n)
        assert random_scalar(ours) == reference_direction(theirs, 1).entry(0, 0)
        assert ours.random() == theirs.random()
    assert all(random_scalar(random.Random(s)) for s in range(200))


def test_gauss_ints_replay_the_randint_stream():
    # drawing the parts through getrandbits keeps randint's rejection rule,
    # so every seeded operator, pair and report replays unchanged
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (1, 4, 25):
            assert _gauss_ints(count, ours) == naive_gauss_ints(count, theirs)
        assert ours.random() == theirs.random()


def test_random_semilinear_invertible_by_independent_determinant():
    for k in range(12):
        t = random_semilinear(3, derive_seed(8, k))
        assert naive_det(grid_of(t.t)) != CZERO
    conj = random_semilinear(3, 5, flavor="conjugate")
    assert conj.is_conjugate


def test_pair_generator_delivers_requested_relation():
    for dim in (2, 3, 4, 5):
        for kind in ("ac", "singular", "incomparable"):
            if kind == "incomparable" and dim < 3:
                continue
            for k in range(6):
                a, b = random_pair_with_relation(dim, kind, derive_seed(9, dim, k))
                assert a.backend == EXACT
                rep = analyze_pair(a, b)
                if kind == "ac":
                    assert rep.abs_cont_ab
                elif kind == "singular":
                    assert rep.singular
                else:
                    assert not rep.abs_cont_ab
                    assert not rep.abs_cont_ba
                    assert not rep.singular


def test_incomparable_needs_room():
    with pytest.raises(GenerationError):
        random_pair_with_relation(2, "incomparable", 0)
    with pytest.raises(ValueError):
        random_pair_with_relation(3, "sideways", 0)


def test_pair_generator_is_deterministic():
    p1 = random_pair_with_relation(3, "singular", 42)
    p2 = random_pair_with_relation(3, "singular", 42)
    assert p1[0].matrix == p2[0].matrix
    assert p1[1].matrix == p2[1].matrix


@pytest.mark.parametrize("relation", sorted(RELATION_KINDS))
def test_each_kind_refuses_below_its_minimum_dimension(relation):
    # "ac" used to leak randrange's ValueError at dim 0
    low = RELATION_KINDS[relation].min_dim
    for dim in range(low):
        with pytest.raises(GenerationError):
            random_pair_with_relation(dim, relation, 5)
    a, b = random_pair_with_relation(low, relation, 5)
    assert a.dim == b.dim == low


def test_suite_cycles_the_kinds_each_dimension_admits():
    assert _relation_kinds(2) == ("ac", "singular")
    assert _relation_kinds(3) == _relation_kinds(6) == ("ac", "singular", "incomparable")


def _holds(relation, triple):
    ab, ba, singular = triple
    return {"ac": ab, "singular": singular, "incomparable": not (ab or ba or singular)}[relation]


def _units(rows, cols, first):
    """The rows × cols exact matrix of unit columns e_first, e_first+1, ..."""
    return Matrix.exact([[int(i == first + j) for j in range(cols)] for i in range(rows)])


# attempt 0's factors, by factor index: a zero (rank-deficient) H for "ac", whose
# relation follows from its ranks; full-rank factors with nested ranges otherwise
_WRONG_FIRST_DRAW = {
    "ac": {0: lambda rows, cols: Matrix.zeros(rows, cols)},
    "singular": {k: lambda rows, cols: _units(rows, cols, 0) for k in (0, 1)},
    "incomparable": {
        0: lambda rows, cols: _units(rows, cols, 0),
        1: lambda rows, cols: _units(rows, cols, rows - cols),
        2: lambda rows, cols: _units(rows, cols, rows - cols),
    },
}


@pytest.mark.parametrize("relation", sorted(RELATION_KINDS))
def test_a_rejected_draw_is_redrawn_and_the_pair_certified(monkeypatch, relation):
    dim, seed = 4, 2  # seed 2's first singular draw has ranks (2, 2): no zero part
    salt = RELATION_KINDS[relation].salt
    wrong = {
        derive_seed(seed, salt + 1 + k, dim): make
        for k, make in _WRONG_FIRST_DRAW[relation].items()
    }
    real_factor, attempts, verdicts = generators._factor, [], []

    def factor(rows, cols, sub, attempt):
        attempts.append(attempt)
        if attempt == 0 and sub in wrong:
            return wrong[sub](rows, cols)
        return real_factor(rows, cols, sub, attempt)

    def certify(a, b):
        verdicts.append((a.rank, b.rank, relation_triple(a, b)))
        return verdicts[-1][2]

    monkeypatch.setattr(generators, "_factor", factor)
    monkeypatch.setattr(generators, "relation_triple", certify)
    a, b = random_pair_with_relation(dim, relation, seed)
    assert max(attempts) == 1
    if relation == "ac":
        assert len(verdicts) == 1  # attempt 0 failed its rank check
    else:
        # attempt 0 passed the rank check and was refused by certification
        (ra, rb, first), _ = verdicts
        assert ra and rb and not _holds(relation, first)
    rep = analyze_pair(a, b)
    assert _holds(relation, (rep.abs_cont_ab, rep.abs_cont_ba, rep.singular))


@pytest.mark.parametrize("relation", sorted(RELATION_KINDS))
def test_pair_kinds_give_up_after_exactly_the_retry_budget(monkeypatch, relation):
    # every draw is certified into a triple its kind refuses
    refused = (True, True, False) if relation == "incomparable" else (False, False, False)
    real_factor, attempts = generators._factor, []

    def factor(rows, cols, sub, attempt):
        attempts.append(attempt)
        return real_factor(rows, cols, sub, attempt)

    monkeypatch.setattr(generators, "_factor", factor)
    monkeypatch.setattr(generators, "relation_triple", lambda a, b: refused)
    with pytest.raises(GenerationError):
        random_pair_with_relation(4, relation, 3)
    assert sorted(set(attempts)) == list(range(RETRY_BUDGET))


@pytest.mark.parametrize(
    "draw",
    [lambda: random_psd(3, 2, seed=1), lambda: random_semilinear(3, seed=1)],
    ids=["random_psd", "random_semilinear"],
)
def test_exact_draws_give_up_after_exactly_the_retry_budget(monkeypatch, draw):
    calls = []

    def zeros(rows, cols, rand):
        calls.append((rows, cols))
        return Matrix.zeros(rows, cols)

    monkeypatch.setattr(generators, "_gauss_int_matrix", zeros)
    with pytest.raises(GenerationError):
        draw()
    assert len(calls) == RETRY_BUDGET
