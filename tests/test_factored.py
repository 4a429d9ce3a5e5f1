"""Factored exact operators: A = G G* kept with its factor G.

Every place a factor is born or carried must give an operator whose matrix
is G G*, whose range is the eliminated column space of that matrix, and
whose map images equal the images of the same operator without a factor.
"""

import random

import pytest

from psdcone.generators import (
    derive_seed,
    random_direction,
    random_pair_with_relation,
    random_psd,
    random_semilinear,
    rank_one,
)
from psdcone.linalg import (
    EXACT, FLAVORS, FLOAT, Matrix, PsdOperator, column_space, psd_certify_exact
)
from psdcone.preserver import PreserverSpec, apply_map, make_wild_map


def unfactored(a: PsdOperator) -> PsdOperator:
    return PsdOperator.certified(a.matrix, a.rank)


def assert_consistent(op: PsdOperator) -> None:
    g = op.factor
    assert g is not None
    assert op.matrix == g @ g.H
    eliminated = column_space(op.matrix)
    assert op.rank == g.cols == eliminated.dim == psd_certify_exact(op.matrix)[1]
    assert op.range().equals(eliminated)


def born_operators():
    for dim in range(1, 6):
        for r in range(1, dim + 1):
            yield random_psd(dim, r, derive_seed(4, dim, r))
    for dim in (2, 3, 4):
        for kind in ("ac", "singular", "incomparable"):
            if kind == "incomparable" and dim < 3:
                continue
            for k in range(3):
                for op in random_pair_with_relation(dim, kind, derive_seed(5, dim, k)):
                    if op.rank:
                        yield op
    rand = random.Random(6)
    for n in (1, 2, 3, 4):
        yield rank_one(random_direction(n, rand))


def test_every_birth_site_keeps_a_consistent_factor():
    ops = list(born_operators())
    assert len(ops) > 40
    for op in ops:
        assert_consistent(op)


def test_rank_and_range_read_the_factor_without_elimination(monkeypatch):
    op = random_psd(4, 3, 17)

    def refuse(*args):
        raise AssertionError("a factored operator eliminated or formed its matrix")

    for name in ("rank", "pivot_columns", "rref", "__matmul__"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert op.rank == 3
    assert op.range().basis is op.factor
    monkeypatch.undo()
    assert op.matrix is op.matrix


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_zero_operator_is_born_with_its_range(monkeypatch, backend):
    zero = PsdOperator.zero(3, backend)

    def refuse(*args):
        raise AssertionError("the zero operator's range was computed")

    for name in ("rank", "pivot_columns", "rref", "null_space"):
        monkeypatch.setattr(Matrix, name, refuse)
    monkeypatch.setattr(PsdOperator, "eigh", refuse)
    assert zero.range().dim == 0 and zero.range().backend == backend


def _wild_specs(dim):
    """Wild maps of both exponents in dimension ``dim``."""
    found = {}
    for seed in range(40):
        spec = make_wild_map(seed, dim)
        found.setdefault(spec.wild_data[1], spec)
    assert set(found) == {1, -1}
    return [found[1], found[-1]]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_map_images_carry_a_factor_and_match_unfactored_images(dim):
    specs = [
        PreserverSpec.congruence(random_semilinear(dim, derive_seed(7, dim, k), flavor=flavor))
        for k, flavor in enumerate(FLAVORS)
    ] + _wild_specs(dim)
    for spec in specs:
        for r in range(1, dim + 1):
            a = random_psd(dim, r, derive_seed(8, dim, r))
            image = apply_map(spec, a)
            plain = apply_map(spec, unfactored(a))
            assert plain.factor is None
            assert image.matrix == plain.matrix and image.rank == plain.rank
            if spec.kind == "wild" and r < dim:
                assert image is a  # wild maps fix every non-invertible operator
            assert_consistent(image)


def test_unfactored_exact_range_still_checks_its_rank():
    a = random_psd(3, 2, 9)
    wrong = PsdOperator.certified(a.matrix, 3)
    assert wrong.factor is None
    with pytest.raises(ArithmeticError, match="certified rank disagrees with elimination"):
        wrong.range()
    assert unfactored(a).range().equals(a.range())


def _float_twin_bytes(op: PsdOperator) -> bytes:
    return op.to_float().matrix.array.tobytes()


def test_float_twins_built_from_the_factor_are_the_exact_path_bit_for_bit():
    # G G* multiplied in float, + 0.0, against the exact product rounded once;
    # seeds 3 and 15 give factors whose raw float product holds a -0.0
    ops = [
        random_psd(dim, r, derive_seed(seed, dim, r))
        for seed in range(16) for dim in range(1, 7) for r in range(1, dim + 1)
    ]
    t = random_semilinear(4, 11, flavor="conjugate")
    ops += [apply_map(PreserverSpec.congruence(t), op) for op in ops if op.dim == 4]
    for op in ops:
        assert op.factor is not None
        assert _float_twin_bytes(op) == _float_twin_bytes(unfactored(op)), op


@pytest.mark.parametrize("top, float_path", [(2**26 - 1, True), (2**26, False)])
def test_the_float_twin_takes_the_float_product_only_below_its_bound(monkeypatch, top, float_path):
    # rank 1 and max |g| = top: 2·rank·top² < 2^53 holds at 2^26 − 1, not at 2^26
    g = Matrix.exact([[(top, -top)], [(3, top)]])
    op = PsdOperator.from_factor(g)
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    twin = _float_twin_bytes(op)
    assert (not products) is float_path
    monkeypatch.undo()
    assert twin == _float_twin_bytes(unfactored(op))
