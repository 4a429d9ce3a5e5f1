"""Line geometry: induced maps, reconstruction, coplanarity checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from psdcone import projective
from psdcone.errors import DimensionMismatchError, GenerationError, LineMapError, NotSemilinearError
from psdcone.generators import RETRY_BUDGET, derive_seed, random_direction, random_semilinear
from psdcone.linalg import EXACT, FLAVOR_CONJUGATE, FLAVOR_LINEAR, Matrix, hstack_rank
from psdcone.linalg import matrix as linalg_matrix
from psdcone.preserver import PreserverSpec, WeightFamily, make_wild_map
from psdcone.projective import (
    Line,
    LineMap,
    induced_line_map,
    projective_scalar,
    reconstruct_semilinear,
    swap_counterexample_line_map,
    unit_line,
    verify_projectivity,
)


def test_line_normalization_and_equality():
    assert Line.from_vector([2, 4, 0]) == Line.from_vector([1, 2, 0])
    assert Line.from_vector([(0, 2), (0, 4), 0]) == Line.from_vector([1, 2, 0])
    assert hash(Line.from_vector([3, 3])) == hash(Line.from_vector([1, 1]))
    assert Line.from_vector([0, 5]) == unit_line(2, 1)


def test_unit_lines_are_built_in_normal_form():
    for n in range(1, 7):
        for j in range(n):
            line = unit_line(n, j)
            same = Line.from_vector([1 if k == j else 0 for k in range(n)])
            assert line == same and hash(line) == hash(same) and repr(line) == repr(same)
            assert line.column() == Matrix.exact([[1 if k == j else 0] for k in range(n)])
    for n, j in ((3, 3), (3, -1), (0, 0)):
        with pytest.raises(ValueError):
            unit_line(n, j)


def test_a_line_divides_once_and_keeps_its_column(monkeypatch):
    # a line normalises its column in Gaussian integers, with no scalar
    # division at all, and hands that column back without rebuilding it
    from psdcone.linalg import GaussianRational

    v = Matrix.exact([[0], [(0, 2)], [4], [(1, -3)]])
    divisions = []
    divide = GaussianRational.__truediv__
    monkeypatch.setattr(
        GaussianRational, "__truediv__", lambda a, b: divisions.append(b) or divide(a, b)
    )
    line = Line.from_vector(v)
    assert divisions == []

    def rebuild(*args):
        raise AssertionError("a line rebuilt its column from scalars")

    monkeypatch.setattr(Matrix, "exact", rebuild)
    assert line.column() is line.column()
    assert line.column() == v.scale(divide(GaussianRational.coerce(1), v.entry(1, 0)))
    assert line == Line.from_vector(v.scale(7)) and hash(line) == hash(Line.from_vector(v.scale(7)))
    assert line.ambient_dim == 4


def test_lines_compare_by_key_under_every_scalar():
    # Line(v) == Line(λ·v) for λ imaginary, with a denominator, or both
    rand = random.Random(19)
    for n in range(1, 7):
        for _ in range(6):
            v = random_direction(n, rand).scale(Fraction(1, rand.randint(1, 9)))
            line = Line.from_vector(v)
            for lam in ((0, 3), Fraction(-2, 7), (Fraction(1, 3), Fraction(-5, 2)), (0, Fraction(-1, 4))):
                other = Line.from_vector(v.scale(lam))
                assert other == line and hash(other) == hash(line)
                assert other.column() == line.column() and repr(other) == repr(line)
            w = random_direction(n, rand)
            if n > 1 and Matrix.hstack([v, w]).rank() == 2:
                assert Line.from_vector(w) != line


def test_line_column_and_repr_are_the_divided_direction():
    assert repr(Line.from_vector([0, (0, 2), 4, (1, -3)])) == "Line(0, 1, -2i, -3/2-1/2i)"
    line = Line.from_vector(Matrix.exact([[(1, 3)], [2], [(0, 1)]]).scale(Fraction(5, 3)))
    assert repr(line) == "Line(1, 1/5-3/5i, 3/10+1/10i)"
    assert line.column() == Matrix.exact([[1], [("1/5", "-3/5")], [("3/10", "1/10")]])


def test_line_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        Line.from_vector([0, 0])
    with pytest.raises(DimensionMismatchError, match="expected a column vector"):
        Line.from_vector(Matrix.exact([[1, 0], [0, 1]]))


def test_line_map_caches_and_validates():
    lm = induced_line_map(PreserverSpec.congruence(random_semilinear(3, 4)))
    ln = Line.from_vector([1, 2, 3])
    assert lm(ln) == lm(ln)
    with pytest.raises(DimensionMismatchError):
        lm(Line.from_vector([1, 0]))
    for value in ("not a line", unit_line(3, 0)):
        with pytest.raises(LineMapError, match="returned a value outside its space"):
            LineMap(2, lambda line: value)(unit_line(2, 0))


def test_projective_scalar():
    a = Matrix.exact([[2, 0], [0, 4]])
    b = Matrix.exact([[1, 0], [0, 2]])
    assert projective_scalar(a, b) == projective_scalar(a, b)  # stable
    assert a == b.scale(projective_scalar(a, b))
    assert projective_scalar(a, Matrix.exact([[1, 0], [0, 3]])) is None


def test_round_trip_both_flavors_dims_2_to_5():
    for seed in range(8):
        dim = 2 + seed % 4
        for flavor in (FLAVOR_LINEAR, FLAVOR_CONJUGATE):
            t = random_semilinear(dim, derive_seed(500, seed, flavor == "conjugate"), flavor=flavor)
            lm = induced_line_map(PreserverSpec.congruence(t))
            rec = reconstruct_semilinear(lm)
            assert rec.flavor == flavor
            lam = projective_scalar(rec.t, t.t)
            assert lam is not None and bool(lam)


def test_round_trip_through_float_snapping():
    t = random_semilinear(3, 42)
    spec = PreserverSpec.form_iv(t, WeightFamily.seeded(5))
    rec = reconstruct_semilinear(induced_line_map(spec))
    assert rec.flavor == FLAVOR_LINEAR
    assert projective_scalar(rec.t, t.t) is not None


def test_wild_maps_act_trivially_on_lines():
    lm = induced_line_map(make_wild_map(9, 3))
    for v in ([1, 0, 0], [1, 2, 3], [(1, 1), (0, 2), (3, 0)]):
        assert lm(Line.from_vector(v)) == Line.from_vector(v)
    rec = reconstruct_semilinear(lm)
    assert projective_scalar(rec.t, Matrix.identity(3, EXACT)) is not None


def test_projectivity_passes_for_operator_maps():
    lm = induced_line_map(PreserverSpec.congruence(random_semilinear(4, 3)))
    rep = verify_projectivity(lm, trials=20, seed=1)
    assert rep.passed
    assert rep.coplanar_triples > 0 and rep.independent_triples > 0


def test_projectivity_rejects_the_swap_counterexample():
    rep = verify_projectivity(swap_counterexample_line_map(3), trials=0, seed=0)
    assert not rep.passed
    # the canonical witness: [e1], [e3], [e1+e3] stop being coplanar
    kinds = {f["kind"] for f in rep.failures}
    assert "canonical" in kinds


def _collapse_e1(n):
    """Sends [e1] to [e0] and fixes every other line: the unit images are dependent."""
    e0, e1 = unit_line(n, 0), unit_line(n, 1)
    return LineMap(n, lambda line: e0 if line == e1 else line)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dependent_unit_images_rank_every_canonical_triple(n):
    # one rank stands in for the C(n, 3) unit triples only when the unit images
    # are independent; otherwise each triple is ranked, in the same order, as
    # this per-triple reference loop ranks it
    lm = _collapse_e1(n)
    rank = lambda lines: hstack_rank([lm(line).column() for line in lines])
    e = lambda *idx: Line.from_vector([1 if k in idx else 0 for k in range(n)])
    want = []
    for i, j in itertools.combinations(range(n), 2):
        got = rank([e(i), e(j), e(i, j)])
        if got > 2:
            want.append({"kind": "canonical", "triple": f"e{i},e{j},e{i}+e{j}", "image_rank": got})
    for i, j, k in itertools.combinations(range(n), 3):
        got = rank([e(i), e(j), e(k)])
        if got != 3:
            want.append({"kind": "canonical", "triple": f"e{i},e{j},e{k}", "image_rank": got})
    rep = verify_projectivity(lm, trials=0)
    assert any("+" not in f["triple"] for f in want)
    assert list(rep.failures) == want
    assert (rep.coplanar_triples, rep.independent_triples) == (math.comb(n, 2), math.comb(n, 3))
    congruence_map = induced_line_map(PreserverSpec.congruence(random_semilinear(n, 3)))
    congruence = verify_projectivity(congruence_map, trials=0)
    assert congruence.passed
    assert (congruence.coplanar_triples, congruence.independent_triples) == (math.comb(n, 2), math.comb(n, 3))


def _count_sweeps(monkeypatch):
    """The argument tuples of every ``_sweep`` call made from here on."""
    calls = []
    sweep = linalg_matrix._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(linalg_matrix, "_sweep", counted)
    monkeypatch.setattr(projective, "_sweep", counted)
    return calls


def test_projectivity_takes_one_elimination_when_the_unit_images_are_independent(monkeypatch):
    # at trials=0 one sweep of [unit images | mixed images] decides the C(n, 2)
    # coplanar and the C(n, 3) independent canonical triples
    calls = _count_sweeps(monkeypatch)
    for n in range(3, 7):
        lm = induced_line_map(PreserverSpec.congruence(random_semilinear(n, 3)))
        del calls[:]
        rep = verify_projectivity(lm, trials=0)
        assert rep.passed and len(calls) == 1
        assert (rep.coplanar_triples, rep.independent_triples) == (math.comb(n, 2), math.comb(n, 3))


def test_reconstruction_takes_three_eliminations_and_a_round_trip_four(monkeypatch):
    # reconstruction: the unit rank, one kernel for every diagonal probe and the
    # operator's own rank; the round trip adds the one sweep of verify_projectivity
    calls = _count_sweeps(monkeypatch)
    for n in range(3, 7):
        for flavor in (FLAVOR_LINEAR, FLAVOR_CONJUGATE):
            t = random_semilinear(n, derive_seed(31, n), flavor=flavor)
            lm = induced_line_map(PreserverSpec.congruence(t))
            del calls[:]
            rec = reconstruct_semilinear(lm)
            assert rec.flavor == flavor and projective_scalar(rec.t, t.t) is not None
            assert len(calls) == 3
    lm = induced_line_map(PreserverSpec.congruence(random_semilinear(6, 3)))
    del calls[:]
    reconstruct_semilinear(lm)
    assert verify_projectivity(lm, trials=0).passed
    assert len(calls) <= 4


def _stray_coordinate(n):
    """Sends [e0 + e1] to [e0 + e1 + e2] and fixes every other line."""
    e01 = Line.from_vector([1, 1] + [0] * (n - 2))
    e012 = Line.from_vector([1, 1, 1] + [0] * (n - 3))
    return LineMap(n, lambda line: e012 if line == e01 else line)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_stray_coordinate_just_past_the_plane_is_caught(n):
    # the image of [e0 + e1] leaves the plane of [e0], [e1] by its coordinate on
    # e2, the index right after the pair: a support test read one index too wide
    # would miss it
    lm = _stray_coordinate(n)
    with pytest.raises(NotSemilinearError, match="leaves the plane"):
        reconstruct_semilinear(lm)
    rep = verify_projectivity(lm, trials=0)
    assert rep.failures == ({"kind": "canonical", "triple": "e0,e1,e0+e1", "image_rank": 3},)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_elimination_lists_what_ranking_each_triple_lists(n):
    # with independent unit images, the failures read off one sweep are those,
    # in the same order and with the same ranks, of ranking each canonical triple
    e = lambda *idx: Line.from_vector([1 if k in idx else 0 for k in range(n)])
    maps = (
        (_stray_coordinate(n), False),
        (swap_counterexample_line_map(n), False),
        (induced_line_map(PreserverSpec.congruence(random_semilinear(n, 5))), True),
    )
    for lm, passes in maps:
        want = []
        for i, j in itertools.combinations(range(n), 2):
            got = hstack_rank([lm(line).column() for line in (e(i), e(j), e(i, j))])
            if got > 2:
                label = f"e{i},e{j},e{i}+e{j}"
                want.append({"kind": "canonical", "triple": label, "image_rank": got})
        for triple in itertools.combinations(range(n), 3):
            assert hstack_rank([lm(e(k)).column() for k in triple]) == 3
        rep = verify_projectivity(lm, trials=0)
        assert list(rep.failures) == want and rep.passed == passes


def test_image_lines_that_only_enter_ranks_build_no_column(monkeypatch):
    # the map builds the column of each line it evaluates; its images are only
    # ranked, straight off their keys
    n = 5
    lm = induced_line_map(PreserverSpec.congruence(random_semilinear(n, 8)))
    built = []
    build = Matrix.from_gaussian_ints
    monkeypatch.setattr(
        Matrix, "from_gaussian_ints", classmethod(lambda cls, *a: built.append(a) or build(*a))
    )
    assert verify_projectivity(lm, trials=0).passed
    assert len(built) == n + math.comb(n, 2)


def test_probe_lines_from_ints_match_lines_from_vectors():
    # every probe the projective layer builds from ints equals, hashes and
    # prints like the line of the same entries
    n = 4
    seen = []
    lm = LineMap(n, lambda line: seen.append(line) or line)
    reconstruct_semilinear(lm)
    verify_projectivity(lm, trials=0)
    e = lambda *idx: [1 if k in idx else 0 for k in range(n)]
    want = (
        [e(j) for j in range(n)]
        + [e(0, j) for j in range(1, n)]
        + [[1, (0, 1)] + [0] * (n - 2)]
        + [e(i, j) for i, j in itertools.combinations(range(1, n), 2)]
    )
    assert len(seen) == len(want)
    for got, entries in zip(seen, want):
        same = Line.from_vector(entries)
        assert got == same and hash(got) == hash(same) and repr(got) == repr(same)
        assert got.column() == same.column()
    for name in ("_key", "_col", "ambient_dim"):
        with pytest.raises(AttributeError):
            setattr(seen[0], name, None)


def test_the_seeded_redraw_gives_up_after_its_budget(monkeypatch):
    # a sampler that only draws one direction never yields an independent pair
    draws = []
    constant = Matrix.exact([[1], [(0, 2)], [0]])
    monkeypatch.setattr(projective, "random_direction", lambda n, rand: draws.append(n) or constant)
    lm = induced_line_map(PreserverSpec.congruence(random_semilinear(3, 4)))
    with pytest.raises(GenerationError):
        verify_projectivity(lm, trials=1)
    assert len(draws) == 2 * RETRY_BUDGET


def test_projectivity_needs_three_dimensions():
    with pytest.raises(DimensionMismatchError):
        verify_projectivity(induced_line_map(PreserverSpec.congruence(random_semilinear(2, 1))))


def test_reconstruction_rejects_the_swap_map():
    with pytest.raises(NotSemilinearError):
        reconstruct_semilinear(swap_counterexample_line_map(3))


def test_reconstruction_rejects_collapsed_coordinates():
    # a map squashing [e2] onto [e1] has dependent coordinate images
    def fn(line):
        if line == unit_line(3, 1):
            return unit_line(3, 0)
        return line

    with pytest.raises(NotSemilinearError):
        reconstruct_semilinear(LineMap(3, fn))


def _moved(n, probe, image):
    """The identity map of the lines of C^n, but for ``probe`` sent to ``image``."""
    return LineMap(n, lambda line: image if line == probe else line)


@pytest.mark.parametrize(
    "line_map, message",
    [
        (_moved(3, Line([1, 1, 0]), unit_line(3, 1)), "collapses onto a coordinate image"),
        (_moved(3, Line([1, 0, 1]), unit_line(3, 0)), "collapses onto a coordinate image"),
        (_moved(3, Line([1, (0, 1), 0]), Line([1, 2, 0])), "imaginary probe matches neither"),
    ],
    ids=["diagonal-onto-e1", "diagonal-onto-e0", "imaginary-probe"],
)
def test_reconstruction_refuses_probe_images_no_operator_fits(line_map, message):
    with pytest.raises(NotSemilinearError, match=message):
        reconstruct_semilinear(line_map)


def test_snap_rejects_irrational_directions():
    from psdcone.projective import _snap_direction
    import numpy as np

    # best fraction with denominator <= the snap cap still misses sqrt(2)
    # by ~5e-11, an order of magnitude outside the acceptance window
    with pytest.raises(LineMapError):
        _snap_direction(np.array([1.0, np.sqrt(2)], dtype=complex))
    with pytest.raises(LineMapError):
        _snap_direction(np.zeros(3, dtype=complex))
    snapped = _snap_direction(np.array([2.0, 1.0], dtype=complex))
    assert snapped == Matrix.exact([[1], ["1/2"]])
    # float noise well below the window must not spoil a true rational
    noisy = np.array([1.0, 0.5 + 3e-14, -0.25j], dtype=complex)
    assert _snap_direction(noisy) == Matrix.exact([["1"], ["1/2"], [(0, "-1/4")]])


@pytest.mark.parametrize("r", [3e-6, 3e-7])
def test_snap_pivot_flips_at_its_cut(r):
    from psdcone.projective import _snap_direction
    import numpy as np

    # [1, 1/r]: at 3× the 1e-6 cut the leading 1 is the pivot and [1, 1e6/3]
    # is a rational point; at 0.3× the pivot moves to 1/r, and the leading
    # entry divided by it, 3e-7, sits at no rational point
    v = np.array([1.0, 1.0 / r], dtype=complex)
    if r > 1e-6:
        assert _snap_direction(v) == Matrix.exact([[1], [Fraction(10**6, 3)]])
    else:
        with pytest.raises(LineMapError):
            _snap_direction(v)


def test_induced_map_refuses_rank_breaking_specs(monkeypatch):
    # if a map fails to keep rank-one images rank one the induced map must
    # refuse rather than pick an arbitrary direction
    spec = PreserverSpec.congruence(random_semilinear(2, 6))
    from psdcone.linalg import PsdOperator

    monkeypatch.setattr(
        "psdcone.preserver.apply_map",
        lambda s, a: PsdOperator.from_matrix(Matrix.exact([[1, 0], [0, 1]])),
    )
    lm = induced_line_map(spec)
    with pytest.raises(LineMapError):
        lm(unit_line(2, 0))


def test_spectral_line_map_ranks_the_image_by_its_own_spectrum(monkeypatch):
    # a float image is ranked by its spectrum, not by its operand's certified
    # rank: a form_iv map whose images gain a full-rank term must refuse
    import numpy as np

    from psdcone import preserver

    spec = PreserverSpec.form_iv(random_semilinear(3, 6), WeightFamily.seeded(2))
    lift = preserver._map_stack
    monkeypatch.setattr(
        preserver, "_map_stack", lambda sp, x, ranks: lift(sp, x, ranks) + 1e-3 * np.eye(3)
    )
    with pytest.raises(LineMapError, match="different rank"):
        induced_line_map(spec)(unit_line(3, 0))
