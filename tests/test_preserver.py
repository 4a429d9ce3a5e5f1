"""Cone maps: application semantics and the sampled preservation verifiers."""

import hashlib
import warnings
from dataclasses import fields

import numpy as np
import pytest

import naive_oracles
from naive_oracles import (
    per_operand_image,
    per_operand_weight,
    per_trial_dim2_conditions,
    per_trial_range_form,
    per_trial_relation_preservation,
)
from psdcone import preserver
from psdcone.errors import BackendError, DimensionMismatchError
from psdcone.generators import derive_seed, random_psd, random_semilinear, rank_one
from psdcone.linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    PsdOperator,
    SemilinearOperator,
    column_space,
)
from psdcone.preserver import (
    PreserverSpec,
    WeightFamily,
    _apply_wild,
    _map_stack,
    apply_map,
    dim2_conditions,
    make_wild_map,
    verify_range_form,
    verify_relation_preservation,
)
from psdcone.projective import induced_line_map, verify_projectivity


def _transported(t, u):
    """T(u) as the span of T U (T conj(U) for the conjugate flavor)."""
    return column_space(t.t @ (u.basis.conj() if t.is_conjugate else u.basis))


def test_congruence_preserves_rank_and_range():
    t = random_semilinear(3, 5)
    spec = PreserverSpec.congruence(t)
    a = random_psd(3, 2, seed=11)
    img = apply_map(spec, a)
    assert img.backend == EXACT
    assert img.rank == 2
    assert img.range().equals(_transported(t, a.range()))


def test_conjugate_congruence():
    t = random_semilinear(3, 6, flavor="conjugate")
    a = random_psd(3, 2, seed=12)
    img = apply_map(PreserverSpec.congruence(t), a)
    assert img.rank == 2
    assert img.range().equals(_transported(t, a.range()))
    # hand check on a 1x1-style example: conj of i-heavy entries
    m = PsdOperator.from_matrix(Matrix.exact([[2, (0, 1)], [(0, -1), 2]]))
    eye = PreserverSpec.congruence(
        random_semilinear(2, 1, flavor="conjugate")
    )
    assert apply_map(eye, m).rank == m.rank


def test_form_iv_requires_float(monkeypatch):
    t = random_semilinear(2, 3)
    spec = PreserverSpec.form_iv(t, WeightFamily.seeded(1))
    with pytest.raises(BackendError):
        apply_map(spec, random_psd(2, 1, seed=4))

    # an exact operand the map cannot image is refused before any part runs
    def must_not_run(op, a):
        raise AssertionError("a part ran before the operand was refused")

    monkeypatch.setattr(preserver, "_apply_congruence", must_not_run)
    for bad in (
        PreserverSpec.composite([PreserverSpec.congruence(t), spec]),
        PreserverSpec.congruence(t.to_float()),
    ):
        with pytest.raises(BackendError, match="need the float backend"):
            apply_map(bad, random_psd(2, 2, seed=4))


def test_form_iv_preserves_rank_and_range():
    t = random_semilinear(3, 42)
    spec = PreserverSpec.form_iv(t, WeightFamily.seeded(99))
    a = random_psd(3, 2, seed=11).to_float()
    img = apply_map(spec, a)
    assert img.backend == FLOAT and img.rank == 2
    assert img.range().equals(_transported(t.to_float(), a.range()), 1e-8)
    # the float twin of T is converted and checked once, then reused
    twin = t.to_float()
    assert twin is t.to_float() and twin.to_float() is twin
    assert twin.t == t.t.to_float() and twin.flavor == t.flavor


def test_weight_family_keyed_on_input():
    wf = WeightFamily.seeded(7)
    a = random_psd(3, 2, seed=1).to_float().matrix.array
    b = random_psd(3, 2, seed=2).to_float().matrix.array
    za1, za2, zb = wf.z_for(np.stack([a, a, b]))
    assert np.array_equal(za1, za2)
    assert not np.array_equal(za1, zb)
    # a row's weight does not depend on the rows stacked with it
    assert np.array_equal(wf.z_for(b[None])[0], zb)
    # invertible positive: smallest eigenvalue at least 1 by construction
    assert np.linalg.eigvalsh(za1)[0] >= 1.0 - 1e-9


def test_weight_family_draws_its_normals_as_two_matrices():
    # one (2, n, n) draw reads the stream that two (n, n) draws read, keyed
    # by the first 8 bytes of sha256(b"float|<n>|" + the operand's bytes)
    a = random_psd(4, 3, seed=8).to_float().matrix.array
    digest = hashlib.sha256(b"float|4|" + (a + 0.0).tobytes()).digest()  # -0.0 read as 0.0
    rng = np.random.default_rng((11, int.from_bytes(digest[:8], "big")))
    g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    z = g @ g.conj().T + np.eye(4)
    assert np.array_equal(WeightFamily.seeded(11).z_for(a[None])[0], (z + z.conj().T) / 2.0)


def test_weight_family_ignores_signed_zeros():
    # equal operators must get equal weights, or form_iv is not a function of A
    plus = PsdOperator.from_matrix(Matrix.from_float([[2.0, 0.0], [0.0, 1.0]]))
    minus = PsdOperator.certified(Matrix.from_float([[2.0, -0.0], [complex(-0.0, -0.0), 1.0]]), 2)
    assert np.signbit(minus.matrix.array.real).any() and np.signbit(minus.matrix.array.imag).any()
    assert plus == minus
    wf = WeightFamily.seeded(7)
    z_plus, z_minus = wf.z_for(np.stack([plus.matrix.array, minus.matrix.array]))
    assert z_plus.tobytes() == z_minus.tobytes()
    spec = PreserverSpec.form_iv(random_semilinear(2, 3), wf)
    assert apply_map(spec, plus) == apply_map(spec, minus)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_stacked_weights_are_bit_identical_to_the_per_operand_reference(dim):
    operands = [
        random_psd(dim, rank, derive_seed(81, dim, rank, k)).to_float().matrix.array
        for rank in range(dim + 1)
        for k in range(2)
    ]
    twin = operands[-1].copy()
    twin.imag[np.diag_indices(dim)] = -0.0  # a Hermitian diagonal is real
    assert np.signbit(twin.imag).any() and np.array_equal(twin, operands[-1])
    stack = np.stack(operands + [twin])
    for seed in (0, 9):
        weights = WeightFamily.seeded(seed).z_for(stack)
        assert weights.shape == stack.shape
        for x, z in zip(stack, weights):
            assert z.tobytes() == per_operand_weight(seed, x).tobytes()
        assert weights[-1].tobytes() == weights[-2].tobytes()


def test_weight_family_rejects_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        WeightFamily.seeded(-3)


def test_wild_frozen_example():
    # V = I with inversion sends diag(1,2) to diag(1, 1/2) and fixes
    # anything singular
    d12 = PsdOperator.from_matrix(Matrix.exact([[1, 0], [0, 2]]))
    img = _apply_wild(d12, Matrix.identity(2, EXACT), -1)
    assert img.matrix == Matrix.exact([[1, 0], [0, ("1/2", 0)]])
    d10 = PsdOperator.from_matrix(Matrix.exact([[1, 0], [0, 0]]))
    assert _apply_wild(d10, Matrix.identity(2, EXACT), -1) is d10


def test_wild_map_fixes_non_invertibles_and_moves_invertibles():
    spec = make_wild_map(7, 3)
    v, exponent = spec.wild_data
    assert exponent in (1, -1)
    moved = 0
    for k in range(40):
        a = random_psd(3, 3, derive_seed(70, k))
        img = apply_map(spec, a)
        assert img.rank == 3
        if img.matrix != a.matrix:
            moved += 1
    assert moved >= 36  # acts freely on nearly every invertible input
    low = random_psd(3, 2, seed=3)
    assert apply_map(spec, low) is low


def test_a_wild_map_draws_its_v_once(monkeypatch):
    # V and the exponent are derived when the spec is built, not per operand
    # or per block of float images
    drawn = []

    def counting(*args, **kwargs):
        drawn.append(args)
        return random_semilinear(*args, **kwargs)

    monkeypatch.setattr(preserver, "random_semilinear", counting)
    wild = make_wild_map(7, 3)
    form_iv = PreserverSpec.form_iv(random_semilinear(3, 2), WeightFamily.seeded(1))
    spectral = PreserverSpec.composite([wild, form_iv])
    assert len(drawn) == 1
    assert verify_relation_preservation(wild, trials=20, seed=1).passed
    assert verify_relation_preservation(spectral, trials=20, seed=1).passed
    assert len(drawn) == 1


def test_wild_map_float_backend():
    spec = make_wild_map(5, 2)
    a = random_psd(2, 2, seed=9).to_float()
    img = apply_map(spec, a)
    assert img.backend == FLOAT and img.rank == 2


def test_composite_applies_in_order():
    t = random_semilinear(2, 21)
    c = PreserverSpec.congruence(t)
    w = make_wild_map(4, 2)
    comp = PreserverSpec.composite([c, w])
    a = random_psd(2, 2, seed=13)
    assert apply_map(comp, a).matrix == apply_map(w, apply_map(c, a)).matrix


def _nest(spec, depth):
    for _ in range(depth):
        spec = PreserverSpec.composite([spec])
    return spec


@pytest.mark.parametrize("kind", ["wild", "form_iv"])
def test_a_composite_nested_300_deep_maps_as_its_flat_form(kind):
    # nested parts used to be kept, and 300 levels ended apply_map and both
    # verifiers in a RecursionError
    if kind == "wild":
        part = make_wild_map(1, 2)
    else:
        part = PreserverSpec.form_iv(random_semilinear(2, 9), WeightFamily.seeded(3))
    deep, flat = _nest(part, 300), PreserverSpec.composite([part])
    assert deep.parts == (part,)
    for rank in range(3):
        a = flat.operand(random_psd(2, rank, seed=13))
        assert apply_map(deep, a).matrix == apply_map(flat, a).matrix
    assert verify_relation_preservation(deep, 20, 1) == verify_relation_preservation(flat, 20, 1)
    assert verify_range_form(deep, 6, 1) == verify_range_form(flat, 6, 1)


def test_nested_composites_splice_their_parts_in_order():
    c1, c2, c3 = (
        PreserverSpec.congruence(random_semilinear(3, 90 + k, flavor))
        for k, flavor in enumerate(("linear", "conjugate", "linear"))
    )
    wild = make_wild_map(7, 3)
    inner = PreserverSpec.composite([wild, c2])
    nested = PreserverSpec.composite([PreserverSpec.composite([c1, inner]), c3])
    flat = PreserverSpec.composite([c1, wild, c2, c3])
    assert nested.parts == flat.parts == (c1, wild, c2, c3)
    assert PreserverSpec("composite", 3, parts=(inner, c3)).parts == (wild, c2, c3)
    t, s = nested.inducing_operator, flat.inducing_operator
    assert t.t == s.t and t.flavor == s.flavor
    for rank in range(4):
        a = random_psd(3, rank, seed=rank)
        assert apply_map(nested, a).matrix == apply_map(flat, a).matrix


_T2 = random_semilinear(2, 3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PreserverSpec("identity", 2), ValueError, "unknown map kind 'identity'"),
        (lambda: PreserverSpec("wild", 0, wild_seed=1), ValueError, "dimension must be positive"),
        (lambda: PreserverSpec("congruence", 2), ValueError, "congruence needs an operator"),
        (
            lambda: PreserverSpec("form_iv", 3, operator=_T2, weights=WeightFamily.seeded(1)),
            DimensionMismatchError,
            "operator size differs from map dimension",
        ),
        (lambda: PreserverSpec("form_iv", 2, operator=_T2), ValueError, "needs a weight family"),
        (lambda: PreserverSpec("wild", 2), ValueError, "wild needs a seed"),
        (lambda: PreserverSpec("composite", 2), ValueError, "non-empty tuple of parts"),
        (
            lambda: PreserverSpec("composite", 2, parts=[make_wild_map(1, 2)]),
            ValueError,
            "non-empty tuple of parts",
        ),
        (
            lambda: PreserverSpec.composite([make_wild_map(1, 2), make_wild_map(1, 3)]),
            DimensionMismatchError,
            "composite parts disagree on dimension",
        ),
        (lambda: PreserverSpec.composite([]), ValueError, "composite needs at least one part"),
        (lambda: PreserverSpec.congruence(_T2).wild_data, ValueError, "not a wild map"),
    ],
    ids=[
        "unknown-kind", "dimension-0", "no-operator", "operator-size", "no-weights", "no-seed",
        "no-parts", "parts-list", "parts-dimensions", "composite-of-none", "wild-data-of-congruence",
    ],
)
def test_malformed_map_specs_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_relation_preservation_reports():
    t = random_semilinear(3, 5)
    rep = verify_relation_preservation(PreserverSpec.congruence(t), trials=50, seed=4)
    assert rep.passed and rep.image_backend == EXACT and rep.trials == 50

    spec4 = PreserverSpec.form_iv(t, WeightFamily.seeded(2))
    rep4 = verify_relation_preservation(spec4, trials=30, seed=5)
    assert rep4.passed and rep4.image_backend == FLOAT

    wild = verify_relation_preservation(make_wild_map(8, 3), trials=50, seed=6)
    assert wild.passed


def test_preservation_catches_a_relation_breaking_map(monkeypatch):
    # zeroing the off-diagonal entries keeps operators PSD but scrambles
    # their ranges (ones(2) is singular against diag(1,0); their diagonals
    # are not), so the verifier must report violations
    spec = PreserverSpec.congruence(random_semilinear(2, 77))

    def squash(_spec, a):
        diag = [
            [a.matrix.entry(i, i) if i == j else 0 for j in range(a.dim)]
            for i in range(a.dim)
        ]
        return PsdOperator.from_matrix(Matrix.exact(diag))

    monkeypatch.setattr("psdcone.preserver.apply_map", squash)
    rep = verify_relation_preservation(spec, trials=60, seed=3)
    assert not rep.passed
    assert {"trial", "relation", "input", "image"} <= set(rep.violations[0])


def test_range_form_covers_every_rank():
    t = random_semilinear(3, 8)
    rep = verify_range_form(PreserverSpec.congruence(t), trials=12, seed=8)
    assert rep.passed
    assert rep.samples >= 4  # at least one sample for each rank 0..3


def test_range_form_reads_the_float_image_not_s(monkeypatch):
    # a rank-one weight keeps S = T A T* but collapses the image root·Z·root
    # to rank at most one, so the images of rank 2 and 3 lose directions
    # (rank 1 ones keep their range); ran S is T(ran A) whatever the weight,
    # so only a verifier that reads each image's own range and rank sees it
    t = random_semilinear(3, 8)
    spec = PreserverSpec.form_iv(t, WeightFamily.seeded(5))
    assert verify_range_form(spec, trials=12, seed=8).passed
    collapsed = np.diag([1.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(WeightFamily, "z_for", lambda self, x: np.broadcast_to(collapsed, x.shape))
    rep = verify_range_form(spec, trials=12, seed=8)
    assert {v["rank"] for v in rep.violations} == {2, 3}


def _congruence(dim):
    return PreserverSpec.congruence(random_semilinear(dim, 13))


_VERIFIERS = {
    "relation_preservation": lambda n: verify_relation_preservation(_congruence(3), trials=n),
    "range_form": lambda n: verify_range_form(_congruence(3), trials=n),
    "dim2_conditions": lambda n: dim2_conditions(_congruence(2), trials=n),
    "projectivity": lambda n: verify_projectivity(induced_line_map(_congruence(3)), trials=n),
}


@pytest.mark.parametrize(
    "verifier, trials",
    [("relation_preservation", 0), ("relation_preservation", -5), ("dim2_conditions", 0)]
    + [(name, n) for name in ("range_form", "dim2_conditions", "projectivity") for n in (-1, -5)],
)
def test_verifiers_refuse_trial_counts_that_check_nothing(verifier, trials):
    with pytest.raises(ValueError, match="trials must be"):
        _VERIFIERS[verifier](trials)


def test_dim2_conditions_positive_and_errors():
    ok = dim2_conditions(PreserverSpec.congruence(random_semilinear(2, 13)), trials=30, seed=1)
    assert ok.passed and ok.first_failure is None
    wild_ok = dim2_conditions(make_wild_map(3, 2), trials=30, seed=2)
    assert wild_ok.passed
    with pytest.raises(DimensionMismatchError):
        dim2_conditions(PreserverSpec.congruence(random_semilinear(3, 1)))


def test_reports_serialise_every_field_and_the_verdict():
    spec = PreserverSpec.congruence(random_semilinear(2, 13))
    reports = (
        verify_relation_preservation(spec, trials=4, seed=1),
        verify_range_form(spec, trials=4, seed=1),
        dim2_conditions(spec, trials=4, seed=1),
    )
    for rep in reports:
        d = rep.to_dict()
        assert set(d) == {f.name for f in fields(rep)} | {"passed"}
        assert d["passed"] is rep.passed is True
        assert not any(isinstance(v, tuple) for v in d.values())


def test_apply_map_dimension_check():
    spec = PreserverSpec.congruence(random_semilinear(3, 2))
    with pytest.raises(DimensionMismatchError):
        apply_map(spec, random_psd(2, 1, seed=1))


@pytest.mark.parametrize("kind", ["congruence", "form_iv", "wild", "composite"])
def test_an_overflowing_float_image_raises_backend_error(kind):
    # the operand is finite and PSD, but its image leaves the double range;
    # it used to be caught only by a re-check of every product, as a ValueError
    t = random_semilinear(3, 5)
    specs = {
        "congruence": PreserverSpec.congruence(t),
        "form_iv": PreserverSpec.form_iv(t, WeightFamily.seeded(1)),
        "wild": make_wild_map(4, 3),
    }
    specs["composite"] = PreserverSpec.composite([make_wild_map(4, 3), specs["congruence"]])
    a = PsdOperator.from_matrix(Matrix.from_float(5e307 * np.eye(3)), DEFAULT_TOL)
    assert a.rank == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BackendError, match="overflows the double range"):
            apply_map(specs[kind], a)


def _float_image_specs(dim):
    """Maps whose images are float: a float congruence, form_iv in both
    flavors, composites with a form_iv part, and wild maps acting on float
    images; maps with exact images in the verifiers, whose trials are decided
    on the same path: a plain wild map, exact congruences in both flavors,
    and a congruence followed by a wild map."""
    lin = random_semilinear(dim, derive_seed(61, dim))
    conj = random_semilinear(dim, derive_seed(62, dim), flavor="conjugate")
    form_lin = PreserverSpec.form_iv(lin, WeightFamily.seeded(derive_seed(63, dim)))
    form_conj = PreserverSpec.form_iv(conj, WeightFamily.seeded(derive_seed(64, dim)))
    wild = make_wild_map(derive_seed(65, dim), dim)
    return {
        "float_congruence": PreserverSpec.congruence(conj.to_float()),
        "form_iv_linear": form_lin,
        "form_iv_conjugate": form_conj,
        "wild": wild,
        "wild_then_form_iv": PreserverSpec.composite([wild, form_conj]),
        "form_iv_congruence_wild": PreserverSpec.composite(
            [form_lin, PreserverSpec.congruence(conj), make_wild_map(derive_seed(66, dim), dim)]
        ),
        "exact_congruence_linear": PreserverSpec.congruence(lin),
        "exact_congruence_conjugate": PreserverSpec.congruence(conj),
        "congruence_then_wild": PreserverSpec.composite([PreserverSpec.congruence(lin), wild]),
    }


def _failing_as_the_reference_reports(specs, dim, pair_counts, sample_counts):
    """The names of ``specs`` that fail a verifier, each report first shown
    equal to the per-trial reference's."""
    failed = set()
    for name, spec in specs.items():
        for trials in pair_counts:
            got = verify_relation_preservation(spec, trials=trials, seed=dim, tol=1e-8)
            assert got.to_dict() == per_trial_relation_preservation(spec, trials, dim, 1e-8), (
                name,
                trials,
            )
            if not got.passed:
                failed.add(name)
        for trials in sample_counts:
            got = verify_range_form(spec, trials=trials, seed=dim, tol=1e-8)
            assert got.to_dict() == per_trial_range_form(spec, trials, dim, 1e-8), (name, trials)
            if not got.passed:
                failed.add(name)
    return failed


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_block_verifiers_report_what_the_per_trial_reference_reports(monkeypatch, dim):
    # a block of 3 puts 1, a full block and a block plus one in reach of
    # small trial counts; the next test runs the package's own block size
    monkeypatch.setattr(preserver, "_MAP_BLOCK", 3)
    specs = _float_image_specs(dim)
    for spec in specs.values():
        with pytest.raises(ValueError):
            verify_relation_preservation(spec, trials=0, seed=dim, tol=1e-8)
    sample_counts = (0, 3 * (dim + 1), 4 * (dim + 1))
    assert not _failing_as_the_reference_reports(specs, dim, (1, 3, 4), sample_counts)
    # failing reports are compared too: the diagonal squash breaks every map
    # with a congruence or float part, which leaves only the plain wild map
    _squash_to_diagonal(monkeypatch)
    failed = _failing_as_the_reference_reports(specs, dim, (4,), (3 * (dim + 1),))
    assert failed == set(specs) - {"wild"}


def test_block_verifiers_match_the_reference_across_a_full_block():
    spec = _float_image_specs(3)["form_iv_conjugate"]
    trials = preserver._MAP_BLOCK + 1
    got = verify_relation_preservation(spec, trials=trials, seed=4, tol=1e-8)
    assert got.passed and got.trials == trials
    assert got.to_dict() == per_trial_relation_preservation(spec, trials, 4, 1e-8)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_float_images_are_bit_identical_to_the_per_operand_reference(dim):
    operands = [
        random_psd(dim, rank, derive_seed(67, dim, rank, k)).to_float()
        for rank in range(dim + 1)
        for k in range(3)
    ]
    ranks = np.array([a.rank for a in operands])
    stack = np.stack([a.matrix.array for a in operands])
    specs = _float_image_specs(dim)
    specs.update({f"wild_{s}": make_wild_map(s, dim) for s in range(4)})
    for name, spec in specs.items():
        stacked = _map_stack(spec, stack, ranks)
        for a, row in zip(operands, stacked):
            want, rank = per_operand_image(spec, a)
            image = apply_map(spec, a)
            assert image.backend == FLOAT and image.rank == a.rank == rank, name
            assert image.matrix.array.tobytes() == want.tobytes(), name
            assert row.tobytes() == want.tobytes(), name


def _overflowing_congruence():
    """c·I on float operands, with c² between the overflow thresholds of the
    operands that ``_sampled_pair(3, 1, k)`` draws: trial 8 holds an entry of
    41, trials 0-7 none above 31, and hermitizing doubles the diagonal."""
    return PreserverSpec.congruence(SemilinearOperator(Matrix.from_float(np.sqrt(2.5e306) * np.eye(3))))


def test_an_image_overflowing_in_the_middle_of_a_block_raises_backend_error():
    spec = _overflowing_congruence()
    assert verify_relation_preservation(spec, trials=8, seed=1).passed
    for verify in (verify_relation_preservation, per_trial_relation_preservation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BackendError, match="the map's image overflows the double range"):
                verify(spec, 10, 1, DEFAULT_TOL)


def _dim2_specs():
    lin = random_semilinear(2, 71)
    conj = random_semilinear(2, 72, flavor="conjugate")
    wild = make_wild_map(73, 2)
    return {
        "exact_congruence": PreserverSpec.congruence(lin),
        "float_conjugate_congruence": PreserverSpec.congruence(conj.to_float()),
        "form_iv": PreserverSpec.form_iv(conj, WeightFamily.seeded(74)),
        "wild": wild,
        "congruence_then_wild": PreserverSpec.composite([PreserverSpec.congruence(conj), wild]),
        "wild_then_form_iv": PreserverSpec.composite(
            [wild, PreserverSpec.form_iv(lin, WeightFamily.seeded(75))]
        ),
    }


def _squash_to_diagonal(monkeypatch):
    """Make every congruence and float image the diagonal of the true one:
    still PSD, but with its range scrambled.  The reference's own float
    images (``naive_oracles.per_operand_image``) are squashed alike."""
    exact, stack, reference = (
        preserver._apply_congruence,
        preserver._map_stack,
        naive_oracles.per_operand_image,
    )

    def diagonal(y):
        return np.einsum("...ii->...i", y)[..., None] * np.eye(y.shape[-1])

    def exact_diagonal(op, a):
        m = exact(op, a).matrix
        diag = [[m.entry(i, j) if i == j else 0 for j in range(m.cols)] for i in range(m.rows)]
        return PsdOperator.from_matrix(Matrix.exact(diag))

    def float_diagonal(spec, x, ranks):
        return diagonal(stack(spec, x, ranks))

    def reference_diagonal(spec, a):
        x, rank = reference(spec, a)
        return diagonal(x), rank

    monkeypatch.setattr(preserver, "_apply_congruence", exact_diagonal)
    monkeypatch.setattr(preserver, "_map_stack", float_diagonal)
    monkeypatch.setattr(naive_oracles, "per_operand_image", reference_diagonal)


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("block", [3, None])
def test_dim2_conditions_report_what_the_per_trial_reference_reports(monkeypatch, block, broken):
    # a block of 3 puts 1, a full block, a block plus one and several blocks
    # in reach of small trial counts; ``None`` runs the package's block size
    if block:
        monkeypatch.setattr(preserver, "_MAP_BLOCK", block)
    if broken:
        _squash_to_diagonal(monkeypatch)
    failures = set()
    for name, spec in _dim2_specs().items():
        for trials in (1, 3, 4, 7) if block else (7, 40):
            for seed in (0, 5):
                got = dim2_conditions(spec, trials=trials, seed=seed, tol=1e-8).to_dict()
                assert got == per_trial_dim2_conditions(spec, trials, seed, 1e-8), (name, trials)
                failures.update(k for k, v in got.items() if v is False)
    # the broken images fail criteria, so the comparison covers failure branches
    assert failures >= ({"invertibility_preserved", "line_map_well_defined"} if broken else set())
    assert broken or not failures


def test_dim2_conditions_match_the_reference_across_a_full_block():
    spec = _dim2_specs()["form_iv"]
    trials = preserver._MAP_BLOCK + 1
    got = dim2_conditions(spec, trials=trials, seed=4)
    assert got.passed and got.trials == trials
    assert got.to_dict() == per_trial_dim2_conditions(spec, trials, 4, DEFAULT_TOL)


def test_dim2_conditions_read_the_image_of_zero_itself(monkeypatch):
    # apply_map keeps the certified rank of its operand, so the image of 0
    # still has rank 0; only its matrix shows that 0 moved.  Every map sends
    # 0 to exactly 0, so even 1e-12·I, below any float tolerance, is a move.
    # The sampled images are ranked by their own spectra, so the shift shows
    # again where a sampled 0 maps to the invertible shift·I
    stack = preserver._map_stack
    spec = PreserverSpec.congruence(random_semilinear(2, 13).to_float())
    for shift in (1e-3, 1e-12):
        def moved(spec, x, ranks, shift=shift):
            return stack(spec, x, ranks) + shift * np.eye(2)

        monkeypatch.setattr(preserver, "_map_stack", moved)
        rep = dim2_conditions(spec, trials=20, seed=1)
        assert rep.first_failure == "zero_fixed" and not rep.zero_fixed, shift
        assert not rep.invertibility_preserved, shift
        assert rep.to_dict() == per_trial_dim2_conditions(spec, 20, 1, DEFAULT_TOL)


def test_dim2_conditions_fail_on_diagonal_images(monkeypatch):
    # diag(|f1|², |f2|²) is invertible although f f* is not
    _squash_to_diagonal(monkeypatch)
    spec = PreserverSpec.congruence(random_semilinear(2, 13))
    rep = dim2_conditions(spec, trials=20, seed=1)
    assert rep.zero_fixed and rep.line_map_injective
    assert not rep.invertibility_preserved and not rep.line_map_well_defined
    assert rep.first_failure == "invertibility_preserved"
    assert rep.to_dict() == per_trial_dim2_conditions(spec, 20, 1, DEFAULT_TOL)


def test_dim2_conditions_fail_when_every_line_lands_on_one(monkeypatch):
    exact = preserver._apply_congruence
    e1 = rank_one(Matrix.exact([[1], [0]]))
    monkeypatch.setattr(
        preserver, "_apply_congruence", lambda op, a: e1 if a.rank == 1 else exact(op, a)
    )
    spec = PreserverSpec.congruence(random_semilinear(2, 13))
    rep = dim2_conditions(spec, trials=20, seed=1)
    assert rep.zero_fixed and rep.invertibility_preserved and rep.line_map_well_defined
    assert rep.first_failure == "line_map_injective" and not rep.line_map_injective
    assert rep.to_dict() == per_trial_dim2_conditions(spec, 20, 1, DEFAULT_TOL)


def test_dim2_conditions_map_no_block_past_their_first_failures(monkeypatch):
    # trials are drawn and mapped a block at a time, so a failure in the
    # first block ends the work whatever the trial count
    monkeypatch.setattr(preserver, "_MAP_BLOCK", 3)
    _squash_to_diagonal(monkeypatch)
    drawn = []
    draw = preserver.random_psd
    monkeypatch.setattr(preserver, "random_psd", lambda *args: drawn.append(args) or draw(*args))
    rep = dim2_conditions(PreserverSpec.congruence(random_semilinear(2, 13)), trials=10**5, seed=1)
    assert rep.first_failure == "invertibility_preserved" and not rep.line_map_well_defined
    assert 0 < len(drawn) <= 3


def test_dim2_conditions_judge_injectivity_only_before_a_well_definedness_failure(monkeypatch):
    # rank-one images land on [e1] or [e2] by the trace of the operand, so
    # scaling f can move its image (not well defined) and most pairs of
    # lines share an image (not injective); after the first well-definedness
    # failure no further trial is read
    exact = preserver._apply_congruence
    lines = [rank_one(Matrix.exact([[1], [0]])), rank_one(Matrix.exact([[0], [1]]))]

    def by_trace(op, a):
        if a.rank != 1:
            return exact(op, a)
        return lines[(a.matrix.entry(0, 0) + a.matrix.entry(1, 1)).re > 20]

    monkeypatch.setattr(preserver, "_apply_congruence", by_trace)
    spec = PreserverSpec.congruence(random_semilinear(2, 13))
    for seed in range(4):
        rep = dim2_conditions(spec, trials=20, seed=seed)
        assert rep.first_failure == "line_map_well_defined" and rep.line_map_injective
        assert rep.to_dict() == per_trial_dim2_conditions(spec, 20, seed, DEFAULT_TOL)


def test_a_composite_is_induced_by_its_parts_operators_in_order():
    t1 = random_semilinear(3, 81)
    t2 = random_semilinear(3, 82, flavor="conjugate")
    spec = PreserverSpec.composite([PreserverSpec.congruence(t1), PreserverSpec.congruence(t2)])
    t = spec.inducing_operator
    # x ↦ T2 conj(T1 x) = T2 conj(T1) conj(x)
    assert t.t == t2.t @ t1.t.conj() and t.is_conjugate
    assert spec.inducing_operator is t
    assert verify_range_form(spec, trials=12, seed=3).passed


def test_a_wild_part_contributes_the_identity():
    wild = make_wild_map(5, 3)
    assert wild.inducing_operator.t == Matrix.identity(3, EXACT)
    assert not wild.inducing_operator.is_conjugate
    t = random_semilinear(3, 83, flavor="conjugate")
    assert PreserverSpec.form_iv(t, WeightFamily.seeded(1)).inducing_operator is t
    spec = PreserverSpec.composite([wild, PreserverSpec.congruence(t), make_wild_map(6, 3)])
    assert spec.inducing_operator.t == t.t and spec.inducing_operator.is_conjugate
    assert verify_range_form(spec, trials=12, seed=2).passed
