"""Decomposition of one PSD operator against another."""

import numpy as np
import pytest

from psdcone.errors import BackendError, DimensionMismatchError
from psdcone.generators import (
    derive_seed, random_pair_with_relation, random_psd, random_semilinear
)
from psdcone.lebesgue import (
    LebesgueDecomposition,
    _shorted,
    decompose,
    verify_decomposition,
)
from psdcone.linalg import DEFAULT_TOL, Matrix, PsdOperator, psd_sqrt, subspace_preimage
from psdcone.preserver import PreserverSpec, WeightFamily, apply_map
from psdcone.relations import analyze_pair, relation_triple

from naive_oracles import per_trial_decomposition_check


def _fop(rows):
    return PsdOperator.from_matrix(Matrix.from_float(rows))


def test_frozen_purely_singular_split():
    # ran(ones) is the diagonal, ran(diag(1,0)) the first axis: they meet at 0,
    # so nothing of ones can be dominated; the a.c. domain is the
    # antidiagonal ker a, one-dimensional, so the singular part has rank 1
    a = _fop([[1.0, 1.0], [1.0, 1.0]])
    b = _fop([[1.0, 0.0], [0.0, 0.0]])
    dec = decompose(a, b)
    assert dec.ac_part.rank == 0
    assert dec.singular_part.rank == 1
    assert np.allclose(dec.singular_part.matrix.array, a.matrix.array, rtol=0, atol=1e-12)


def test_frozen_invertible_base_absorbs_everything():
    a = _fop([[1.0, 1.0], [1.0, 1.0]])
    dec = decompose(a, _fop([[1.0, 0.0], [0.0, 1.0]]))
    assert dec.singular_part.rank == 0
    assert np.allclose(dec.ac_part.matrix.array, a.matrix.array)


def test_frozen_orthogonal_ranges():
    a = _fop([[1.0, 0.0], [0.0, 0.0]])
    b = _fop([[0.0, 0.0], [0.0, 1.0]])
    dec = decompose(a, b)
    assert dec.ac_part.rank == 0
    assert np.allclose(dec.singular_part.matrix.array, a.matrix.array)


def test_frozen_mixed_split():
    # a = diag(1, 0, 1) against b = diag(1, 1, 0): the first axis is dominated,
    # the third is singular
    a = _fop([[1.0, 0, 0], [0, 0, 0], [0, 0, 1.0]])
    b = _fop([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
    dec = decompose(a, b)
    assert np.allclose(dec.ac_part.matrix.array, np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(dec.singular_part.matrix.array, np.diag([0.0, 0.0, 1.0]))


def test_ac_domain_frozen_case():
    # the a.c. domain {x : a^{1/2} x ∈ ran b} of the purely singular pair is
    # the antidiagonal
    a = _fop([[1.0, 1.0], [1.0, 1.0]])
    b = _fop([[1.0, 0.0], [0.0, 0.0]])
    dom = subspace_preimage(psd_sqrt(a).matrix, b.range(), DEFAULT_TOL)
    assert dom.dim == 1
    v = dom.basis.array[:, 0]
    assert abs(v[0] + v[1]) < 1e-12


def test_invariants_on_generated_pairs():
    for k in range(18):
        dim = 2 + k % 3
        kind = ("ac", "singular", "incomparable")[k % 3]
        if kind == "incomparable" and dim < 3:
            kind = "ac"
        a, b = random_pair_with_relation(dim, kind, derive_seed(55, k))
        af, bf = a.to_float(), b.to_float()
        dec = decompose(af, bf)
        # the two parts add back to a
        total = (dec.ac_part.matrix + dec.singular_part.matrix).array
        want = af.matrix.array
        assert np.allclose(total, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))
        if dec.ac_part.rank:
            assert analyze_pair(dec.ac_part, bf).abs_cont_ab
        if dec.singular_part.rank:
            assert analyze_pair(dec.singular_part, bf).singular
        check = verify_decomposition(dec, af)
        assert check.passed, check.to_dict()


@pytest.mark.parametrize("seed, k", [(5, 3), (6, 6), (12, 9), (26, 3)])
def test_dominated_pair_with_a_large_a_has_no_singular_part(seed, k):
    # a << b with ‖a‖ ~ 1e3: S (I - P) S is rounding noise of ~1e-12, which
    # used to read as a negative eigenvalue or as a rank-one singular part
    a, b = random_pair_with_relation(4, "ac", derive_seed(seed, 16, 4, k))
    af, bf = a.to_float(), b.to_float()
    dec = decompose(af, bf)
    assert dec.singular_part.rank == 0
    assert dec.ac_part.rank == a.rank
    assert verify_decomposition(dec, af).passed


def _swapped_split():
    # swapping the parts of a genuine mixed split keeps the sum property but
    # breaks both one-sided conditions
    a = _fop([[1.0, 0, 0], [0, 0, 0], [0, 0, 1.0]])
    b = _fop([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
    good = decompose(a, b)
    return LebesgueDecomposition(
        ac_part=good.singular_part, singular_part=good.ac_part, base=b
    ), a


def _understated_split():
    # claiming nothing is dominated when the base is invertible fails
    # maximality: the shorted operator is all of a
    a = _fop([[2.0, 0.0], [0.0, 1.0]])
    b = _fop([[1.0, 0.0], [0.0, 1.0]])
    zero = PsdOperator.zero(2, "float")
    return LebesgueDecomposition(ac_part=zero, singular_part=a, base=b), a


def test_verify_flags_a_wrong_split():
    bad, a = _swapped_split()
    check = verify_decomposition(bad, a)
    assert not check.passed
    assert not check.ac_ok or not check.singular_ok
    # the a.c. part misses a's first axis, which the shorted operator holds
    assert check.maximality_violations == 1
    assert check.worst_excess == pytest.approx(1.0 - DEFAULT_TOL, rel=1e-12)


def test_verify_flags_understated_dominated_part():
    bad, a = _understated_split()
    check = verify_decomposition(bad, a)
    assert not check.passed
    assert check.maximality_violations == 1
    assert check.worst_excess == pytest.approx(2.0 - DEFAULT_TOL, rel=1e-12)


@pytest.mark.parametrize("delta, ok", [(3e-9, True), (3e-8, False)])
def test_sum_check_flips_at_its_cut(delta, ok):
    # unit scale, tol = 1e-8: parts overshooting a = I by δ·I pass at 0.3× the cut, not at 3×
    eye = _fop(np.eye(2))
    zero = PsdOperator.zero(2, "float")
    split = LebesgueDecomposition(_fop((1 + delta) * np.eye(2)), zero, eye)
    assert verify_decomposition(split, eye, tol=1e-8).sum_ok is ok


@pytest.mark.parametrize("over, violations", [(3e-13, 0), (3e-12, 1)])
def test_maximality_oracle_flips_at_its_slack(over, violations):
    # dimension 1 with an invertible base: the shorted operator is a = 1, so
    # an a.c. part 1 − ε understates it by ε − tol beyond the cushion; with
    # ‖a‖ = 1 that excess counts only past the slack of 1e-12
    tol = 1e-8
    eps = tol + over
    split = LebesgueDecomposition(_fop([[1.0 - eps]]), _fop([[eps]]), _fop([[1.0]]))
    check = verify_decomposition(split, _fop([[1.0]]), tol=tol)
    assert check.maximality_violations == violations


@pytest.mark.parametrize("factor, ok", [(0.3, True), (3.0, False)])
def test_ac_ok_flips_at_its_cut(factor, ok):
    # unit scale, tol = 1e-8: a rank-one a.c. part along (1, δ) leaves ran
    # diag(1, 0) at an angle whose sine is about δ; it passes at 0.3× the
    # angle tolerance, not at 3×, and neither is a maximality violation
    tol = 1e-8
    v = np.array([1.0, factor * tol])
    a = _fop(np.outer(v, v))
    split = LebesgueDecomposition(a, PsdOperator.zero(2, "float"), _fop(np.diag([1.0, 0.0])))
    check = verify_decomposition(split, a, tol=tol)
    assert a.rank == 1
    assert check.ac_ok is ok
    assert check.sum_ok and check.singular_ok and check.maximality_violations == 0


@pytest.mark.parametrize("delta, singular", [(1e-5, True), (1e-7, True), (3e-9, False)])
def test_ac_ok_is_an_angle_not_its_square(delta, singular):
    # a = v v* with v = (1, δ) leaves ran diag(1, 0) at the angle ≈ δ; past
    # tol = 1e-8 a ⊥ b, so calling all of a dominated must fail (its
    # squared angle δ² is still below tol), while the split decompose makes
    # passes either way
    a = _fop([[1.0, delta], [delta, delta**2]])
    b = _fop([[1.0, 0.0], [0.0, 0.0]])
    assert analyze_pair(a, b).singular is singular
    all_ac = verify_decomposition(LebesgueDecomposition(a, PsdOperator.zero(2, "float"), b), a)
    assert all_ac.ac_ok is not singular
    assert all_ac.passed is not singular
    dec = decompose(a, b)
    assert (dec.ac_part.rank, dec.singular_part.rank) == ((0, 1) if singular else (1, 0))
    assert verify_decomposition(dec, a).passed


def _made_pairs(salt):
    # suite-style pairs in both orders, from dims 2 to 6
    for dim in range(2, 7):
        for kind in ("ac", "singular", "incomparable"):
            if kind == "incomparable" and dim < 3:
                continue
            a, b = random_pair_with_relation(dim, kind, derive_seed(salt, dim))
            yield f"{kind}{dim}", a.to_float(), b.to_float()
            yield f"{kind}{dim}-swapped", b.to_float(), a.to_float()


def _norm(a):
    return float(np.abs(a.eigh()[0]).max())


def test_shorted_operator_is_the_split_a_c_part():
    # the check's shorted operator comes from a and ker b with no square root,
    # the split's a.c. part from a^{1/2} and a preimage SVD: on made splits
    # (dims 2–6 in both orders, and 10 and 12) they agree and the check
    # passes, also where a ≪ b makes W* a W pure rounding noise
    large = (
        (f"{kind}{dim}", *(op.to_float() for op in random_pair_with_relation(dim, kind, seed)))
        for seed, dim in enumerate((10, 12))
        for kind in ("ac", "singular", "incomparable")
    )
    for name, a, b in (*_made_pairs(90), *_made_pairs(91), *large):
        dec = decompose(a, b)
        scale = max(1.0, float(np.abs(a.matrix.array).max()))
        shorted = _shorted(a, b, _norm(a))
        assert np.abs(shorted - dec.ac_part.matrix.array).max() <= 1e-10 * scale, name
        assert verify_decomposition(dec, a).passed, name
    # a = 8·b of rank one: W* a W is zero but for rounding, and S is a
    b = _fop([[10.0, 7 + 9j], [7 - 9j, 13.0]])
    a = _fop(8 * b.matrix.array)
    assert np.abs(_shorted(a, b, _norm(a)) - a.matrix.array).max() <= 1e-12 * 104


def _perturbed_splits(dec, b, rng):
    # move t·X for a PSD X ≪ b of unit norm from the a.c. part to the singular
    # part, or a fraction t of the a.c. part itself, wherever both stay PSD
    ac, sing = dec.ac_part.matrix.array, dec.singular_part.matrix.array
    dim = b.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = b.range().projector().array
    x = p @ g @ g.conj().T @ p
    x /= np.abs(np.linalg.eigvalsh(x)).max()
    for t in (1e-10, 1e-7, 1e-4, 1e-2):
        for low, high in ((ac - t * x, sing + t * x), ((1 - t) * ac, sing + t * ac)):
            try:
                parts = [PsdOperator.from_matrix(Matrix.from_float(m)) for m in (low, high)]
            except ValueError:
                continue  # a part left the cone
            yield f"t={t:g}", LebesgueDecomposition(*parts, b)


def test_decided_check_fails_every_split_the_sampled_oracle_flags():
    # the sampled reference draws 200 contractions C ≤ a per split; each one
    # it finds above ac + tol·I lies below the shorted operator (up to its
    # range filter's tolerance), so the
    # decided check must fail that split too, and it must pass every made one
    rng = np.random.default_rng(derive_seed(92, 1))
    flagged = caught = 0
    for name, a, b in _made_pairs(92):
        made = decompose(a, b)
        splits = [("made", made)]
        if not name.endswith("swapped"):
            splits += list(_perturbed_splits(made, b, rng)) if b.rank else []
            splits += [
                ("understated", LebesgueDecomposition(PsdOperator.zero(a.dim, "float"), a, b)),
                ("swapped", LebesgueDecomposition(made.singular_part, made.ac_part, b)),
            ]
        for tag, split in splits:
            want = per_trial_decomposition_check(split, a, 200, 3, DEFAULT_TOL)
            got = verify_decomposition(split, a)
            if tag == "made":
                assert got.passed, (name, got)
            if not want["passed"]:
                flagged += 1
                assert not got.passed, (name, tag, want)
            if want["maximality_violations"]:
                caught += 1
                assert got.maximality_violations == 1, (name, tag, want)
    # the reference flagged splits, and found maximality violations among them
    assert flagged and caught


def test_verify_rejects_an_operand_of_another_dimension():
    # a 1×1 split is one numpy would broadcast against a 3×3 operand
    a = _fop(np.eye(3))
    for n in (4, 1):
        dec = decompose(_fop(np.eye(n)), _fop(np.eye(n)))
        with pytest.raises(DimensionMismatchError):
            verify_decomposition(dec, a)


def test_decompose_requires_float_backend():
    a = random_psd(2, 1, seed=3)
    b = random_psd(2, 2, seed=4)
    with pytest.raises(BackendError):
        decompose(a, b)


def test_decompose_refuses_an_exact_base():
    with pytest.raises(BackendError):
        decompose(random_psd(2, 1, seed=3).to_float(), random_psd(2, 2, seed=4))


def test_decompose_refuses_operands_of_different_sizes():
    with pytest.raises(DimensionMismatchError):
        decompose(_fop(np.eye(2)), _fop(np.eye(3)))


def test_verify_refuses_an_exact_operand():
    a = random_psd(2, 1, seed=3)
    dec = decompose(a.to_float(), a.to_float())
    with pytest.raises(BackendError):
        verify_decomposition(dec, a)


def test_one_square_root_per_split_and_per_check(monkeypatch):
    # decompose goes through a^{1/2} and the a.c. domain's preimage SVD once;
    # its check reads the shorted operator off a and ker b, so it takes
    # neither, for a made split and a hand-built one alike
    import psdcone.lebesgue as lebesgue

    seen = []
    sqrt, preimage = lebesgue.psd_sqrt, lebesgue.subspace_preimage
    monkeypatch.setattr(lebesgue, "psd_sqrt", lambda op: seen.append("psd_sqrt") or sqrt(op))
    monkeypatch.setattr(
        lebesgue, "subspace_preimage", lambda *args: seen.append("preimage") or preimage(*args)
    )
    a, b = (op.to_float() for op in random_pair_with_relation(3, "singular", seed=5))
    dec = decompose(a, b)
    assert seen == ["psd_sqrt", "preimage"]
    hand_built = LebesgueDecomposition(dec.ac_part, dec.singular_part, dec.base)
    for split in (dec, hand_built):
        for tol in (DEFAULT_TOL, 1e-6):
            assert verify_decomposition(split, a, tol=tol).passed
    assert seen == ["psd_sqrt", "preimage"]


def test_invariants_alone_take_no_root_and_no_svd(monkeypatch):
    # over an invertible base, as the suite checks it, the check takes neither
    # a^{1/2} nor any SVD, with the benchmark's trials=0 and without it
    import psdcone.lebesgue as lebesgue

    a = _fop([[2.0, 1.0], [1.0, 1.0]])
    eye = _fop(np.eye(2))
    splits = [decompose(a, eye), LebesgueDecomposition(a, PsdOperator.zero(2, "float"), eye)]
    seen = []
    sqrt, svd = lebesgue.psd_sqrt, np.linalg.svd
    monkeypatch.setattr(lebesgue, "psd_sqrt", lambda op: seen.append("psd_sqrt") or sqrt(op))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: seen.append("svd") or svd(*args, **kw))
    for split in splits:
        assert verify_decomposition(split, a, trials=0).passed
        assert verify_decomposition(split, a).passed
    assert seen == []


def test_the_benchmark_call_form_is_accepted_and_ignored():
    # the benchmark still passes the sampled oracle's trials and seed by
    # keyword; they change nothing in the decided report
    a, b = (op.to_float() for op in random_pair_with_relation(4, "incomparable", seed=6))
    dec = decompose(a, b, tol=1e-8)
    check = verify_decomposition(dec, a, trials=100, seed=3, tol=1e-8)
    assert check == verify_decomposition(dec, a, tol=1e-8)
    assert check.passed and check.maximality_violations == 0


def test_each_float_operand_is_eigendecomposed_once(monkeypatch):
    # the split, its check and the relation report all read one cached
    # eigendecomposition per operand, where they used to take 3 of a and 2 of b
    seen = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        seen.append(m)
        return eigh(m, *args, **kwargs)

    a, b = (op.to_float() for op in random_pair_with_relation(3, "ac", seed=4))
    monkeypatch.setattr(np.linalg, "eigh", counted)
    dec = decompose(a, b)
    assert verify_decomposition(dec, a).passed
    assert analyze_pair(a, b).min_domination_constant is not None
    assert [sum(m is op.matrix.array for m in seen) for op in (a, b)] == [1, 1]


#: matrices that one float-spectral operation on the dim-4 pair below passes to each
#: np.linalg routine: one per call, and no call the operation does not need
_LAPACK_CALLS = {"eigh": 9, "eigvalsh": 2, "svd": 7}


def test_one_float_spectral_operation_takes_no_more_lapack_calls(monkeypatch):
    # decompose, its check, two form_iv images, their relations and the pair's report
    a, b = (op.to_float() for op in random_pair_with_relation(4, "incomparable", seed=0))
    spec = PreserverSpec.form_iv(random_semilinear(4, 9, flavor="conjugate"), WeightFamily.seeded(2))
    calls = dict.fromkeys(_LAPACK_CALLS, 0)

    def counted(name, fn):
        def call(x, *args, **kwargs):
            calls[name] += int(np.prod(np.shape(x)[:-2]))
            return fn(x, *args, **kwargs)
        return call

    for name in _LAPACK_CALLS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    dec = decompose(a, b)
    assert verify_decomposition(dec, a).passed
    assert (dec.ac_part.rank, dec.singular_part.rank) == (2, 1)
    images = [apply_map(spec, op) for op in (a, b)]
    assert relation_triple(*images) == (False, False, False)
    analyze_pair(a, b)
    assert calls == _LAPACK_CALLS


def test_check_report_shape():
    a = _fop([[1.0, 0.0], [0.0, 1.0]])
    dec = decompose(a, a)
    check = verify_decomposition(dec, a)
    d = check.to_dict()
    assert d["passed"] is True
    assert set(d) == {
        "sum_ok", "ac_ok", "singular_ok", "maximality_violations", "worst_excess", "note", "passed"
    }
    assert d["maximality_violations"] == 0 and d["worst_excess"] == 0.0
