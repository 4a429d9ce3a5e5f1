"""Decomposition of one PSD operator against another."""

import numpy as np
import pytest

from psdcone.errors import BackendError, DimensionMismatchError
from psdcone.generators import derive_seed, random_pair_with_relation, random_psd
from psdcone.lebesgue import (
    _ORACLE_BLOCK,
    LebesgueDecomposition,
    _dominated,
    _dominated_residual,
    _gaps_certified,
    _root_and_domain,
    decompose,
    verify_decomposition,
)
from psdcone.linalg import DEFAULT_TOL, Matrix, PsdOperator, psd_sqrt
from psdcone.relations import analyze_pair

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
    dom = _root_and_domain(a, b, DEFAULT_TOL)[1]
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
        check = verify_decomposition(dec, af, trials=60, seed=k)
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
    assert verify_decomposition(dec, af, trials=30, seed=k).passed


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
    # claiming nothing is dominated when the base is invertible fails the
    # maximality sampling: plenty of dominated candidates exceed zero
    a = _fop([[2.0, 0.0], [0.0, 1.0]])
    b = _fop([[1.0, 0.0], [0.0, 1.0]])
    zero = PsdOperator.zero(2, "float")
    return LebesgueDecomposition(ac_part=zero, singular_part=a, base=b), a


def test_verify_flags_a_wrong_split():
    bad, a = _swapped_split()
    check = verify_decomposition(bad, a, trials=40, seed=0)
    assert not check.passed
    assert not check.ac_ok or not check.singular_ok


def test_verify_flags_understated_dominated_part():
    bad, a = _understated_split()
    check = verify_decomposition(bad, a, trials=80, seed=1)
    assert not check.passed
    assert check.maximality_violations and check.worst_excess > 0


@pytest.mark.parametrize("delta, ok", [(3e-9, True), (3e-8, False)])
def test_sum_check_flips_at_its_cut(delta, ok):
    # unit scale, tol = 1e-8: parts overshooting a = I by δ·I pass at 0.3× the cut, not at 3×
    eye = _fop(np.eye(2))
    zero = PsdOperator.zero(2, "float")
    split = LebesgueDecomposition(_fop((1 + delta) * np.eye(2)), zero, eye)
    assert verify_decomposition(split, eye, trials=0, tol=1e-8).sum_ok is ok


@pytest.mark.parametrize("over, violations", [(3e-13, 0), (3e-12, 18)])
def test_maximality_oracle_flips_at_its_slack(over, violations):
    # dimension 1: every contraction R is 0 or 1, so C = R and an a.c. part
    # 1 − ε understates the candidate C = 1 by ε − tol beyond the cushion;
    # with ‖a‖ = 1 that excess counts only past the slack of 1e-12
    tol = 1e-8
    eps = tol + over
    split = LebesgueDecomposition(_fop([[1.0 - eps]]), _fop([[eps]]), _fop([[1.0]]))
    check = verify_decomposition(split, _fop([[1.0]]), trials=40, seed=0, tol=tol)
    assert check.maximality_violations == violations


@pytest.mark.parametrize(
    "low, certified", [(-0.5, True), (-1.5, False), (np.nan, False), (np.inf, False), (1e200, False)]
)
def test_gap_certificate_flips_at_its_shift(low, certified):
    # δ = 1e-12 at unit scale: a least eigenvalue of −0.5δ is certified by the
    # Cholesky of K + δI, one of −1.5δ is left to eigvalsh, and so is a stack
    # that is non-finite or whose Frobenius norm overflows, failing the guard
    delta = 1e-12
    k = np.array([np.eye(3), np.diag([1.0, 0.5, low * delta])])
    assert _gaps_certified(k, delta) is certified


def _seeded_splits():
    for dim in (2, 3, 4, 5):
        for k, kind in enumerate(("ac", "singular", "incomparable")):
            if kind == "incomparable" and dim < 3:
                continue
            a, b = random_pair_with_relation(dim, kind, derive_seed(88, dim, k))
            af, bf = a.to_float(), b.to_float()
            yield f"{kind}{dim}", decompose(af, bf), af
        # violations whose excess is a generic float, not an exact small number
        zero = PsdOperator.zero(dim, "float")
        yield f"understated{dim}", LebesgueDecomposition(zero, af, bf), af


@pytest.mark.parametrize("trials", [0, 1, 37, _ORACLE_BLOCK + 45])
def test_stacked_oracle_matches_the_per_trial_reference(trials):
    # the maximality oracle samples in stacks of _ORACLE_BLOCK draws; every
    # field of the report must equal the one drawn one contraction at a time
    cases = list(_seeded_splits())
    cases += [("swapped", *_swapped_split()), ("understated", *_understated_split())]
    worst = 0.0
    for name, dec, a in cases:
        for seed in (0, 1):
            got = verify_decomposition(dec, a, trials=trials, seed=seed).to_dict()
            want = per_trial_decomposition_check(dec, a, trials, seed, DEFAULT_TOL)
            assert got == want, (name, seed)
            worst = max(worst, want["worst_excess"])
    if trials >= 37:
        assert worst > 0  # reports with violations were among those compared


@pytest.mark.parametrize("dim", [10, 12])
def test_made_splits_above_the_gap_guard_match_the_per_trial_reference(dim):
    # from n = 10 the gap certificate's 64·n² rounding guard refuses some
    # oracle blocks of a made split, which fall back to their gaps' eigvalsh;
    # either way the report is the one drawn a contraction at a time
    for k, kind in enumerate(("ac", "singular", "incomparable")):
        a, b = random_pair_with_relation(dim, kind, derive_seed(88, dim, k))
        af, bf = a.to_float(), b.to_float()
        dec = decompose(af, bf)
        got = verify_decomposition(dec, af, trials=100, seed=k).to_dict()
        assert got == per_trial_decomposition_check(dec, af, 100, k, DEFAULT_TOL), kind
        assert got["passed"], kind


def _band_stack(n, rng):
    # C = α·(PSD on ran P) + ε·(PSD on ker P) + a Hermitian cross term, so that
    # ‖(I-P) C (I-P)‖₂ = ε exactly in exact arithmetic while ‖C‖₂ ~ α; ε sweeps
    # 1e-3·tol..1e3·tol relative to max(1, α), across the spectral threshold
    # and the whole band the Frobenius bounds leave open
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    k = int(rng.integers(1, n))
    base, rest = u[:, :k], u[:, k:]
    p_base = base @ base.conj().T
    stack = []
    for alpha in (1e-3, 0.5, 1.0, 2.0, 30.0):
        for eps in np.logspace(-3, 3, 61) * DEFAULT_TOL * max(1.0, alpha):
            top = np.diag(rng.uniform(0.2, 1.0, k))
            top[0, 0] = 1.0
            # equal eigenvalues on ker P make ‖R‖_F = √(n-k)·‖R‖₂, the loosest case
            bottom = np.eye(n - k) if rng.random() < 0.5 else np.diag(rng.uniform(0.1, 1.0, n - k))
            bottom /= bottom.max()
            cross = rng.standard_normal((k, n - k)) * 1e-2 * alpha
            c = alpha * base @ top @ base.conj().T + eps * rest @ bottom @ rest.conj().T
            c += base @ cross @ rest.conj().T
            c += rest @ cross.conj().T @ base.conj().T
            stack.append(c)
    return np.array(stack), p_base


def test_frobenius_filter_decides_as_the_spectral_norms(monkeypatch):
    import psdcone.lebesgue as lebesgue

    rng = np.random.default_rng(derive_seed(7, 71))
    stacks = [_band_stack(n, rng) for n in range(2, 7) for _ in range(3)]
    wants = [_dominated_residual(c, p_base) <= DEFAULT_TOL for c, p_base in stacks]
    reached = []

    def counted(c, p_base):
        reached.append(len(c))
        return _dominated_residual(c, p_base)

    monkeypatch.setattr(lebesgue, "_dominated_residual", counted)
    for (c, p_base), want in zip(stacks, wants):
        assert want.any() and not want.all()
        assert np.array_equal(_dominated(c, p_base, DEFAULT_TOL), want), c.shape
    # the band between the Frobenius bounds was reached, yet most draws were
    # settled without the spectral norms
    assert 0 < sum(reached) < sum(len(c) for c, _ in stacks) / 2


def test_verify_rejects_an_operand_of_another_dimension():
    a = _fop(np.eye(3))
    dec = decompose(_fop(np.eye(4)), _fop(np.eye(4)))
    with pytest.raises(DimensionMismatchError):
        verify_decomposition(dec, a, trials=5)


def test_verify_rejects_negative_trials():
    a = _fop([[2.0, 0.0], [0.0, 1.0]])
    dec = decompose(a, a)
    with pytest.raises(ValueError):
        verify_decomposition(dec, a, trials=-1)
    check = verify_decomposition(dec, a, trials=0)
    assert check.passed and check.maximality_sampled == 0


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
        verify_decomposition(dec, a, trials=0)


def test_one_square_root_per_split_and_per_check(monkeypatch):
    import psdcone.lebesgue as lebesgue

    calls = []

    def counted(a):
        calls.append(a)
        return psd_sqrt(a)

    a, b = random_pair_with_relation(3, "singular", seed=5)
    af, bf = a.to_float(), b.to_float()
    monkeypatch.setattr(lebesgue, "psd_sqrt", counted)
    dec = decompose(af, bf)
    assert len(calls) == 1
    assert verify_decomposition(dec, af, trials=6, seed=1).passed
    assert len(calls) == 1
    # a hand-built split, and the split checked at another tol, take their own
    # root, and still report what the per-trial reference reports
    hand_built = LebesgueDecomposition(dec.ac_part, dec.singular_part, dec.base)
    assert hand_built == dec
    for split, tol in ((hand_built, DEFAULT_TOL), (dec, 1e-6)):
        got = verify_decomposition(split, af, trials=40, seed=1, tol=tol).to_dict()
        assert got == per_trial_decomposition_check(split, af, 40, 1, tol)
    assert len(calls) == 3


def test_invariants_alone_take_no_root_and_no_svd(monkeypatch):
    # trials=0, as the suite's invertible-base check calls it, samples nothing,
    # so it needs neither a^{1/2} nor the a.c. domain's preimage SVD
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
    assert seen == []


@pytest.mark.parametrize("trials", [100, _ORACLE_BLOCK + 45])
def test_a_made_split_takes_one_eigvalsh_per_oracle_block(monkeypatch, trials):
    # on a split made by decompose, one stacked Cholesky certifies every
    # block's gaps, so the only eigvalsh left per block is the one that
    # normalises its draws; the one 2-D call is the sum check's norm
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(x, *args, **kwargs):
        shapes.append(x.shape)
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    blocks = [min(_ORACLE_BLOCK, trials - start) for start in range(0, trials, _ORACLE_BLOCK)]
    for dim in range(2, 7):
        for k, kind in enumerate(("ac", "singular", "incomparable")):
            if kind == "incomparable" and dim < 3:
                continue
            a, b = random_pair_with_relation(dim, kind, derive_seed(89, dim, k))
            af, bf = a.to_float(), b.to_float()
            dec = decompose(af, bf)
            shapes.clear()
            assert verify_decomposition(dec, af, trials=trials, seed=k).passed, (kind, dim)
            assert shapes == [(dim, dim)] + [(m, dim, dim) for m in blocks], (kind, dim)


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
    assert verify_decomposition(dec, a, trials=6, seed=1).passed
    assert analyze_pair(a, b).min_domination_constant is not None
    assert [sum(m is op.matrix.array for m in seen) for op in (a, b)] == [1, 1]


def test_check_report_shape():
    a = _fop([[1.0, 0.0], [0.0, 1.0]])
    dec = decompose(a, a)
    check = verify_decomposition(dec, a, trials=20, seed=2)
    d = check.to_dict()
    assert d["passed"] is True
    assert d["maximality_sampled"] >= d["maximality_kept"] >= 0
    assert "note" in d
