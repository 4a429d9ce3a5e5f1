"""Float-backend matrices: validation, rank cutoffs, norms, PSD checks, square roots."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from psdcone.errors import BackendError
from psdcone.generators import random_psd, rank_one
from psdcone.linalg import (
    EXACT,
    FLOAT,
    GaussianRational,
    Matrix,
    PsdOperator,
    column_space,
    hermitian_norm,
    hermitian_part,
    psd_check,
    psd_sqrt,
)


def test_from_float_rejects_non_finite():
    with pytest.raises(ValueError):
        Matrix.from_float([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        Matrix.from_float([[np.inf, 0.0]])


def test_from_float_copies_its_input():
    data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    m = Matrix.from_float(data)
    assert data.flags.writeable and not m.array.flags.writeable
    data[0, 0] = 99.0
    assert m.entry(0, 0) == 1.0


def test_computed_float_results_are_read_only():
    # results wrapped without a copy must still be immutable
    m = Matrix.from_float([[1.0, 2j], [0.5, 3.0]])
    for r in (m @ m, m + m, m - m, -m, m.conj(), m.H, m.column(1),
              Matrix.hstack([m, m]), Matrix.identity(2, FLOAT),
              PsdOperator.from_matrix(m @ m.H).matrix):  # stored hermitized
        assert not r.array.flags.writeable
    # kernels are exact-only: a float kernel's cutoff belongs to its caller
    with pytest.raises(BackendError):
        m.null_space()


def test_hermitian_norm_is_the_two_norm():
    rng = np.random.default_rng(20231)
    eps = np.finfo(np.float64).eps

    def agrees(norm, h):  # with the SVD two-norm, within 4·n·eps relative
        want = np.linalg.norm(h, 2, axis=(-2, -1))
        got = norm(h)
        return got.shape == want.shape and bool(
            np.all(np.abs(got - want) <= 4 * h.shape[-1] * eps * want)
        )

    def top_eigenvalue(h):  # reads λ_max alone: the negative control
        return np.linalg.eigvalsh(h)[..., -1]

    for n in range(1, 8):
        for count in (1, 7, 256):
            for scale in (1e-5, 1.0, 1e5):
                g = scale * (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
                x = hermitian_part(g)
                x[::5] = 0.0  # zero matrices included
                assert agrees(hermitian_norm, x)
                assert np.all(hermitian_norm(x[::5]) == 0.0)  # so the oracle's top == 0 guard fires
                negative = -(g @ g.conj().swapaxes(-1, -2))  # −(G G*): λ_max ≤ 0 < ‖·‖₂
                assert agrees(hermitian_norm, negative)
                assert not agrees(top_eigenvalue, negative)
    assert hermitian_norm(np.zeros((3, 3))) == 0.0


def test_from_float_accepts_transposed_views():
    base = np.arange(6, dtype=np.complex128).reshape(2, 3)
    m = Matrix.from_float(base.conj().T)
    assert m.shape == (3, 2)
    assert m == Matrix.from_float(np.ascontiguousarray(base.conj().T))
    assert hash(m) == hash(Matrix.from_float(base.conj().T.copy()))


def test_rank_uses_relative_cutoff():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    # singular values 1, 1, 1e-3, 1e-16, 0: two below the relative cutoff
    s = np.array([1.0, 1.0, 1e-3, 1e-16, 0.0])
    m = Matrix.from_float((q * s) @ q.conj().T)
    assert m.rank() == 3


def test_pinv_is_exact_only():
    with pytest.raises(BackendError):
        Matrix.from_float([[1.0, 2.0], [3.0, 4.0]]).pinv()


def test_psd_check_tolerance_semantics():
    wiggle = Matrix.from_float([[1.0, 0.0], [0.0, -1e-16]])
    assert psd_check(wiggle)
    assert not psd_check(Matrix.from_float([[1.0, 0.0], [0.0, -1e-3]]))
    assert not psd_check(Matrix.from_float([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def _accepted(m):
    try:
        PsdOperator.from_matrix(m)
    except ValueError:
        return False
    return True


def test_psd_check_is_from_matrix_success():
    rng = np.random.default_rng(29)
    verdicts = set()
    for k in range(60):
        n = int(rng.integers(1, 5))
        g = rng.integers(-3, 4, size=(n, n)) + 1j * rng.integers(-3, 4, size=(n, n))
        if k % 3 == 0:
            data = g @ g.conj().T  # Hermitian PSD, often rank deficient
        elif k % 3 == 1:
            data = g + g.conj().T  # Hermitian, usually indefinite
        else:
            data = g  # usually not Hermitian
        for m in (
            Matrix.from_float(data),
            Matrix.exact([[(int(z.real), int(z.imag)) for z in row] for row in data]),
        ):
            verdict = psd_check(m)
            assert verdict == _accepted(m), (k, m.backend)
            verdicts.add((m.backend, verdict))
    assert verdicts == {(b, v) for b in (EXACT, FLOAT) for v in (True, False)}


def test_psd_sqrt_frozen_values():
    ones = PsdOperator.from_matrix(Matrix.from_float([[1.0, 1.0], [1.0, 1.0]]))
    root = psd_sqrt(ones)
    assert root.rank == 1
    expected = np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(root.matrix.array, expected)

    diag = PsdOperator.from_matrix(Matrix.from_float([[4.0, 0.0], [0.0, 9.0]]))
    assert np.allclose(psd_sqrt(diag).matrix.array, [[2.0, 0.0], [0.0, 3.0]])


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(56)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = PsdOperator.from_matrix(Matrix.from_float(g @ g.conj().T))
        root = psd_sqrt(a)
        r, want = root.matrix.array, a.matrix.array
        assert np.allclose(r @ r, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert root.rank == a.rank


def test_rank_one_of_a_float_column_spans_its_line():
    f = Matrix.from_float([[1.0], [2.0j], [-0.5]])
    op = rank_one(f)
    assert (op.backend, op.rank) == (FLOAT, 1)
    assert op.range().equals(column_space(f))


def test_scaling_a_float_operator_keeps_its_rank():
    a = PsdOperator.from_matrix(Matrix.from_float([[2.0, 1.0j], [-1.0j, 1.0]]))
    b = PsdOperator.from_matrix(Matrix.from_float([[1.0, 1.0], [1.0, 1.0]]))
    for op in (a, b):
        scaled = op.scaled(2.5)
        assert np.array_equal(scaled.matrix.array, 2.5 * op.matrix.array)
        assert scaled.rank == op.rank
    assert (a.rank, b.rank) == (2, 1)


def test_scaling_past_the_double_range_is_a_backend_error_without_warning():
    # it used to warn "overflow encountered" and raise ValueError("non-finite entry")
    op = PsdOperator.from_matrix(Matrix.from_float([[2.0, 1.0], [1.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BackendError):
            op.scaled(1e308)
        with pytest.raises(BackendError):
            op.matrix.scale(complex(1e308, 1e308))
        assert op.scaled(1e307).matrix.array[0, 0] == 2e307


def test_a_factor_past_the_double_range_is_a_backend_error():
    # the factor itself does not fit a double: complex(Fraction(10**400)) used to
    # leak OverflowError ("integer division result too large for a float")
    op = random_psd(3, 2, seed=1, backend=FLOAT)
    for factor in (10**400, Fraction(10**400, 3)):
        with pytest.raises(BackendError):
            op.scaled(factor)
    with pytest.raises(BackendError):
        op.matrix.scale(GaussianRational(0, 10**400))


def test_psd_sqrt_requires_float_backend():
    exact = PsdOperator.from_matrix(Matrix.exact([[1, 0], [0, 1]]))
    with pytest.raises(BackendError):
        psd_sqrt(exact)


def test_norms_and_max_abs():
    m = Matrix.from_float([[3.0, 0.0], [0.0, -4.0]])
    assert np.linalg.norm(m.array, 2) == pytest.approx(4.0)
    assert np.abs(m.array).max() == pytest.approx(4.0)
    assert m.backend == FLOAT


@pytest.mark.parametrize("delta, psd", [(3e-9, True), (3e-8, False)])
def test_psd_check_flips_at_its_eigenvalue_dip(delta, psd):
    # unit scale, tol = 1e-8: an eigenvalue of −δ passes at 0.3× the cut, not at 3×
    assert psd_check(Matrix.from_float(np.diag([1.0, -delta])), 1e-8) is psd


@pytest.mark.parametrize("delta, rank", [(3e-9, 1), (3e-8, 2)])
def test_float_rank_flips_at_its_eigenvalue_cut(delta, rank):
    # unit scale, tol = 1e-8: an eigenvalue of δ counts at 3× the cut, not at 0.3×
    assert PsdOperator.from_matrix(Matrix.from_float(np.diag([1.0, delta])), 1e-8).rank == rank


@pytest.mark.parametrize("delta, hermitian", [(3e-9, True), (3e-8, False)])
def test_psd_check_flips_at_its_asymmetry_cut(delta, hermitian):
    # unit scale, tol = 1e-8: an asymmetry |A − A*|max of δ passes at 0.3× the cut, not at 3×
    assert psd_check(Matrix.from_float([[1.0, delta], [0.0, 1.0]]), 1e-8) is hermitian


# the default cut is n·eps relative to max |m_ij|: the matrix's scale enters once, not twice
@pytest.mark.parametrize("diag, rank", [([1e9, 1.0], 2), ([5e307] * 3, 3)])
def test_default_rank_cut_scales_with_the_matrix_once(diag, rank):
    assert PsdOperator.from_matrix(Matrix.from_float(np.diag(diag))).rank == rank


def test_default_dip_cut_scales_with_the_matrix_once():
    assert not psd_check(Matrix.from_float(np.diag([1e200, -1e199])))
