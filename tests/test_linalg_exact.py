"""Exact-backend matrix algebra against naive reference implementations."""

import random
from fractions import Fraction

import pytest

import psdcone.linalg.matrix as matrix_module
from psdcone.errors import DimensionMismatchError
from psdcone.generators import random_psd
from psdcone.linalg import (
    EXACT, FLOAT, GaussianRational, Matrix, column_space, hstack_rank, subspace_intersect,
)
from psdcone.linalg.matrix import hstack_kernel, psd_certify_exact

from naive_oracles import (
    grid_of, naive_matmul, naive_null_space, naive_psd, naive_rank, naive_rref,
)


def _random_exact(rand, rows, cols, span=3):
    return Matrix.exact(
        [
            [(rand.randint(-span, span), rand.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_rank_matches_naive_elimination():
    rand = random.Random(202)
    for _ in range(80):
        rows = rand.randint(1, 5)
        cols = rand.randint(1, 5)
        m = _random_exact(rand, rows, cols, span=2)
        assert m.rank() == naive_rank(grid_of(m))


def test_hstack_rank_matches_the_stacked_rank():
    # mixed denominators, Gaussian-rational entries and dependent columns
    rand = random.Random(1919)
    for _ in range(120):
        rows = rand.randint(2, 6)
        parts = []
        for _ in range(rand.randint(1, 4)):
            part = _random_exact(rand, rows, rand.randint(1, 3), span=2)
            part = part.scale((Fraction(rand.randint(-4, 4), rand.randint(1, 6)), Fraction(1, rand.randint(1, 5))))
            parts.append(part)
            if rand.random() < 0.4:
                # a combination of earlier columns, over yet another denominator
                combo = parts[0].column(0).scale(Fraction(2, 3)) + part.column(0).scale((0, Fraction(1, 7)))
                parts.append(combo)
        assert hstack_rank(parts) == Matrix.hstack(parts).rank()
    assert hstack_rank([Matrix.zeros(3, 2), Matrix.zeros(3, 0)]) == 0
    with pytest.raises(DimensionMismatchError):
        hstack_rank([Matrix.zeros(3, 1), Matrix.zeros(2, 1)])
    with pytest.raises(DimensionMismatchError):
        hstack_rank([Matrix.zeros(3, 1), Matrix.zeros(3, 1, FLOAT)])


def test_rref_shape_and_idempotence():
    rand = random.Random(303)
    for _ in range(30):
        m = _random_exact(rand, rand.randint(1, 4), rand.randint(1, 5))
        red, pivots = m.rref()
        assert len(pivots) == m.rank()
        red2, pivots2 = red.rref()
        assert red2 == red and pivots2 == pivots
        for r, c in enumerate(pivots):
            assert red.entry(r, c) == GaussianRational.coerce(1)


def test_null_space_annihilates_and_has_right_dimension():
    rand = random.Random(404)
    for _ in range(40):
        m = _random_exact(rand, rand.randint(1, 4), rand.randint(1, 5))
        ns = m.null_space()
        assert ns.cols == m.cols - m.rank()
        if ns.cols:
            assert (m @ ns).is_zero()
            assert ns.rank() == ns.cols


def test_null_space_of_zero_column_matrix_raises():
    m = Matrix.exact([[1], [2]])
    taken = m.take_columns([])
    with pytest.raises(DimensionMismatchError):
        taken.null_space()


def test_inverse_and_singular_error():
    rand = random.Random(505)
    found = 0
    while found < 20:
        n = rand.randint(1, 4)
        m = _random_exact(rand, n, n)
        if m.rank() < n:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        inv = m.inverse()
        assert m @ inv == Matrix.identity(n, EXACT)
        assert inv @ m == Matrix.identity(n, EXACT)
        found += 1


def test_inverse_of_rational_matrices_is_the_right_block_of_the_rref():
    # denominators other than 1, so the grid runs over a common denominator
    rand = random.Random(1212)
    for n in range(1, 7):
        for k in range(6):
            m = _random_rational(rand, n, n)
            if k == 0:  # a dependent last column: the singular case at every n
                last = m.column(0).scale((Fraction(1, 3), Fraction(-2, 5)) if n > 1 else 0)
                m = Matrix.hstack([m.take_columns(range(n - 1)), last])
            if m.rank() < n:
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
                continue
            red, pivots = naive_rref(grid_of(Matrix.hstack([m, Matrix.identity(n)])))
            assert pivots[:n] == list(range(n))
            assert grid_of(m.inverse()) == [row[n:] for row in red]


def test_pinv_satisfies_penrose_identities():
    rand = random.Random(606)
    for _ in range(40):
        m = _random_exact(rand, rand.randint(1, 4), rand.randint(1, 4), span=2)
        p = m.pinv()
        assert m @ p @ m == m
        assert p @ m @ p == p
        assert (m @ p).H == m @ p
        assert (p @ m).H == p @ m
        assert p.rank() == m.rank()


def test_pinv_frozen_diagonal():
    m = Matrix.exact([[2, 0], [0, 0]])
    assert m.pinv() == Matrix.exact([[("1/2", 0), 0], [0, 0]])


def test_psd_certificate_on_gram_matrices():
    rand = random.Random(707)
    for _ in range(50):
        n = rand.randint(1, 4)
        g = _random_exact(rand, n, rand.randint(1, n), span=2)
        gram = g @ g.H
        ok, rank = psd_certify_exact(gram)
        assert ok
        assert rank == g.rank()


def test_psd_certificate_rejections():
    indefinite = Matrix.exact([[0, 1], [1, 0]])
    assert psd_certify_exact(indefinite) == (False, 0)
    negative = Matrix.exact([[-1]])
    assert psd_certify_exact(negative)[0] is False
    non_hermitian = Matrix.exact([[1, 1], [0, 1]])
    assert psd_certify_exact(non_hermitian)[0] is False
    zero = Matrix.zeros(3, 3)
    assert psd_certify_exact(zero) == (True, 0)
    # zero diagonal with a nonzero row cannot be PSD
    trap = Matrix.exact([[0, 1], [1, 5]])
    assert psd_certify_exact(trap)[0] is False


def _psd_cases(rand, n):
    """Hermitian and broken matrices of size n, over mixed denominators."""
    def gram(k):
        g = _random_rational(rand, n, k) if k else Matrix.zeros(n, 1)
        return g @ g.H

    full, low = gram(n), gram(rand.randint(0, n - 1))
    cases = [full, low, full.scale(Fraction(3, 7)) + low, low - gram(1), gram(1) - full]
    # a zero diagonal entry whose row is not zero
    k = rand.randrange(n)
    trap = [[(0, 0) if k in (i, j) else low.entry(i, j) for j in range(n)] for i in range(n)]
    if n > 1:
        j = (k + 1) % n
        trap[k][j], trap[j][k] = (Fraction(1, 5), 1), (Fraction(1, 5), -1)
    cases.append(Matrix.exact(trap))
    # one off-diagonal entry broken, and a non-real diagonal entry
    broken = [list(row) for row in full.exact_rows]
    if n > 1:
        broken[0][n - 1] = broken[0][n - 1] + GaussianRational(Fraction(1, 3))
        cases.append(Matrix.exact(broken))
    unreal = [list(row) for row in full.exact_rows]
    unreal[k][k] = unreal[k][k] + GaussianRational(0, Fraction(1, 2))
    cases.append(Matrix.exact(unreal))
    return cases


def test_psd_certificate_matches_the_principal_minor_oracle():
    rand = random.Random(2020)
    for n in range(1, 7):
        for _ in range(4 if n < 6 else 2):
            for m in _psd_cases(rand, n):
                ok, rank = psd_certify_exact(m)
                want_ok, want_rank = naive_psd(grid_of(m))
                assert ok == want_ok
                if want_rank is not None:
                    assert rank == want_rank


def test_psd_certificate_updates_half_the_active_block(monkeypatch):
    # a pivot leaving s active rows updates the s(s+1)/2 entries on and above
    # the diagonal, two divisions each; the full block would cost 2·s^2
    calls = []

    def counting_divmod(a, b):
        calls.append(b)
        return divmod(a, b)

    monkeypatch.setattr(matrix_module, "divmod", counting_divmod, raising=False)
    for n, r, want in ((5, 5, 40), (5, 3, 38), (6, 6, 70), (1, 1, 0)):
        m = random_psd(n, r, seed=n + r).matrix
        calls.clear()
        assert psd_certify_exact(m) == (True, r)
        assert len(calls) == want, (n, r)


def _reference_kernel(m):
    rows = naive_null_space(grid_of(m))
    return Matrix.exact(rows) if rows[0] else Matrix.zeros(m.cols, 0)


def test_kernels_equal_the_divided_rref_reference():
    rand = random.Random(2121)
    for _ in range(60):
        rows = rand.randint(1, 5)
        m = _random_rational(rand, rows, rand.randint(1, 6))
        if rand.random() < 0.5:  # dependent columns over another denominator
            m = Matrix.hstack([m, m.column(0).scale((Fraction(2, 5), Fraction(-1, 3)))])
        assert m.null_space() == _reference_kernel(m)
        parts = [m, _random_rational(rand, rows, rand.randint(1, 2))]
        pivots, kern = hstack_kernel(parts)
        stacked = Matrix.hstack(parts)
        assert kern == _reference_kernel(stacked)
        assert list(pivots) == naive_rref(grid_of(stacked))[1]
    for n in range(2, 7):
        for _ in range(8):
            # the shared columns make the intersection nontrivial
            shared = _random_rational(rand, n, rand.randint(0, 2))
            u = column_space(Matrix.hstack([shared, _random_rational(rand, n, rand.randint(1, 2))]))
            v = column_space(Matrix.hstack([_random_rational(rand, n, rand.randint(1, 2)), shared]))
            if not (u.dim and v.dim):
                continue
            assert subspace_intersect(u, v).basis == _reference_intersection(u, v)


def _reference_intersection(u, v):
    """The points U x of the divided-rref kernel of [U | −V]."""
    kern = _reference_kernel(Matrix.hstack([u.basis, -v.basis]))
    return u.basis @ kern.take_rows(range(u.dim)) if kern.cols else Matrix.zeros(u.ambient_dim, 0)


def _full_span(rand, n, cols):
    """A random rational matrix with ``cols`` independent columns."""
    while True:
        m = _random_rational(rand, n, cols)
        if m.rank() == cols:
            return m


def test_intersections_equal_the_reference_in_every_shape():
    rand = random.Random(3434)
    for n in range(1, 7):
        for _ in range(4):
            full = column_space(_full_span(rand, n, n))
            some = column_space(_full_span(rand, n, rand.randint(1, n)))
            # a spanning side in each order: a spanning u answers with v itself
            assert subspace_intersect(full, some).basis == some.basis == _reference_intersection(full, some)
            assert subspace_intersect(some, full).basis == _reference_intersection(some, full)
            if n == 1:
                continue
            # no free column: generic sides with u.dim + v.dim <= n meet in 0
            k = rand.randint(1, n - 1)
            u = column_space(_full_span(rand, n, k))
            v = column_space(_full_span(rand, n, rand.randint(1, n - k)))
            assert _reference_intersection(u, v).cols == 0
            assert subspace_intersect(u, v).basis == Matrix.zeros(n, 0)
            # v inside a u that does not span
            v = column_space(u.basis @ _full_span(rand, k, rand.randint(1, k)))
            got = subspace_intersect(u, v)
            assert got.dim == v.dim and got.basis == _reference_intersection(u, v)


def test_a_spanning_first_side_takes_no_elimination(monkeypatch):
    rand = random.Random(3535)
    cases = [
        (column_space(_full_span(rand, n, n)), column_space(_full_span(rand, n, rand.randint(1, n - 1))))
        for n in range(2, 6)
    ]
    calls = []
    real_sweep = matrix_module._sweep
    monkeypatch.setattr(matrix_module, "_sweep", lambda *args: calls.append(args[4]) or real_sweep(*args))
    for full, some in cases:
        calls.clear()
        assert subspace_intersect(full, some) is some
        assert calls == []
        assert subspace_intersect(some, full).dim == some.dim
        assert calls == [True]  # the mirror order takes its one Gauss–Jordan sweep


def test_elimination_divides_by_every_pivot_but_one(monkeypatch):
    # hstack_rank of a generic 3 × 3 matrix: at the first pivot prev = 1 and
    # nothing divides; the second pivot's one update divides twice by the first
    calls = []

    def counting_divmod(a, b):
        calls.append(b)
        return divmod(a, b)

    monkeypatch.setattr(matrix_module, "divmod", counting_divmod, raising=False)
    for first, want in ((2, [2, 2]), (-1, [-1, -1]), (1, []), ((0, 1), [])):
        m = Matrix.exact([[first, 1, 4], [3, 5, 1], [2, 7, 3]])
        calls.clear()
        assert hstack_rank([m]) == 3
        assert calls == want, first
    # a unit pivot divides by nothing but still rotates: the kernel stays right
    for first in (1, -1, (0, 1), (0, -1)):
        m = Matrix.exact([[first, 2, (1, 1), 3], [4, (0, 2), 5, 1], [1, 1, 2, (3, -1)]])
        assert m.null_space() == _reference_kernel(m)


def _random_rational(rand, rows, cols):
    def part():
        return Fraction(rand.randint(-3, 3), rand.choice((1, 2, 3, 4, 6, 9)))

    return Matrix.exact([[(part(), part()) for _ in range(cols)] for _ in range(rows)])


def test_matmul_and_adjoint_consistency():
    rand = random.Random(808)
    for _ in range(20):
        a = _random_exact(rand, rand.randint(1, 3), rand.randint(1, 3))
        b = _random_exact(rand, a.cols, rand.randint(1, 3))
        prod = a @ b
        assert prod.H == b.H @ a.H
        assert prod.conj() == a.conj() @ b.conj()
        assert grid_of(prod) == naive_matmul(grid_of(a), grid_of(b))
    # entries with differing denominators, and a zero-column right factor
    for _ in range(20):
        a = _random_rational(rand, rand.randint(1, 4), rand.randint(1, 4))
        b = _random_rational(rand, a.cols, rand.randint(0, 4))
        prod = a @ b
        assert prod.shape == (a.rows, b.cols)
        assert grid_of(prod) == naive_matmul(grid_of(a), grid_of(b))
        if b.cols:
            assert prod.H == b.H @ a.H
    # equal values built two ways compare and hash equal
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    for left, right in (
        (Matrix.exact([[Fraction(1, 2)]]), Matrix.exact([[1]]).scale(Fraction(1, 2))),
        (
            Matrix.exact([[third, sixth]]) + Matrix.exact([[sixth, third]]),
            Matrix.exact([["1/2", "1/2"]]),
        ),
        (Matrix.exact([[(0, 1), 2]]).scale((0, -1)), Matrix.exact([[1, (0, -2)]])),
        (Matrix.exact([[third]]).scale(3) - Matrix.identity(1), Matrix.zeros(1, 1)),
    ):
        assert left == right
        assert hash(left) == hash(right)


def test_float_view_rounds_like_fraction():
    # converting the numerator to float before dividing would round twice
    for v in (
        Fraction(2**53 + 1, 7),
        Fraction(2**53 + 3, 3),
        Fraction(-(10**30) - 7, 10**13 + 3),
        Fraction(1, 10),
    ):
        z = Matrix.exact([[(v, -v)]]).array[0, 0]
        assert (z.real, z.imag) == (float(v), float(-v))


def test_scaling_accepts_only_nonnegative_reals():
    # a negative Fraction used to pass the sign check and give a
    # "certified" operator with a negative diagonal entry
    a = random_psd(2, 1, seed=4)
    for c in (-1, Fraction(-1), GaussianRational(-1), (-1, 0), (1, 1), GaussianRational(0, 1)):
        with pytest.raises(ValueError):
            a.scaled(c)
    for c in (-0.5, float("nan"), -1 + 0j, 1j, 2 + 1j):
        with pytest.raises(ValueError):
            a.to_float().scaled(c)
    for c in (Fraction(1, 2), GaussianRational(2), (2, 0), 3):
        assert a.scaled(c).matrix == a.matrix.scale(c)
    for zero in (0, Fraction(0), (0, 0), GaussianRational(0)):
        assert a.scaled(zero).rank == 0 and a.scaled(zero).matrix.is_zero()


def test_scaling_an_exact_operator_by_a_float_or_complex_real():
    # the sign check accepted these, then the exact scale raised TypeError
    a = random_psd(3, 2, seed=4)
    for c, exact in ((0.5, Fraction(1, 2)), (complex(2, 0), 2), (0.1, Fraction(0.1))):
        scaled = a.scaled(c)
        assert scaled.matrix == a.matrix.scale(exact) and scaled.rank == 2
    for op in (a, a.to_float()):
        with pytest.raises(ValueError):
            op.scaled(float("inf"))
