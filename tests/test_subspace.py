"""Subspaces: membership, sums, intersections, preimages, principal angles."""

import random

import numpy as np
import pytest

import psdcone.linalg.subspace as subspace_module
from psdcone.errors import BackendError, DimensionMismatchError
from psdcone.generators import derive_seed, random_psd, random_semilinear
from psdcone.linalg import (
    EXACT,
    FLAVORS,
    FLOAT,
    Matrix,
    PsdOperator,
    Subspace,
    column_space,
    common_dim,
    subspace_intersect,
    subspace_preimage,
)
from psdcone.linalg.matrix import hstack_rank
from psdcone.linalg.subspace import principal_sines


def _rand_exact(rand, rows, cols):
    return Matrix.exact(
        [[(rand.randint(-3, 3), rand.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def test_span_membership_exact():
    u = column_space(Matrix.exact([[1], [1], [0]]))
    assert u.contains(column_space(Matrix.exact([[2], [2], [0]])))
    assert not u.contains(column_space(Matrix.exact([[1], [0], [0]])))


def test_zero_and_full():
    z = Subspace.zero(3, EXACT)
    f = Subspace.full(3, EXACT)
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z)
    assert not z.contains(f)
    assert z.equals(Subspace.zero(3, EXACT))


def test_principal_sines_known_angles():
    e1 = column_space(Matrix.from_float([[1.0], [0.0]]))
    e2 = column_space(Matrix.from_float([[0.0], [1.0]]))
    diag = column_space(Matrix.from_float([[1.0], [1.0]]))
    assert principal_sines(e1, e2)[0] == pytest.approx(1.0)
    assert principal_sines(e1, e1)[0] == pytest.approx(0.0, abs=1e-14)
    # 45 degrees between e1 and the diagonal
    assert principal_sines(e1, diag)[0] == pytest.approx(np.sin(np.pi / 4))


def test_principal_sines_with_a_zero_subspace():
    zero = Subspace.zero(3, FLOAT)
    plane = column_space(Matrix.from_float([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert principal_sines(zero, plane).shape == (0,)
    assert np.array_equal(principal_sines(plane, zero), np.ones(2))


def test_dimension_formula_sum_plus_intersection():
    rand = random.Random(99)
    for _ in range(40):
        n = rand.randint(2, 5)
        u = column_space(_rand_exact(rand, n, rand.randint(1, n)))
        v = column_space(_rand_exact(rand, n, rand.randint(1, n)))
        s = column_space(Matrix.hstack([u.basis, v.basis]))
        i = subspace_intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains(u) and s.contains(v)
        assert u.contains(i) and v.contains(i)


def test_intersection_agrees_between_backends():
    rand = random.Random(123)
    for _ in range(30):
        n = rand.randint(2, 5)
        a = _rand_exact(rand, n, rand.randint(1, n))
        b = _rand_exact(rand, n, rand.randint(1, n))
        exact_dim = subspace_intersect(column_space(a), column_space(b)).dim
        float_dim = common_dim(column_space(a.to_float()), column_space(b.to_float()))
        assert exact_dim == float_dim


def test_float_intersection_is_refused():
    u = column_space(Matrix.from_float([[1.0], [0.0]]))
    with pytest.raises(BackendError):
        subspace_intersect(u, u)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equals_takes_one_intersection_and_agrees_with_two_way_contains(n, monkeypatch):
    rand = random.Random(800 + n)
    calls = []

    def counting(*args):
        calls.append(args)
        return common_dim(*args)

    seen = set()
    for k in range(12):
        a = _rand_exact(rand, n, rand.randint(1, n - 1))
        if k % 3 == 0:  # the same span on another basis, unless the mix is singular
            b = a @ _rand_exact(rand, a.cols, a.cols)
        elif k % 3 == 1:
            b = _rand_exact(rand, n, a.cols)
        else:
            b = Matrix.hstack([a, _rand_exact(rand, n, n)])
        for convert in (lambda m: m, Matrix.to_float):
            u, v = column_space(convert(a)), column_space(convert(b))
            two_way = u.contains(v) and v.contains(u)
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(subspace_module, "common_dim", counting)
                got = u.equals(v)
            assert got == two_way
            assert len(calls) == (u.dim == v.dim)
            seen.add((u.backend, got, u.dim == v.dim))
    for backend in (EXACT, FLOAT):
        assert {(backend, True, True), (backend, False, True), (backend, False, False)} <= seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_images_and_preimages_keep_their_basis_without_elimination(n, monkeypatch):
    # T is invertible and the x-parts of a kernel basis are independent, so
    # neither result needs a pivot search: each is its own eliminated basis
    rand = random.Random(900 + n)

    def refuse(*args):
        raise AssertionError("a proven-independent basis was eliminated again")

    nontrivial = 0
    for k in range(6):
        t = random_semilinear(n, derive_seed(9, n, k), FLAVORS[k % 2])
        u = column_space(_rand_exact(rand, n, rand.randint(1, n)))
        r = rand.randint(1, n)
        m = _rand_exact(rand, n, r) @ _rand_exact(rand, r, n)
        v = column_space(_rand_exact(rand, n, rand.randint(1, n - 1)))
        with monkeypatch.context() as patched:
            for name in ("pivot_columns", "rank"):
                patched.setattr(Matrix, name, refuse)
            image = column_space(t.apply_matrix(u.basis), rank_hint=u.dim)
            pre = subspace_preimage(m, v)
        assert image.basis == t.apply_matrix(u.basis) == column_space(image.basis).basis
        assert pre.basis == column_space(pre.basis).basis
        assert v.contains(column_space(m @ pre.basis))
        nontrivial += 0 < pre.dim < n
    assert nontrivial


def test_preimage_frozen_case():
    # rows of all-ones map x to ((x1+x2), (x1+x2)); the preimage of span{e1}
    # is exactly the antidiagonal span{(1, -1)}
    m = Matrix.exact([[1, 1], [1, 1]])
    target = column_space(Matrix.exact([[1], [0]]))
    pre = subspace_preimage(m, target)
    assert pre.dim == 1
    assert pre.equals(column_space(Matrix.exact([[1], [-1]])))


def test_preimage_characterization():
    rand = random.Random(456)
    for _ in range(30):
        n = rand.randint(2, 4)
        m = _rand_exact(rand, n, n)
        v = column_space(_rand_exact(rand, n, rand.randint(1, n)))
        pre = subspace_preimage(m, v)
        # every preimage basis vector must actually land inside v
        for j in range(pre.dim):
            assert v.contains(column_space(m @ pre.basis.column(j)))
        # dimension identity: ker(m) plus the directions m sends into v
        expected = n - m.rank() + subspace_intersect(column_space(m), v).dim
        assert pre.dim == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_intersect_and_preimage_bases_are_independent_as_returned(n):
    # both return their basis without the constructor's rank check, since
    # the kernel of [U | -V] already proves its columns independent
    rand = random.Random(700 + n)
    nontrivial = 0
    for _ in range(8):
        shared = _rand_exact(rand, n, rand.randint(1, n - 1))
        u, v = (
            column_space(Matrix.hstack([shared, _rand_exact(rand, n, rand.randint(0, n - 1))]))
            for _ in range(2)
        )
        r = rand.randint(1, n)
        m = _rand_exact(rand, n, r) @ _rand_exact(rand, r, n)
        for got in (subspace_intersect(u, v), subspace_preimage(m, v), subspace_preimage(m, u)):
            assert got.basis.rank() == got.dim
            assert Subspace(got.basis).basis == got.basis
            nontrivial += 0 < got.dim < n
    assert nontrivial


def test_preimage_of_full_space_is_full():
    m = Matrix.exact([[1, 2], [3, 4]])
    assert subspace_preimage(m, Subspace.full(2, EXACT)).dim == 2


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_preimage_of_zero_is_the_kernel(backend):
    m = Matrix.exact([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    m = m if backend == EXACT else m.to_float()
    kernel = subspace_preimage(m, Subspace.zero(3, backend))
    want = column_space(Matrix.exact([[2], [-1], [0]]))
    assert kernel.equals(want if backend == EXACT else column_space(want.basis.to_float()))


@pytest.mark.parametrize("kernel", [0, 1, 2])
def test_float_preimage_takes_two_svds(monkeypatch, kernel):
    # one SVD of [m | -V] for σ_max and the kernel, one of the kernel's x-parts
    m = Matrix.from_float(np.diag([1.0, 2.0, 3.0][kernel:] + [0.0] * kernel))
    v = column_space(Matrix.from_float([[1.0], [1.0], [0.0]]))
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: seen.append(1) or svd(*args, **kw))
    pre = subspace_preimage(m, v)
    assert len(seen) == 2
    assert pre.dim == kernel + (kernel < 2)


def test_float_preimage_matches_exact():
    rand = random.Random(789)
    for _ in range(20):
        n = rand.randint(2, 4)
        m = _rand_exact(rand, n, n)
        v = column_space(_rand_exact(rand, n, rand.randint(1, n)))
        exact_pre = subspace_preimage(m, v)
        float_pre = subspace_preimage(
            m.to_float(), column_space(v.basis.to_float())
        )
        assert float_pre.dim == exact_pre.dim
        if exact_pre.dim:
            assert float_pre.equals(
                column_space(exact_pre.basis.to_float()), 1e-8
            )


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_dependent_basis_rejected(backend):
    dependent = {EXACT: Matrix.exact, FLOAT: Matrix.from_float}[backend]([[1, 2], [1, 2]])
    with pytest.raises(ValueError, match="^basis columns are not linearly independent$"):
        Subspace(dependent)


def test_ambient_mismatch():
    u = column_space(Matrix.exact([[1], [0]]))
    w = column_space(Matrix.exact([[1], [0], [0]]))
    with pytest.raises(DimensionMismatchError):
        subspace_intersect(u, w)


def test_projector_is_idempotent_and_hermitian():
    u = column_space(Matrix.from_float([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    p = u.projector().array
    assert np.allclose(p @ p, p, rtol=0, atol=1e-12)
    assert np.allclose(p, p.conj().T, rtol=0, atol=1e-12)
    assert Subspace.zero(2, FLOAT).projector().is_zero()


@pytest.mark.parametrize("eps, shared", [(3e-9, 1), (3e-8, 0)])
def test_common_dim_flips_at_its_sine_cut(eps, shared):
    # unit scale, tol = 1e-8: the line through (1, ε) meets e₁ at sine ≈ ε,
    # so a cut moved tenfold either way changes one of the two answers
    line = Subspace(Matrix.from_float([[1.0], [eps]]))
    e1 = Subspace(Matrix.from_float([[1.0], [0.0]]))
    assert common_dim(line, e1, 1e-8) == shared


def _ranges(n, backend, seed):
    # every rank 1..n, each as the ranges the verifiers meet: exact ranges
    # factored (G of G G*) and eliminated (pivot columns of G G*), float
    # eigen_ranges of drawn and converted operators, and Subspace.full
    out = [Subspace.full(n, backend)]
    for r in range(1, n + 1):
        op = random_psd(n, r, derive_seed(seed, n, r))
        if backend == EXACT:
            out += [op.range(), PsdOperator.from_matrix(op.matrix).range()]
        else:
            out += [op.to_float().range(), random_psd(n, r, seed, backend=FLOAT).range()]
    return out


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_whole_space_side_is_counted_as_the_direct_rule_counts(n, backend, monkeypatch):
    # when u or v spans C^n, common_dim answers u.dim + v.dim − n with no
    # elimination and no principal angles, and that is the count the exact
    # rank of [U | V] and the float principal sines give, in both orders
    def direct(u, v):
        if backend == EXACT:
            return u.dim + v.dim - hstack_rank([u.basis, v.basis])
        return int(np.sum(principal_sines(u, v) <= 1e-8))

    def refuse(*args):
        raise AssertionError("a whole-space side was eliminated or measured")

    spaces = _ranges(n, backend, 61)
    for u in spaces:
        for v in spaces:
            if n not in (u.dim, v.dim):
                continue
            want = direct(u, v)
            with monkeypatch.context() as patched:
                patched.setattr(subspace_module, "hstack_rank", refuse)
                patched.setattr(subspace_module, "principal_sines", refuse)
                got = common_dim(u, v, 1e-8)
            assert got == want == min(u.dim, v.dim), (u.dim, v.dim)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_a_whole_space_side_on_another_space_or_backend_is_refused(backend):
    # the size and backend checks run before the count, in both orders
    full = Subspace.full(3, backend)
    line = column_space(Matrix.exact([[1], [1]]))
    line = line if backend == EXACT else column_space(line.basis.to_float())
    other = Subspace.full(3, FLOAT if backend == EXACT else EXACT)
    for u, v, error in ((full, line, DimensionMismatchError), (full, other, BackendError)):
        for args in ((u, v), (v, u)):
            with pytest.raises(error):
                common_dim(*args)
