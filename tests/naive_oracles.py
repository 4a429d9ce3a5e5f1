"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive — cofactor determinants, textbook
Gaussian elimination over hand-rolled complex rationals, bisection for the
smallest domination constant — so the package under test is checked against
code that shares none of its algorithms.
"""

from fractions import Fraction

CZERO = (Fraction(0), Fraction(0))
CONE = (Fraction(1), Fraction(0))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def grid_of(m):
    """Matrix -> list of lists of (Fraction re, Fraction im) pairs."""
    return [
        [(m.entry(i, j).re, m.entry(i, j).im) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def naive_matmul(a, b):
    """Row-by-column products of two grids; ``b`` may have zero columns."""
    cols = len(b[0])
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = CZERO
            for k, x in enumerate(row):
                acc = cadd(acc, cmul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def naive_det(grid):
    """Cofactor expansion along the first row."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = CZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = cmul(grid[0][j], naive_det(minor))
        if j % 2:
            term = (-term[0], -term[1])
        total = cadd(total, term)
    return total


def naive_rank(grid):
    """Row reduction with exact arithmetic; counts nonzero pivot rows."""
    work = [list(row) for row in grid]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if work[r][col] != CZERO:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rows):
            if r == rank or work[r][col] == CZERO:
                continue
            factor = cdiv(work[r][col], pivot)
            work[r] = [csub(work[r][c], cmul(factor, work[rank][c])) for c in range(cols)]
        rank += 1
        if rank == rows:
            break
    return rank


def naive_psd(grid):
    """(is_psd, rank) of a square grid: a Hermitian matrix is PSD iff every
    principal minor is real and nonnegative.  ``rank`` is the naive rank of a
    PSD grid, 0 for a non-Hermitian one and None for any other."""
    n = len(grid)
    if any(grid[i][j] != (grid[j][i][0], -grid[j][i][1]) for i in range(n) for j in range(n)):
        return (False, 0)
    for mask in range(1, 2**n):
        idx = [i for i in range(n) if mask >> i & 1]
        if naive_det([[grid[i][j] for j in idx] for i in idx])[0] < 0:
            return (False, None)
    return (True, naive_rank(grid))


def naive_rref(grid):
    """Reduced row echelon form (pivots scaled to 1) and pivot columns."""
    work = [list(row) for row in grid]
    cols = len(work[0])
    pivots = []
    for col in range(cols):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][col] != CZERO), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        inv = cdiv(CONE, work[r][col])
        work[r] = [cmul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != CZERO:
                f = work[i][col]
                work[i] = [csub(x, cmul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def naive_null_space(grid):
    """Kernel basis read off the divided rref, as a grid: one column per free
    column f, 1 at f and −rref[r][f] at the r-th pivot column."""
    red, pivots = naive_rref(grid)
    cols = len(grid[0])
    free = [c for c in range(cols) if c not in pivots]
    out = [[CZERO] * len(free) for _ in range(cols)]
    for k, f in enumerate(free):
        out[f][k] = CONE
        for r, c in enumerate(pivots):
            out[c][k] = (-red[r][f][0], -red[r][f][1])
    return out


def min_constant_bisect(a, b, *, bits: int = 40, cap: int = 2**60):
    """Smallest c with a <= c*b, by bisection over exact feasibility.

    ``a`` and ``b`` are exact-backend PSD operators from the package; only
    their ``matrix`` and the package's exact PSD certificate are used, so
    the search shares no code with the spectral formula it checks.  Returns
    a Fraction bracket midpoint accurate to ``2**-bits``, or None when even
    ``cap`` does not dominate.
    """
    from psdcone.linalg import psd_check

    def feasible(c: Fraction) -> bool:
        return psd_check(b.matrix.scale(c) - a.matrix)

    if feasible(Fraction(0)):
        return Fraction(0)
    if not feasible(Fraction(cap)):
        return None
    lo, hi = Fraction(0), Fraction(cap)
    # shrink the bracket fast before bisecting
    probe = Fraction(1)
    while probe < cap and not feasible(probe):
        probe *= 2
    lo, hi = probe / 2, min(probe, Fraction(cap))
    for _ in range(bits):
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def per_trial_decomposition_check(dec, a, trials, seed, tol):
    """The sampled maximality oracle that ``verify_decomposition`` once ran,
    drawing and testing one contraction at a time.

    It draws ``trials`` contractions C ≤ a, keeps those whose range the base
    dominates within ``tol`` (by the residual rule of ``ac_ok``), and counts
    a violation when C ≰ ac + tol·I beyond the slack.  A C inside ran base
    lies below the shorted operator, so the decided check fails each split
    this reference flags with one.  The residual is about the square of an
    angle, though: near a pair whose ranges meet at an angle between √eps
    and √tol it also keeps candidates outside ran base, and so flags correct
    splits that the decided check passes.  Returns the invariants, the
    sample counts and ``passed`` as a dict.
    """
    import numpy as np

    from psdcone.generators import derive_seed
    from psdcone.lebesgue import _MAXIMALITY_SLACK
    from psdcone.linalg import psd_sqrt, subspace_preimage
    from psdcone.relations import is_singular

    def two_norm(h):  # of a Hermitian matrix: its largest |eigenvalue|
        return float(np.abs(np.linalg.eigvalsh(h)).max())

    def dominated_residual(c, p_base):
        q = np.eye(n) - p_base
        r = q @ c @ q
        return two_norm(r) / max(1.0, two_norm(c))

    n = a.dim
    ac = dec.ac_part.matrix.array
    sing = dec.singular_part.matrix.array
    total = ac + sing - a.matrix.array
    scale_a = max(1.0, float(np.linalg.norm(a.matrix.array, 2)))
    sum_ok = two_norm(total) <= tol * scale_a
    p_base = dec.base.range().projector().array
    ac_ok = dominated_residual(ac, p_base) <= tol
    singular_ok = is_singular(dec.singular_part, dec.base, tol)

    root = psd_sqrt(a).matrix
    p_dom = subspace_preimage(root, dec.base.range(), tol).projector().array
    s = root.array
    rng = np.random.default_rng(derive_seed(seed, 71, n))
    kept = 0
    violations = 0
    worst = 0.0
    cushion = ac + tol * np.eye(n)
    for k in range(trials):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = (w + w.conj().T) / 2.0
        top = two_norm(w) or 1.0
        r = (np.eye(n) + w / top) / 2.0
        if k % 2 == 1:
            r = p_dom @ r @ p_dom
        c = s @ r @ s
        c = (c + c.conj().T) / 2.0
        if dominated_residual(c, p_base) > tol:
            continue
        kept += 1
        gap = float(np.linalg.eigvalsh(cushion - c)[0])
        if gap < -_MAXIMALITY_SLACK * scale_a:
            violations += 1
            worst = max(worst, -gap)
    return {
        "sum_ok": sum_ok,
        "ac_ok": ac_ok,
        "singular_ok": singular_ok,
        "maximality_sampled": trials,
        "maximality_kept": kept,
        "maximality_violations": violations,
        "worst_excess": worst,
        "passed": sum_ok and ac_ok and singular_ok and violations == 0,
    }


def naive_gauss_ints(count, rand, lo=-3, hi=3):
    """``count`` (re, im) pairs drawn with ``random.Random.randint``, re first."""
    return [(rand.randint(lo, hi), rand.randint(lo, hi)) for _ in range(count)]


def per_operand_weight(seed, x):
    """The weight Z_A of the float operand array ``x`` (n, n), drawn for this
    operand alone: the stream keyed by the first 8 bytes of the sha256 of
    ``float|n|`` and x's bytes (−0.0 read as 0.0), one (2, n, n)
    standard normal, G G* + I and its Hermitian part.  The package draws the
    weights of a stack at once, and each must equal this one bit for bit."""
    import hashlib

    import numpy as np

    n = x.shape[0]
    payload = (x + 0.0).tobytes()
    digest = hashlib.sha256(b"float|" + str(n).encode() + b"|" + payload).digest()
    rng = np.random.default_rng((seed, int.from_bytes(digest[:8], "big")))
    re, im = rng.standard_normal((2, n, n))
    g = (re + 1j * im) / np.sqrt(2)
    z = g @ g.conj().T + np.eye(n)
    return (z + z.conj().T) / 2.0


def per_operand_image(spec, a):
    """The float image of ``a`` under ``spec``, computed for this operand alone.

    Plain 2-d numpy products, S = T A T*, its root from its own ``eigh`` at
    the certified rank, and the weight :func:`per_operand_weight` keyed on
    the operand; only the map's data (T, flavor, weight seed, wild V and
    exponent) come from the package.
    The package maps operands as stacks, and each image of a stack must
    equal this one bit for bit.  Returns (image array, rank); an image
    beyond the double range raises the package's ``BackendError``.
    """
    import numpy as np

    from psdcone.errors import BackendError

    def finite(m):
        m = (m + m.conj().T) / 2.0
        if not np.isfinite(m).all():
            raise BackendError("the map's image overflows the double range")
        return m

    def congruence(op, x):
        t = op.t.to_float().array
        return finite(t @ (np.conj(x) if op.is_conjugate else x) @ t.conj().T)

    x, rank, n = a.matrix.array, a.rank, a.dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "composite":
            for part in spec.parts:
                x, rank = per_operand_image(part, float_operator(x, rank))
            return x, rank
        if spec.kind == "congruence":
            return congruence(spec.operator, x), rank
        if spec.kind == "form_iv":
            eigval, eigvec = np.linalg.eigh(congruence(spec.operator, x))
            if not np.isfinite(eigval).all():
                raise BackendError("eigenvalues overflow the double range")
            power = np.zeros(n)
            power[n - rank :] = np.sqrt(np.clip(eigval[n - rank :], 0.0, None))
            root = (eigvec * power) @ eigvec.conj().T
            root = (root + root.conj().T) / 2.0
            z = per_operand_weight(spec.weights.seed, x)
            return finite(root @ z @ root), rank
        if rank < n:
            return x, rank
        v, exponent = spec.wild_data
        v = v.to_float().array
        if exponent == -1:
            x = np.linalg.inv(x)
            x = (x + x.conj().T) / 2.0
        return finite(v @ x @ v.conj().T), rank


def float_operator(x, rank):
    """A float operator holding the array ``x`` with the certified ``rank``."""
    from psdcone.linalg import Matrix, PsdOperator

    return PsdOperator.certified(Matrix.from_float(x), rank)


def ranked_by_spectrum(x, tol):
    """A float operator holding the image array ``x``, ranked by its own
    spectrum, not by its operand's rank: numpy's ``matrix_rank`` with the
    cut ``tol`` times the spectral norm of ``x``."""
    import numpy as np

    cut = tol * np.linalg.norm(x, 2)
    return float_operator(x, int(np.linalg.matrix_rank(x, tol=cut, hermitian=True)))


def _image_operator(spec, a, tol):
    if spec.exact_capable:
        from psdcone.preserver import apply_map

        return apply_map(spec, a)
    return ranked_by_spectrum(per_operand_image(spec, a.to_float())[0], tol)


def per_trial_relation_preservation(spec, trials, seed, tol):
    """``verify_relation_preservation`` one trial at a time, each float image
    from :func:`per_operand_image`: the report the package's blocks of
    stacked trials must reproduce.  Returns the report as a dict."""
    from psdcone.linalg import EXACT, FLOAT
    from psdcone.preserver import PreservationReport, _sampled_pair
    from psdcone.relations import relation_triple

    violations = []
    names = ("abs_cont_ab", "abs_cont_ba", "singular")
    for k in range(trials):
        a, b = _sampled_pair(spec.dimension, seed, k)
        truth = relation_triple(a, b)
        image = relation_triple(_image_operator(spec, a, tol), _image_operator(spec, b, tol), tol)
        for name, want, got in zip(names, truth, image):
            if want != got:
                violations.append({"trial": k, "relation": name, "input": want, "image": got})
    return PreservationReport(
        map_kind=spec.kind,
        dimension=spec.dimension,
        image_backend=EXACT if spec.exact_capable else FLOAT,
        trials=trials,
        violations=tuple(violations),
    ).to_dict()


def per_trial_range_form(spec, trials, seed, tol):
    """``verify_range_form`` one sample at a time, each float image from
    :func:`per_operand_image`.  T(ran A), T the map's ``inducing_operator``,
    is the span of T U (T conj(U) for the conjugate flavor), U the range
    basis of the operand converted to the images' backend: for a float map
    read off the converted operand's own ``eigh``, not off the exact factor
    the package transports.  Returns the report as a dict."""
    from psdcone.generators import derive_seed, random_psd
    from psdcone.linalg import column_space
    from psdcone.preserver import RangeFormReport

    n = spec.dimension
    per_rank = max(1, trials // (n + 1))
    t = spec.operand(spec.inducing_operator)
    violations = []
    samples = 0
    for r in range(n + 1):
        for j in range(per_rank):
            a = random_psd(n, r, derive_seed(seed, 31, r, j))
            samples += 1
            u = spec.operand(a).range().basis
            expected = column_space(t.t @ (u.conj() if t.is_conjugate else u), rank_hint=u.cols)
            if not _image_operator(spec, a, tol).range().equals(expected, tol):
                violations.append({"rank": r, "sample": j})
    return RangeFormReport(
        map_kind=spec.kind, dimension=n, samples=samples, violations=tuple(violations)
    ).to_dict()


def per_trial_dim2_conditions(spec, trials, seed, tol):
    """``dim2_conditions`` mapping one operand at a time, as each criterion
    needs it, and stopping at the first failure of a criterion: the report
    the package's blocked reading of image ranges must reproduce.  Returns
    the report as a dict."""
    import random

    from psdcone.generators import derive_seed, random_direction, random_psd, random_scalar, rank_one
    from psdcone.linalg import EXACT, Matrix, PsdOperator
    from psdcone.preserver import Dim2Report, apply_map

    def image_of(a):
        image = apply_map(spec, spec.operand(a))
        return image if image.backend == EXACT else ranked_by_spectrum(image.matrix.array, tol)

    failures = []
    z_img = image_of(PsdOperator.zero(2, EXACT))
    zero_fixed = z_img.matrix.is_zero()
    if not zero_fixed:
        failures.append("zero_fixed")

    invertibility_preserved = True
    for k in range(trials):
        rank = random.Random(derive_seed(seed, 41, k)).choice((0, 1, 2))
        a = random_psd(2, rank, derive_seed(seed, 42, k))
        if (a.rank == 2) != (image_of(a).rank == 2):
            invertibility_preserved = False
            break
    if not invertibility_preserved:
        failures.append("invertibility_preserved")

    line_map_well_defined = True
    line_map_injective = True
    rand = random.Random(derive_seed(seed, 43))
    for k in range(trials):
        f = random_direction(2, rand)
        g = random_direction(2, rand)
        rank_one_image = image_of(rank_one(f))
        if rank_one_image.rank != 1:
            line_map_well_defined = False
            break
        scaled = image_of(rank_one(f.scale(random_scalar(rand))))
        if not rank_one_image.range().equals(scaled.range(), tol):
            line_map_well_defined = False
            break
        if Matrix.hstack([f, g]).rank() == 2:
            other = image_of(rank_one(g))
            if other.rank == 1 and rank_one_image.range().equals(other.range(), tol):
                line_map_injective = False
                break
    if not line_map_well_defined:
        failures.append("line_map_well_defined")
    if not line_map_injective:
        failures.append("line_map_injective")

    return Dim2Report(
        zero_fixed=zero_fixed,
        invertibility_preserved=invertibility_preserved,
        line_map_well_defined=line_map_well_defined,
        line_map_injective=line_map_injective,
        first_failure=failures[0] if failures else None,
        trials=trials,
    ).to_dict()
