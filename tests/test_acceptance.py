"""Desk-scale acceptance battery.

Every guarantee the package documents, exercised end to end with pinned
seeds, pinned tolerances and explicit wall-clock budgets.  Failures here mean
the library's advertised behaviour is broken, not that a unit drifted.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from psdcone import (
    GaussianRational,
    Matrix,
    PreserverSpec,
    WeightFamily,
    analyze_pair,
    decompose,
    derive_seed,
    induced_line_map,
    is_abs_continuous,
    is_singular,
    make_wild_map,
    apply_map,
    projective_scalar,
    psd_check,
    random_pair_with_relation,
    random_psd,
    random_semilinear,
    reconstruct_semilinear,
    subspace_intersect,
    swap_counterexample_line_map,
    verify_decomposition,
    verify_projectivity,
    verify_range_form,
    verify_relation_preservation,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_data"

BOOL_FIELDS = ("leq_ab", "leq_ba", "abs_cont_ab", "abs_cont_ba", "singular", "same_range_class")


def _dominated_within_2_60(a, b) -> bool:
    # the independent route: scan the dyadic ladder A <= 2^k B, k <= 60,
    # which collapses to the single exact test at the top of the ladder
    return psd_check(b.matrix.scale(2**60) - a.matrix)


def _rank_cycled_pairs(dim: int, count: int, salt: int):
    combos = [(ra, rb) for ra in range(dim + 1) for rb in range(dim + 1)]
    for i in range(count):
        ra, rb = combos[i % len(combos)]
        a = random_psd(dim, rank=ra, seed=derive_seed(salt, dim, i, 1))
        b = random_psd(dim, rank=rb, seed=derive_seed(salt, dim, i, 2))
        yield a, b


def test_absolute_continuity_matches_domination_ladder():
    start = time.monotonic()
    disagreements = []
    for dim in (2, 3, 4, 5):
        for i, (a, b) in enumerate(_rank_cycled_pairs(dim, 500, salt=1101)):
            for x, y, tag in ((a, b, "ab"), (b, a, "ba")):
                if is_abs_continuous(x, y) != _dominated_within_2_60(x, y):
                    disagreements.append((dim, i, tag))
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _unit_height_direction(column) -> Matrix:
    # scale the witness so its largest entry has unit size; the dyad f f*
    # then needs only a modest multiple of either operator to sit below it
    entries = [column.entry(i, 0) for i in range(column.rows)]
    pivot = max(entries, key=lambda z: z.norm_sq())
    return column.scale(GaussianRational.coerce(1) / pivot)


def test_singularity_agrees_with_common_minorant_witness():
    start = time.monotonic()
    disagreements = []
    for dim in (2, 3, 4, 5):
        for i, (a, b) in enumerate(_rank_cycled_pairs(dim, 125, salt=1102)):
            inter = subspace_intersect(a.range(), b.range())
            if is_singular(a, b):
                if inter.dim != 0:
                    disagreements.append((dim, i, "singular-with-witness"))
                continue
            if inter.dim == 0:
                disagreements.append((dim, i, "nonsingular-without-witness"))
                continue
            f = _unit_height_direction(inter.basis.take_columns([0]))
            dyad = f @ f.H
            if not psd_check(a.matrix.scale(2**60) - dyad):
                disagreements.append((dim, i, "witness-escapes-a"))
            if not psd_check(b.matrix.scale(2**60) - dyad):
                disagreements.append((dim, i, "witness-escapes-b"))
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _operator_pool():
    pool = []
    for flavor in ("linear", "conjugate"):
        for dim in (2, 3, 4, 5):
            for i in range(5):
                seed = derive_seed(7300, dim, i, 0 if flavor == "linear" else 1)
                pool.append(random_semilinear(dim, seed, flavor=flavor))
    return pool


def test_congruence_and_weighted_spectral_maps_preserve_relations():
    start = time.monotonic()
    failures = []
    for idx, op in enumerate(_operator_pool()):
        congruence = PreserverSpec.congruence(op)
        rep = verify_relation_preservation(congruence, trials=1000, seed=derive_seed(7301, idx))
        if not rep.passed:
            failures.append(("congruence", idx, rep.violations[:3]))
        weighted = PreserverSpec.form_iv(op, WeightFamily.seeded(derive_seed(7302, idx)))
        rep = verify_relation_preservation(
            weighted, trials=1000, seed=derive_seed(7303, idx), tol=1e-8
        )
        if not rep.passed:
            failures.append(("weighted", idx, rep.violations[:3]))
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 180.0, f"took {elapsed:.1f}s"


def test_image_ranges_are_the_transported_ranges():
    failures = []
    for idx, op in enumerate(_operator_pool()):
        trials = 3 * (op.dim + 1)  # three samples at every rank
        congruence = PreserverSpec.congruence(op)
        rep = verify_range_form(congruence, trials=trials, seed=derive_seed(7401, idx))
        if not (rep.passed and rep.samples == trials):
            failures.append(("congruence", idx, rep.violations[:3]))
        weighted = PreserverSpec.form_iv(op, WeightFamily.seeded(derive_seed(7402, idx)))
        rep = verify_range_form(weighted, trials=trials, seed=derive_seed(7403, idx), tol=1e-8)
        if not (rep.passed and rep.samples == trials):
            failures.append(("weighted", idx, rep.violations[:3]))
    assert failures == []


def test_wild_maps_preserve_relations_while_moving_invertibles():
    failures = []
    for dim in (2, 3, 4):
        spec = make_wild_map(derive_seed(7500, dim), dim)
        rep = verify_relation_preservation(spec, trials=1000, seed=derive_seed(7501, dim))
        if not rep.passed:
            failures.append((dim, rep.violations[:3]))
        moved = 0
        for i in range(100):
            a = random_psd(dim, rank=dim, seed=derive_seed(7502, dim, i))
            if apply_map(spec, a).matrix != a.matrix:
                moved += 1
        assert moved >= 90, f"wild map fixed too many invertibles at dim {dim}: {moved}/100"
    assert failures == []


def test_line_action_reconstructs_the_operator():
    start = time.monotonic()
    for flavor in ("linear", "conjugate"):
        for dim in (3, 4, 5, 6):
            for i in range(25):
                seed = derive_seed(7600, dim, i, 0 if flavor == "linear" else 1)
                op = random_semilinear(dim, seed, flavor=flavor)
                line_map = induced_line_map(PreserverSpec.congruence(op))
                rec = reconstruct_semilinear(line_map)
                assert rec.flavor == flavor
                scale = projective_scalar(rec.t, op.t)
                assert scale is not None and bool(scale), (
                    f"reconstruction not proportional at dim {dim}, seed {seed}"
                )
                report = verify_projectivity(line_map, trials=20, seed=derive_seed(7601, dim, i))
                assert report.passed, report.failures[:3]
    counterexample = verify_projectivity(swap_counterexample_line_map(3), trials=20, seed=4)
    assert not counterexample.passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_decomposition_invariants_and_maximality():
    start = time.monotonic()
    for dim in (2, 3, 4):
        for i in range(100):
            ra = 1 + i % dim
            rb = 1 + (i // dim) % dim
            a = random_psd(dim, rank=ra, seed=derive_seed(7700, dim, i, 1), backend="float")
            b = random_psd(dim, rank=rb, seed=derive_seed(7700, dim, i, 2), backend="float")
            dec = decompose(a, b, tol=1e-8)
            check = verify_decomposition(dec, a, trials=500, seed=derive_seed(7701, dim, i), tol=1e-8)
            assert check.passed and check.maximality_violations == 0, (
                f"dim {dim}, instance {i}: {check.to_dict()}"
            )
    # degenerate shapes: an invertible base absorbs everything ...
    for dim in (2, 3, 4):
        for i in range(10):
            a = random_psd(dim, rank=i % (dim + 1), seed=derive_seed(7702, dim, i), backend="float")
            b = random_psd(dim, rank=dim, seed=derive_seed(7703, dim, i), backend="float")
            dec = decompose(a, b, tol=1e-8)
            scale = 1.0 + float(np.abs(a.matrix.array).max())
            assert float(np.abs((dec.ac_part.matrix - a.matrix).array).max()) <= 1e-8 * scale
            assert float(np.abs(dec.singular_part.matrix.array).max()) <= 1e-8 * scale
    # ... and a singular pair keeps nothing
    for dim in (2, 3, 4):
        for i in range(10):
            ea, eb = random_pair_with_relation(dim, "singular", seed=derive_seed(7704, dim, i))
            a, b = ea.to_float(), eb.to_float()
            dec = decompose(a, b, tol=1e-8)
            scale = 1.0 + float(np.abs(a.matrix.array).max())
            assert float(np.abs(dec.ac_part.matrix.array).max()) <= 1e-8 * scale
            assert float(np.abs((dec.singular_part.matrix - a.matrix).array).max()) <= 1e-8 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"took {elapsed:.1f}s"


def _well_conditioned(m: Matrix) -> bool:
    s = np.linalg.svd(m.to_float().array, compute_uv=False)
    if not s.size or s[0] == 0.0:
        return True
    cutoff = s[0] * max(m.rows, m.cols) * np.finfo(np.float64).eps
    nonzero = s[s > cutoff]
    return bool(nonzero.size == 0 or nonzero[-1] / s[0] > 1e-6)


def test_backends_agree_on_every_boolean_relation():
    accepted = 0
    attempt = 0
    mismatches = []
    while accepted < 200:
        assert attempt < 1000, "conditioning filter rejected too many instances"
        dim = 2 + attempt % 4
        a = random_psd(dim, rank=1 + attempt % dim, seed=derive_seed(7800, attempt, 1))
        b = random_psd(dim, rank=1 + (attempt // dim) % dim, seed=derive_seed(7800, attempt, 2))
        attempt += 1
        if not (_well_conditioned(a.matrix) and _well_conditioned(b.matrix)):
            continue
        accepted += 1
        exact = analyze_pair(a, b).to_dict()
        floats = analyze_pair(a.to_float(), b.to_float()).to_dict()
        for field in BOOL_FIELDS:
            if exact[field] != floats[field]:
                mismatches.append((attempt - 1, field, exact[field], floats[field]))
    assert mismatches == []


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "psdcone.cli", *argv],
        capture_output=True,
        cwd=ROOT,
        timeout=300,
    )


def test_cli_battery_is_reproducible_and_examples_match():
    argv = ("suite", "--dims", "2..4", "--trials", "200", "--seed", "7")
    first = _run_cli(*argv)
    second = _run_cli(*argv)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["passed"] is True and report["failures"] == 0

    analyzed = _run_cli(
        "analyze", str(SAMPLES / "diag10.json"), str(SAMPLES / "diag11.json")
    )
    assert analyzed.returncode == 0
    assert analyzed.stdout == (SAMPLES / "analyze_diag10_diag11.json").read_bytes()
