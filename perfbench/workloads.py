"""The benchmark's seeded workloads.

Each builder takes the run's seed and returns one *pass*: a fixed list of
operations whose mix (kinds, dimensions, ranks, trial counts) is the same for
every seed; only the random entries change.  A run repeats whole passes, so
every run measures the same mix.  Each operation carries

* ``args()``  -- its operands, generated afresh from their seeds by the
  library's own generators, outside the timed span.  No library object is
  reused from one operation to the next, so nothing an operator caches
  carries over from an earlier pass, and whatever a generator attaches to
  what it builds is there when the operation runs;
* ``op(*args)`` -- the timed call into the library;
* ``check(result)`` -- the correctness gate, run outside the timed span;
* ``in_process`` -- for an operation that runs a child process, the same
  call made in this interpreter, which the layer tracer can see into.

Library functions are looked up on the ``psdcone`` package at call time, so
the layer tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import psdcone as pc

ROOT = Path(__file__).resolve().parent.parent

#: relation fields compared between the exact and float backends
BOOL_FIELDS = ("leq_ab", "leq_ba", "abs_cont_ab", "abs_cont_ba", "singular", "same_range_class")
LADDER = 2**60
TOL = 1e-8


@dataclass
class Item:
    label: str
    args: Callable[[], tuple]
    op: Callable[..., Any]
    check: Callable[[Any], bool]
    in_process: Callable[..., Any] | None = None


def _seeds(workload: str, seed: int) -> Callable[[], int]:
    rng = random.Random(f"{workload}:{seed}")
    return lambda: rng.getrandbits(48)


def _sampling_seeds(workload: str) -> Callable[[], int]:
    """Seeds for the verifiers' own sampling, the same for every run seed.

    A verifier draws its sample pairs, ranks included, from its seed, and
    its cost follows those ranks.  Fixing that seed makes the sampled rank
    mix part of the fixed input mix, like the trial count; the run seed
    still draws every operator the library is asked about.
    """
    return _seeds(workload + "/sampling", 0)


def _psd(dim, rank, seed, backend=pc.EXACT):
    return lambda: pc.random_psd(dim, rank, seed, backend=backend)


# ----------------------------------------------------------------------
# exact-relations: elimination-heavy analysis of exact pairs
# ----------------------------------------------------------------------


def _relations_op(a, b):
    report = pc.analyze_pair(a, b)
    ladder_ab = pc.leq(a, b.scaled(LADDER))
    ladder_ba = pc.leq(b, a.scaled(LADDER))
    inter = pc.subspace_intersect(a.range(), b.range())
    return report, ladder_ab, ladder_ba, inter.dim


def _relations_item(label, make, requested):
    def check(result):
        report, ladder_ab, ladder_ba, inter_dim = result
        return (
            requested(report)
            and report.abs_cont_ab == ladder_ab
            and report.abs_cont_ba == ladder_ba
            and report.dim_range_intersection == inter_dim
        )

    return Item(label, make, _relations_op, check)


_REQUESTED = {
    "ac": lambda r: r.abs_cont_ab,
    "singular": lambda r: r.singular,
    "incomparable": lambda r: not (r.abs_cont_ab or r.abs_cont_ba or r.singular),
}


def exact_relations(seed: int, tiny: bool) -> list[Item]:
    next_seed = _seeds("exact-relations", seed)
    items = []
    for dim in (2, 3) if tiny else (2, 3, 4, 5, 6):
        for ra in range(dim + 1):
            for rb in range(dim + 1):
                a, b = _psd(dim, ra, next_seed()), _psd(dim, rb, next_seed())
                requested = lambda r, ra=ra, rb=rb: (r.rank_a, r.rank_b) == (ra, rb)
                items.append(_relations_item(f"ranks/d{dim}", lambda a=a, b=b: (a(), b()), requested))
        kinds = ("ac", "singular", "incomparable") if dim >= 3 else ("ac", "singular")
        for kind in kinds:
            for _ in range(2):
                make = lambda dim=dim, kind=kind, s=next_seed(): pc.random_pair_with_relation(dim, kind, s)
                items.append(_relations_item(f"{kind}/d{dim}", make, _REQUESTED[kind]))
    return items


# ----------------------------------------------------------------------
# exact-maps: map verifiers and line-map round trips (exact matmul)
# ----------------------------------------------------------------------


def _verify_item(label, make_spec, trials, seed):
    return Item(
        label,
        lambda: (make_spec(),),
        lambda s: pc.verify_relation_preservation(s, trials=trials, seed=seed, tol=TOL),
        lambda rep: rep.passed and rep.trials == trials,
    )


def _round_trip_op(t, trials, seed):
    line_map = pc.induced_line_map(pc.PreserverSpec.congruence(t))
    rec = pc.reconstruct_semilinear(line_map)
    report = pc.verify_projectivity(line_map, trials=trials, seed=seed)
    return t, rec, report


def _round_trip_check(result):
    t, rec, report = result
    scale = pc.projective_scalar(rec.t, t.t)
    return rec.flavor == t.flavor and scale is not None and bool(scale) and report.passed


def exact_maps(seed: int, tiny: bool) -> list[Item]:
    next_seed = _seeds("exact-maps", seed)
    sampling = _sampling_seeds("exact-maps")
    trials, per_kind, round_trips = (2, 1, 1) if tiny else (3, 6, 3)
    items = []
    for dim in (2, 3) if tiny else (2, 3, 4, 5, 6):
        for k in range(per_kind):
            flavor = pc.FLAVORS[k % 2]
            make = lambda dim=dim, s=next_seed(), flavor=flavor: pc.PreserverSpec.congruence(
                pc.random_semilinear(dim, s, flavor=flavor)
            )
            items.append(_verify_item(f"congruence/d{dim}", make, trials, sampling()))
            make = lambda dim=dim, s=next_seed(), w=next_seed(), flavor=flavor: pc.PreserverSpec.form_iv(
                pc.random_semilinear(dim, s, flavor=flavor), pc.WeightFamily.seeded(w)
            )
            items.append(_verify_item(f"form_iv/d{dim}", make, trials, sampling()))
            make = lambda dim=dim, s=next_seed(): pc.make_wild_map(s, dim)
            items.append(_verify_item(f"wild/d{dim}", make, trials, sampling()))
    for dim in (3,) if tiny else (3, 4, 5, 6):
        for k in range(round_trips):
            flavor = pc.FLAVORS[(dim + k) % 2]
            make = lambda dim=dim, s=next_seed(), flavor=flavor, tr=sampling(): (
                pc.random_semilinear(dim, s, flavor=flavor), trials, tr
            )
            items.append(Item(f"round_trip/d{dim}", make, _round_trip_op, _round_trip_check))
    return items


# ----------------------------------------------------------------------
# float-spectral: Lebesgue splits, form_iv images, float relations
# ----------------------------------------------------------------------


def _spectral_op(a, b, spec, trials, seed):
    dec = pc.decompose(a, b, tol=TOL)
    check = pc.verify_decomposition(dec, a, trials=trials, seed=seed, tol=TOL)
    image = pc.relation_triple(pc.apply_map(spec, a), pc.apply_map(spec, b), TOL)
    report = pc.analyze_pair(a, b, TOL)
    return check, image, report


def _spectral_item(label, make_pair, make_spec, trials, seed, expected):
    def check(result):
        dec_check, image, report = result
        triple = (report.abs_cont_ab, report.abs_cont_ba, report.singular)
        return (
            dec_check.passed
            and dec_check.maximality_violations == 0
            and image == triple
            and expected(report)
        )

    return Item(label, lambda: make_pair() + (make_spec(), trials, seed), _spectral_op, check)


def _generic_relations(ra, rb, dim):
    """Relations of independent random ranges: they meet in max(0, ra+rb-dim) dims."""
    return lambda r: (r.abs_cont_ab, r.abs_cont_ba, r.singular) == (rb == dim, ra == dim, ra + rb <= dim)


def _well_conditioned(m) -> bool:
    # the same filter as the backend-agreement acceptance test: float
    # decisions are promised to match exact ones on such input only
    s = np.linalg.svd(m.to_float().array, compute_uv=False)
    if not s.size or s[0] == 0.0:
        return True
    nonzero = s[s > s[0] * max(m.rows, m.cols) * np.finfo(np.float64).eps]
    return bool(nonzero.size == 0 or nonzero[-1] / s[0] > 1e-6)


def float_spectral(seed: int, tiny: bool) -> list[Item]:
    """Integer-seeded pairs are generated exactly once here, to filter them and
    record the exact backend's relations; each operation converts them afresh."""
    next_seed = _seeds("float-spectral", seed)
    sampling = _sampling_seeds("float-spectral")
    trials = 10 if tiny else 100
    items = []
    for dim in (2, 3) if tiny else (2, 3, 4, 5, 6):
        make_spec = lambda dim=dim, s=next_seed(), w=next_seed(): pc.PreserverSpec.form_iv(
            pc.random_semilinear(dim, s, flavor=pc.FLAVORS[dim % 2]), pc.WeightFamily.seeded(w)
        )
        for ra in range(1, dim + 1):
            for rb in range(1, dim + 1):
                a = _psd(dim, ra, next_seed(), backend="float")
                b = _psd(dim, rb, next_seed(), backend="float")
                expected = _generic_relations(ra, rb, dim)
                make = lambda a=a, b=b: (a(), b())
                items.append(_spectral_item(f"float/d{dim}", make, make_spec, trials, sampling(), expected))
        made = 0
        while made < (2 if tiny else 6):
            a = _psd(dim, 1 + made % dim, next_seed())
            b = _psd(dim, 1 + (made // dim + made) % dim, next_seed())
            ea, eb = a(), b()
            if not (_well_conditioned(ea.matrix) and _well_conditioned(eb.matrix)):
                continue
            exact = pc.analyze_pair(ea, eb).to_dict()
            expected = lambda r, exact=exact: all(r.to_dict()[f] == exact[f] for f in BOOL_FIELDS)
            make = lambda a=a, b=b: (a().to_float(), b().to_float())
            items.append(_spectral_item(f"integer/d{dim}", make, make_spec, trials, sampling(), expected))
            made += 1
    return items


# ----------------------------------------------------------------------
# cli-suite: the packaged battery as users run it
# ----------------------------------------------------------------------


#: the suite seed the acceptance battery pins.  Other seeds reach a defect in
#: the Lebesgue split at this commit (with --trials 200, seeds 5 and 6 end in
#: a ValueError from PsdOperator.from_matrix and seed 12 fails the
#: decomposition check), which would make operations fail for reasons no
#: speed change touches.
SUITE_SEED = 7


def suite_argv(tiny: bool) -> list[str]:
    dims, trials = ("2", "5") if tiny else ("2..4", "5")
    return ["suite", "--dims", dims, "--trials", trials, "--seed", str(SUITE_SEED)]


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, BLAS pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, bytes, bytes]:
    """Run a child interpreter and wait for it.

    ``subprocess.run(timeout=...)`` polls for the child's exit at up to 50 ms
    intervals, which would round every timing up to that step.  Here the
    wait blocks, and a timer kills a child that overruns.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
        timer.join()
    return proc.returncode, out, err


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes, bytes]:
    """``python -m psdcone.cli <argv>`` in a child interpreter."""
    return run_child(["-m", "psdcone.cli", *argv], env, timeout=150)


def run_cli_in_process(argv: list[str], env: dict) -> tuple[int, bytes, bytes]:
    """The same invocation through ``psdcone.cli.main`` in this interpreter."""
    import psdcone.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = psdcone.cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_suite(seed: int, tiny: bool) -> list[Item]:
    argv = suite_argv(tiny)
    first: list[bytes] = []

    def check(result):
        code, out, _ = result
        if not first:
            first.append(out)
        return code == 0 and json.loads(out)["passed"] is True and out == first[0]

    return [Item("suite", lambda: (argv, child_env()), run_cli, check, run_cli_in_process)]


BUILDERS = {
    "exact-relations": exact_relations,
    "exact-maps": exact_maps,
    "float-spectral": float_spectral,
    "cli-suite": cli_suite,
}
