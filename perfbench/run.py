"""psdcone benchmark: seeded workloads, end-to-end metrics and a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-maps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their times
are host-adjusted (see ``HostClock``).  ``--trace 1`` first times three
child-process CLI invocations, then repeats untraced passes for a third of
the time, then installs the layer tracer (``layertrace.py``) and repeats
traced passes, at least two, and reports the per-layer metrics of one pass;
the counts of every traced pass must agree exactly.  Workload descriptions,
the layers each one loads and the predictions per layer live in
``workloads.json``.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (sample counts, p99, raw times, host speed, error rate, failures
and the machine fingerprint).  Spans of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every child interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact-relations", "exact-maps", "float-spectral", "cli-suite")
SETUP_REPEATS = 11
CLI_CALLS = 3  # untraced CLI invocations per traced run


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: what the reference computation takes on an unloaded 2-vCPU x86_64 host
#: (Python 3.11, numpy 2.4); adjusted times are stated at that speed
REF_NOMINAL_S = 0.5e-3
CLOCK_PERIOD_S = 0.03  # least time between two host-speed samples
_REF_MATRIX = np.eye(4) + 0.1


def _reference() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * 7919 + 1, i * i + 3)
    m = _REF_MATRIX
    for _ in range(20):
        np.linalg.eigh(m)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    Each vCPU of a shared host changes speed on its own, within seconds, so
    the reference only tells the speed of the CPU it ran on.  While a child
    process runs, this one waits for it, so the two never compete.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """The host's speed, sampled between operations.

    On a shared host the same code runs up to twice as slow for minutes at a
    time.  A fixed reference computation -- Fraction arithmetic and small
    numpy eigensolves, the two kinds of work psdcone does -- is timed
    between operations, at most every ``CLOCK_PERIOD_S``; each operation's
    time is scaled by ``REF_NOMINAL_S / reference time`` around it.  The reference imports
    nothing from psdcone, and the collector is off while it runs, so the
    program's own heap cannot slow it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        for _ in range(10):
            _reference()

    def sample(self) -> None:
        """Time the reference twice and keep the faster, so that a stall
        during one of them does not count."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((time.perf_counter(), min(_reference(), _reference())))
        finally:
            if was_enabled:
                gc.enable()

    def factor(self, at: float) -> float:
        """Scale for work that started at ``at``, from the mean of the samples
        either side of it: the host's average speed over that stretch."""
        k = bisect.bisect_right(self.samples, (at, float("inf")))
        near = self.samples[max(k - 1, 0) : k + 1]
        return REF_NOMINAL_S / statistics.mean(r for _, r in near)

    def adjust(self, timed: list[tuple[float, float]]) -> list[float]:
        return [elapsed * self.factor(start) for start, elapsed in timed]

    def describe(self) -> dict:
        refs = [r for _, r in self.samples]
        return {"samples": len(refs), "ref_ms_min": min(refs) * 1e3, "ref_ms_median": statistics.median(refs) * 1e3,
                "ref_ms_max": max(refs) * 1e3, "ref_nominal_ms": REF_NOMINAL_S * 1e3}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def _import_seconds(env: dict) -> float:
    import workloads

    start = time.perf_counter()
    code, _, err = workloads.run_child(["-c", "import psdcone"], env, timeout=60)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing psdcone failed: {err.decode()[-500:]}")
    return elapsed


def measure_setup(build, seed: int, tiny: bool, env: dict, repeats: int, clock: HostClock):
    """Median import time of a fresh interpreter plus median time to build the
    pass and generate every operand of it once, both host-adjusted."""
    imports, builds = [], []
    for _ in range(repeats):
        clock.sample()
        imports.append((time.perf_counter(), _import_seconds(env)))
        clock.sample()
        start = time.perf_counter()
        items = build(seed, tiny)
        for item in items:
            item.args()
        builds.append((start, time.perf_counter() - start))
    clock.sample()
    setup_s = statistics.median(clock.adjust(imports)) + statistics.median(clock.adjust(builds))
    raw_s = statistics.median(t for _, t in imports) + statistics.median(t for _, t in builds)
    return setup_s, raw_s, items


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


class Ledger:
    """Every operation's latency and verdict, plus the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, item, wrap=None) -> tuple[float, object]:
        """Latency of one operation, and its result, or None if it failed."""
        result, elapsed = None, 0.0
        try:
            args = item.args()
        except Exception as exc:  # operands that cannot be generated fail the operation
            error = f"operands: {type(exc).__name__}: {exc}"
        else:
            start = time.perf_counter()
            try:
                result = wrap(item.op, *args) if wrap else item.op(*args)
                error = None
            except Exception as exc:  # a raising operation is a failed one
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if error is None:
            try:
                ok = bool(item.check(result))
            except Exception as exc:
                ok, error = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok and error is None:
                error = "wrong answer"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{item.label}: {error}")
            return elapsed, None
        return elapsed, result


def timed_pass(items, ledger: Ledger, clock: HostClock, wrap=None) -> list[tuple[float, float]]:
    """Each operation's start and latency, with host-speed samples between them."""
    out = []
    for item in items:
        if time.perf_counter() - clock.samples[-1][0] > CLOCK_PERIOD_S:
            clock.sample()
        out.append((time.perf_counter(), ledger.run(item, wrap)[0]))
    return out


def warm_up(items) -> None:
    """One uncounted operation of every label, so lazy imports and first calls are paid."""
    scratch, seen = Ledger(), set()
    for item in items:
        if item.label not in seen:
            seen.add(item.label)
            scratch.run(item)


def passes_until(deadline: float, min_passes: int, one_pass) -> list:
    out = []
    while len(out) < min_passes or time.perf_counter() < deadline:
        out.append(one_pass())
    return out


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, env=env, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.decode().strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# workload runs
# ----------------------------------------------------------------------


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name, items, seconds, ledger, clock, setup) -> tuple[dict, dict]:
    """Throughput is all timed operations over their summed time.  An
    operation's latency is the median of its repetitions over the run's
    passes; p50 and p90 are taken over the operations of one pass.  All
    times are host-adjusted (``HostClock``); the detail line has them raw.
    """
    cli = name == "cli-suite"
    if not cli:  # each CLI invocation is a fresh interpreter anyway
        warm_up(items)
    deadline = time.perf_counter() + seconds
    passes = passes_until(deadline, 1, lambda: timed_pass(items, ledger, clock))
    clock.sample()

    def figures(times: list[list[float]]) -> tuple[float, float, float, float]:
        latency = [statistics.median(one[i] for one in times) for i in range(len(items))]
        ops = len(items) * len(times)
        return ops / sum(map(sum, times)), _quantile(latency, 50), _quantile(latency, 90), _quantile(latency, 99)

    throughput, p50, p90, p99 = figures([clock.adjust(one) for one in passes])
    raw = figures([[elapsed for _, elapsed in one] for one in passes])
    setup_s, raw_setup_s = setup
    metrics = {
        "throughput_ops_per_s": (throughput, "ops/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF), "MB"),
    }
    detail = {
        "ops_per_pass": len(items),
        "passes": len(passes),
        "op_samples": len(items) * len(passes),
        "op_p99_ms": p99 * 1e3,
        "raw": {"throughput_ops_per_s": raw[0], "op_p50_ms": raw[1] * 1e3, "op_p90_ms": raw[2] * 1e3,
                "op_p99_ms": raw[3] * 1e3, "setup_s": raw_setup_s},
        "host": clock.describe(),
        "error_rate": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
    }
    return metrics, detail


def combine(summaries: list[dict]) -> tuple[dict, bool]:
    """Median of the traced passes' summaries, and whether their counts agree."""
    import layertrace

    first = summaries[0]
    counts = [k for k in first if layertrace.is_count(k)]
    agree = all(s[k] == first[k] for s in summaries for k in counts)
    layers = {k: first[k] if k in counts else statistics.median(s[k] for s in summaries) for k in first}
    return layers, agree


def cli_layers(item, ledger, calls: int) -> dict:
    """Start-up and suite time of the CLI, untraced.

    ``suite.run_s`` is the median wall time of ``psdcone.cli.main`` run in
    this interpreter after a warm-up call; ``cli.startup_s`` is the median
    wall time of the same invocation in a child process minus that.  They
    describe the CLI, not the workload, so every traced run measures them
    the same way.
    """
    in_process = dataclasses.replace(item, op=item.in_process)
    warm_up([in_process])
    child = [ledger.run(item)[0] for _ in range(calls)]
    inside = [ledger.run(in_process)[0] for _ in range(calls)]
    return {
        "cli.startup_s": statistics.median(child) - statistics.median(inside),
        "suite.run_s": statistics.median(inside),
    }


def traced(name, items, seed, seconds, ledger, clock, tiny) -> tuple[dict, dict]:
    """Untraced passes for a third of the time, then traced passes, all in
    this interpreter; an operation that runs a child process runs its
    in-process form here, so the tracer sees into it."""
    import layertrace
    import workloads

    cli_item = items[0] if name == "cli-suite" else workloads.cli_suite(seed, tiny)[0]
    layers_cli = cli_layers(cli_item, ledger, CLI_CALLS)
    items = [dataclasses.replace(i, op=i.in_process) if i.in_process else i for i in items]
    warm_up(items)
    start = time.perf_counter()
    untraced = passes_until(start + seconds / 3, 1, lambda: sum(clock.adjust(timed_pass(items, ledger, clock))))
    tracer = layertrace.Tracer()
    summaries, spans = [], []

    def traced_pass():
        tracer.reset()
        wall = sum(clock.adjust(timed_pass(items, ledger, clock, tracer.op)))
        summaries.append(layertrace.summarize(tracer.spans))
        if not spans:
            spans.extend(tracer.spans)
        return wall

    tracer.install()
    try:
        walls = passes_until(start + seconds, 2, traced_pass)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps({"fields": layertrace.SPAN_FIELDS, "spans": spans}))
    layers, agree = combine(summaries)
    layers["trace.overhead_ratio"] = min(walls) / min(untraced)
    layers.update(layers_cli)
    return layers, {"counts_repeat": agree, "traced_passes": len(summaries)}


def per_layer_units(names) -> dict:
    def unit(k):
        if k.endswith(".calls") or k in ("trace.spans", "lebesgue.psd_sqrt_per_instance"):
            return "count"
        if k.endswith("_ratio") or k == "trace.coverage":
            return "ratio"
        return "s"

    return {k: unit(k) for k in names}


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> int:
    import workloads

    pin_to_one_cpu()
    clock = HostClock()
    repeats = 1 if trace else SETUP_REPEATS  # a traced run reports no set-up time
    setup_s, raw_setup_s, items = measure_setup(
        workloads.BUILDERS[name], seed, tiny, workloads.child_env(), repeats, clock
    )
    ledger = Ledger()
    if trace:
        values, detail = traced(name, items, seed, seconds, ledger, clock, tiny)
        units = per_layer_units(values)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
        correct = ledger.failed == 0 and detail["counts_repeat"]
    else:
        values, detail = end_to_end(name, items, seconds, ledger, clock, (setup_s, raw_setup_s))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        correct = ledger.failed == 0
    detail.update(workload=name, failures=ledger.failures, fingerprint=fingerprint(seed))
    print(json.dumps({"perfbench_detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool, tiny: bool) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))] + (["--tiny"] if tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[-2])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be positive")
    if not (SRC / "psdcone" / "__init__.py").is_file():
        return _fail(f"no psdcone sources under {SRC}; run from the root of a checkout")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
    sys.path.insert(0, str(SRC))
    import psdcone

    if Path(psdcone.__file__).resolve().parent != SRC / "psdcone":
        return _fail(f"imported psdcone from {psdcone.__file__}, not from {SRC}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
