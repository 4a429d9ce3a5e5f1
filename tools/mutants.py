"""One-line mutants of psdcone's decision thresholds, each run against tests.

Usage: ``python3 tools/mutants.py [--tier1] [NAME ...]``.  Each entry of
:data:`MUTANTS` names a file, a text that must occur exactly once in it, its
replacement and a pytest selection.  For every chosen entry (all of them when
no NAME is given; a NAME matches any entry whose name contains it) the script
copies the checkout it sits in to a fresh temporary directory, applies that
one edit there, runs the selection with the copy's ``src/`` first on the
path, and prints whether the mutant was killed (some test failed) or
survived (every selected test passed), with the failing tests.  ``--tier1``
runs the whole ``tests/`` directory for every entry instead of its own
selection.  The checkout itself is never edited.

An entry whose old text does not occur exactly once is refused before any
test runs, so a mutant cannot go stale silently.  The exit code is 0 when
every mutant was killed, 1 when one survived and 2 on a refused entry or a
selection pytest could not run.  Running the mutants is an opt-in check,
not part of Tier-1: one full-suite run per mutant takes about a minute on a
2-vCPU host.  Tier-1 does check that no entry is refused
(``tests/test_mutant_table.py``, which the mutant runs leave out), so a
refactor that moves a threshold must move its mutant too.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: checks the unmutated table, which every mutant's copy breaks by design
TABLE_TEST = "tests/test_mutant_table.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = (
    Mutant(
        "ldl-pivot-first-nonzero",
        "src/psdcone/linalg/matrix.py",
        "        p = max(diag)\n",
        "        p = next((d for d in diag if d), 0)\n",
        ("tests/test_report_golden.py", "tests/test_linalg_exact.py"),
    ),
    Mutant(
        "ldl-trailing-block-passes",
        "src/psdcone/linalg/matrix.py",
        "return (not any(re[i][j] or im[i][j] for i in active for j in active), rank)",
        "return (True, rank)",
        ("tests/test_linalg_exact.py", "tests/test_cli.py"),
    ),
    Mutant(
        "image-rank-cut-sqrt-tol",
        "src/psdcone/preserver.py",
        "eigval > tol * eigval[:, -1:]",
        "eigval > tol ** 0.5 * eigval[:, -1:]",
        ("tests/test_preserver.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "snap-tol-x1e4",
        "src/psdcone/projective.py",
        "_SNAP_TOL = 1e-11",
        "_SNAP_TOL = 1e-7",
        ("tests/test_projective.py",),
    ),
    Mutant(
        "ac-ok-10tol",
        "src/psdcone/lebesgue.py",
        "_dominated_residual(ac, p_base) <= tol",
        "_dominated_residual(ac, p_base) <= 10 * tol",
        ("tests/test_lebesgue.py",),
    ),
    Mutant(
        "common-dim-strict",  # near-equivalent: a sine of exactly tol is measure zero
        "src/psdcone/linalg/subspace.py",
        "np.sum(principal_sines(u, v) <= tol)",
        "np.sum(principal_sines(u, v) < tol)",
        ("tests/test_subspace.py", "tests/test_relations.py"),
    ),
    Mutant(
        "common-dim-10tol",
        "src/psdcone/linalg/subspace.py",
        "np.sum(principal_sines(u, v) <= tol)",
        "np.sum(principal_sines(u, v) <= 10 * tol)",
        ("tests/test_subspace.py",),
    ),
    Mutant(
        "preimage-no-floor",
        "src/psdcone/linalg/subspace.py",
        "tol * max(1.0, s[0])",
        "tol * s[0]",
        ("tests/test_subspace.py",),
    ),
    Mutant(
        "maximality-slack-1e-6",
        "src/psdcone/lebesgue.py",
        "_MAXIMALITY_SLACK = 1e-12",
        "_MAXIMALITY_SLACK = 1e-6",
        ("tests/test_lebesgue.py",),
    ),
    Mutant(
        "psd-dip-10cut",
        "src/psdcone/linalg/psd.py",
        "if float(eig[0]) < -cut * scale:",
        "if float(eig[0]) < -10 * cut * scale:",
        ("tests/test_linalg_float.py",),
    ),
    Mutant(
        "psd-rank-10cut",
        "src/psdcone/linalg/psd.py",
        "int(np.sum(eig > cut * scale))",
        "int(np.sum(eig > 10 * cut * scale))",
        ("tests/test_linalg_float.py",),
    ),
    Mutant(
        "sum-ok-100tol",
        "src/psdcone/lebesgue.py",
        "sum_ok = float(hermitian_norm(total)) <= tol * scale_a",
        "sum_ok = float(hermitian_norm(total)) <= 100 * tol * scale_a",
        ("tests/test_lebesgue.py",),
    ),
    Mutant(
        "float-hermitian-100tol",
        "src/psdcone/linalg/psd.py",
        "np.abs(a - a.conj().T)) <= cut * scale",
        "np.abs(a - a.conj().T)) <= 100 * cut * scale",
        ("tests/test_linalg_float.py",),
    ),
    Mutant(
        "pivot-cut-1e-3",
        "src/psdcone/projective.py",
        "_PIVOT_CUT = 1e-6",
        "_PIVOT_CUT = 1e-3",
        ("tests/test_projective.py",),
    ),
    Mutant(
        "psd-default-cut-twice",
        "src/psdcone/linalg/psd.py",
        "default_rank_tol(m.rows, m.cols)",
        "default_rank_tol(m.rows, m.cols, scale)",
        ("tests/test_linalg_float.py",),
    ),
    Mutant(
        "line-map-rank-unchecked",
        "src/psdcone/projective.py",
        "image.dim != 1",
        "image.dim == 0",
        ("tests/test_projective.py",),
    ),
)


def refused(mutants) -> list[str]:
    """Why each entry whose old text does not occur exactly once in its file is refused."""
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return out


def run(m: Mutant, selection) -> tuple[int, list[str]]:
    """Pytest's exit code and failing tests for ``m`` applied to a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="psdcone-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = copy / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--ignore", TABLE_TEST, *selection],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    failed = [line[len("FAILED "):] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only entries whose name contains one of these")
    parser.add_argument("--tier1", action="store_true", help="run all of tests/ for every entry")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    if not chosen:
        print("no mutant matches", file=sys.stderr)
        return 2
    bad = refused(chosen)
    if bad:
        print("refused:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    status = 0
    for m in chosen:
        code, failed = run(m, ("tests",) if args.tier1 else m.selection)
        if code == 0:
            verdict, status = "SURVIVED", max(status, 1)
        elif code == 1:
            verdict = "killed"
        else:
            verdict, status = f"ERROR (pytest exit {code})", 2
        print(f"{m.name:<26} {verdict}")
        for test in failed:
            print(f"    {test}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
