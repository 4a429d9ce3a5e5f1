"""Command-line front end.

Exit codes: 0 on success, 1 when a verified mathematical property fails
(relation violated, reconstruction impossible, decomposition check failed,
suite failures), 2 for unusable input (bad files, mismatched backends,
malformed arguments).

Canonical results go to stdout as deterministic JSON; human-oriented notes,
tables and timing go to stderr, so stdout is stable enough to diff.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import (
    BackendError,
    DimensionMismatchError,
    GenerationError,
    LineMapError,
    MatrixFileError,
    NotSemilinearError,
)
from .io import (
    dumps_canonical,
    matrix_to_obj,
    read_matrix,
    read_spec,
    write_matrix,
)
from .lebesgue import decompose, verify_decomposition
from .linalg import DEFAULT_TOL, EXACT, FLOAT, Matrix, PsdOperator
from .preserver import apply_map, dim2_conditions, verify_range_form, verify_relation_preservation
from .projective import induced_line_map, reconstruct_semilinear, verify_projectivity
from .relations import analyze_pair
from .suite import run_suite


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _convert(m: Matrix, backend: str) -> Matrix:
    return m.to_exact() if backend == EXACT else m.to_float()


def _operand(m: Matrix, tol: float, where: str = "") -> PsdOperator:
    """``m`` as a PSD operator; a matrix that is not PSD is a file error."""
    try:
        return PsdOperator.from_matrix(m, tol)
    except ValueError as exc:
        raise MatrixFileError(f"{where}{exc}") from None


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    if args.backend:
        a, b = _convert(a, args.backend), _convert(b, args.backend)
    elif a.backend != b.backend:
        raise BackendError(
            "inputs use different backends; pass --backend exact|float to convert"
        )
    pa, pb = _operand(a, args.tol), _operand(b, args.tol)
    report = analyze_pair(pa, pb, args.tol)
    _emit(report.to_dict())
    rows = [
        ("backend", report.backend),
        ("dimension", report.dim),
        ("rank A", report.rank_a),
        ("rank B", report.rank_b),
        ("A <= B", report.leq_ab),
        ("B <= A", report.leq_ba),
        ("A << B (dominated)", report.abs_cont_ab),
        ("B << A (dominated)", report.abs_cont_ba),
        ("A _|_ B (singular)", report.singular),
        ("same range class", report.same_range_class),
        ("dim(ran A + ran B)", report.dim_range_sum),
        ("dim(ran A ^ ran B)", report.dim_range_intersection),
        ("min c with A <= c B", report.min_domination_constant),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        _note(f"{label.ljust(width)}  {value}")
    return 0


# ----------------------------------------------------------------------
# decompose
# ----------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    pa, pb = _operand(a.to_float(), args.tol), _operand(b.to_float(), args.tol)
    if a.backend == EXACT or b.backend == EXACT:
        _note("note: converted exact input to the float backend for the decomposition")
    dec = decompose(pa, pb, args.tol)
    check = verify_decomposition(dec, pa, trials=args.trials, seed=args.seed, tol=args.tol)
    prefix = args.out_prefix or os.path.splitext(args.a)[0]
    ac_path = f"{prefix}.ac.json"
    sing_path = f"{prefix}.sing.json"
    write_matrix(ac_path, dec.ac_part.matrix)
    write_matrix(sing_path, dec.singular_part.matrix)
    _emit(
        {
            "ac_rank": dec.ac_part.rank,
            "singular_rank": dec.singular_part.rank,
            "files": {"ac": ac_path, "singular": sing_path},
            "check": check.to_dict(),
        }
    )
    return 0 if check.passed else 1


# ----------------------------------------------------------------------
# map apply / map verify
# ----------------------------------------------------------------------


def _cmd_map_apply(args) -> int:
    spec = read_spec(args.spec)
    m = read_matrix(args.operand)
    x = spec.operand(m)
    a = _operand(x, args.tol, f"{args.operand}: ")
    if x is not m:
        _note("note: converted exact input to the float backend for a spectral map")
    image = apply_map(spec, a)
    _note(f"image rank {image.rank} on the {image.backend} backend")
    if args.out:
        write_matrix(args.out, image.matrix)
        _note(f"wrote {args.out}")
    else:
        _emit(matrix_to_obj(image.matrix))
    return 0


def _cmd_map_verify(args) -> int:
    spec = read_spec(args.spec)
    preservation = verify_relation_preservation(
        spec, trials=args.trials, seed=args.seed, tol=args.tol
    )
    range_form = verify_range_form(
        spec, trials=max(8, args.trials // 4), seed=args.seed, tol=args.tol
    )
    out: dict = {
        "preservation": preservation.to_dict(),
        "range_form": range_form.to_dict(),
        "dim2": None,
    }
    passed = preservation.passed and range_form.passed
    if spec.dimension == 2:
        dim2 = dim2_conditions(spec, trials=args.trials, seed=args.seed, tol=args.tol)
        out["dim2"] = dim2.to_dict()
        passed = passed and dim2.passed
    out["passed"] = passed
    _emit(out)
    return 0 if passed else 1


# ----------------------------------------------------------------------
# reconstruct
# ----------------------------------------------------------------------


def _cmd_reconstruct(args) -> int:
    spec = read_spec(args.spec)
    line_map = induced_line_map(spec)
    try:
        rec = reconstruct_semilinear(line_map)
    except (NotSemilinearError, LineMapError) as exc:
        _note(f"not induced by an invertible semilinear operator: {exc}")
        return 1
    out: dict = {"T": matrix_to_obj(rec.t), "flavor": rec.flavor, "projectivity": None}
    code = 0
    if spec.dimension >= 3:
        report = verify_projectivity(line_map, trials=args.trials, seed=args.seed)
        out["projectivity"] = report.to_dict()
        code = 0 if report.passed else 1
    else:
        out["note"] = (
            "ambient dimension 2: coplanarity carries no information, so only the "
            "probe consistency of the reconstruction itself was checked"
        )
    _emit(out)
    return code


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------


def _parse_dims(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            dims = list(range(int(lo_s), int(hi_s) + 1))
        else:
            dims = [int(part) for part in text.split(",") if part.strip()]
        if not dims or min(dims) < 2:
            raise ValueError
        return dims
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot read dimension list {text!r}; use dimensions of at least 2 in "
            "forms like '3', '2,4,5' or '2..5'"
        ) from None


def _count(least: int):
    """An argparse type for integers no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {text!r}")

    return parse


def _cmd_suite(args) -> int:
    start = time.perf_counter()
    report = run_suite(
        args.dims, trials=args.trials, seed=args.seed, skip_float=args.skip_float, tol=args.tol
    )
    _emit(report)
    _note(f"suite finished in {time.perf_counter() - start:.2f}s")
    return 0 if report["passed"] else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """An argparse type for a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value > 0:
        return value
    raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="float-backend tolerance")


class _StoreOne(argparse.Action):
    """The default store action, refusing an option whose value argparse dropped.

    Python 3.11 argparse strips a lone ``--`` from ``--opt=--`` and would
    store the empty list it leaves without running the option's type.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if values == [] and self.nargs is None:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as one line on stderr, with exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOne)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psdcone",
        description="Analyze domination and singularity of PSD operator pairs, "
        "decompose against a base, and verify cone maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="relation report for a pair of PSD matrices")
    p.add_argument("a", help="matrix file for A")
    p.add_argument("b", help="matrix file for B")
    p.add_argument("--backend", choices=(EXACT, FLOAT), help="convert both inputs first")
    _add_tol(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decompose", help="split A into a part dominated by B plus a singular part")
    p.add_argument("a", help="matrix file for A")
    p.add_argument("b", help="matrix file for the base B")
    p.add_argument("--out-prefix", help="prefix for the two output files")
    p.add_argument("--trials", type=_count(0), default=200, help="maximality sampling budget")
    p.add_argument("--seed", type=int, default=0)
    _add_tol(p)
    p.set_defaults(func=_cmd_decompose)

    pm = sub.add_parser("map", help="apply or verify a cone map")
    msub = pm.add_subparsers(dest="map_command", required=True)

    p = msub.add_parser("apply", help="image of a PSD matrix under a map")
    p.add_argument("spec", help="map description file")
    p.add_argument("operand", help="matrix file")
    p.add_argument("--out", help="write the image here instead of stdout")
    _add_tol(p)
    p.set_defaults(func=_cmd_map_apply)

    p = msub.add_parser("verify", help="check what a map preserves, on seeded samples")
    p.add_argument("spec", help="map description file")
    p.add_argument("--trials", type=_count(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_tol(p)
    p.set_defaults(func=_cmd_map_verify)

    p = sub.add_parser(
        "reconstruct", help="recover the operator behind a map's action on lines"
    )
    p.add_argument("spec", help="map description file")
    p.add_argument("--trials", type=_count(0), default=50, help="random coplanarity triples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("suite", help="seeded property battery across the package")
    p.add_argument("--dims", type=_parse_dims, default=[2, 3, 4], help="e.g. 3, '2,4' or '2..5'")
    p.add_argument("--trials", type=_count(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-float", action="store_true", help="exact-backend sections only")
    _add_tol(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: a missing, unreadable or unwritable path
    except (MatrixFileError, OSError, BackendError, DimensionMismatchError) as exc:
        _note(f"error: {exc}")
        return 2
    except (NotSemilinearError, LineMapError, GenerationError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
