"""JSON file formats for matrices and map descriptions.

Matrix document::

    {
      "backend": "exact" | "float",
      "rows": 2,
      "cols": 2,
      "data": [[[re, im], ...], ...]       # one [re, im] cell per entry
    }

Exact cells hold rational strings "p/q" or "p" (ASCII digits, p optionally
signed) or integers; float cells hold finite numbers.  Writing is canonical:
exact parts always carry an explicit denominator, keys are sorted, and
documents end with a newline, so byte-for-byte comparison of regenerated
files is meaningful.

Map document::

    {
      "kind": "congruence" | "form_iv" | "wild" | "composite",
      "dimension": 3,
      "T": <matrix document>,              # congruence, form_iv
      "flavor": "linear" | "conjugate",    # congruence, form_iv
      "z_seed": 7,                         # form_iv
      "seed": 7,                           # wild
      "parts": [<map documents>]           # composite
    }

Every reader turns any defect of its input into a :class:`MatrixFileError`:
one JSON parser serves strings and files, and a map document's values (a
singular T, an unknown flavor) are checked by the objects they build.  Composite
documents are read flat (see :class:`PreserverSpec`), and so written back flat.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import MatrixFileError
from .linalg import EXACT, FLOAT, Matrix, SemilinearOperator
from .preserver import (
    KIND_COMPOSITE,
    KIND_CONGRUENCE,
    KIND_FORM_IV,
    KIND_WILD,
    KINDS,
    PreserverSpec,
    WeightFamily,
    make_wild_map,
)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def matrix_to_obj(m: Matrix) -> dict:
    if m.backend == EXACT:
        data = [[list(v.to_strings()) for v in row] for row in m.exact_rows]
    else:
        data = [[[z.real, z.imag] for z in row] for row in m.array.tolist()]
    return {"backend": m.backend, "rows": m.rows, "cols": m.cols, "data": data}


def _cell_error(i: int, j: int, why: str) -> MatrixFileError:
    return MatrixFileError(f"row {i}, column {j}: {why}")


def _parse_rational(value, i: int, j: int) -> Fraction:
    if isinstance(value, bool):
        raise _cell_error(i, j, f"expected a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):  # no decimals, exponents or spaces
                return Fraction(value)
        except (ValueError, ZeroDivisionError):  # a zero denominator, over 4,300 digits
            pass
        raise _cell_error(i, j, f"bad rational {value!r}")
    raise _cell_error(i, j, f"expected a rational string, got {value!r}")


def _parse_float_part(value, i: int, j: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _cell_error(i, j, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise _cell_error(i, j, "integer beyond the double range") from None
    if not math.isfinite(out):
        raise _cell_error(i, j, "non-finite entry")
    return out


def matrix_from_obj(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix document must be a JSON object")
    backend = obj.get("backend")
    if backend not in (EXACT, FLOAT):
        raise MatrixFileError(f"unknown backend {backend!r}")
    rows = obj.get("rows")
    cols = obj.get("cols")
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise MatrixFileError("rows must be a positive integer")
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 0:
        raise MatrixFileError("cols must be a non-negative integer")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError("data must hold one list per row")
    grid = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFileError(f"row {i} must hold {cols} cells")
        out_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise _cell_error(i, j, "each cell is a [re, im] pair")
            if backend == EXACT:
                out_row.append((_parse_rational(cell[0], i, j), _parse_rational(cell[1], i, j)))
            else:
                out_row.append(
                    complex(_parse_float_part(cell[0], i, j), _parse_float_part(cell[1], i, j))
                )
        grid.append(out_row)
    if backend == EXACT:
        return Matrix.exact(grid)
    return Matrix.from_float(grid)


def _parse_json(load, source):
    """``load(source)`` with every JSON fault a :class:`MatrixFileError`."""
    try:
        return load(source)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, runaway nesting
        raise MatrixFileError(f"invalid JSON: {exc}") from None


def loads_matrix(text: str) -> Matrix:
    return matrix_from_obj(_parse_json(json.loads, text))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return _parse_json(json.load, fh)


def read_matrix(path) -> Matrix:
    return matrix_from_obj(_read_json(path))


def write_matrix(path, m: Matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(matrix_to_obj(m)))


# ----------------------------------------------------------------------
# map descriptions
# ----------------------------------------------------------------------


def spec_to_obj(spec: PreserverSpec) -> dict:
    out: dict = {"kind": spec.kind, "dimension": spec.dimension}
    if spec.kind in (KIND_CONGRUENCE, KIND_FORM_IV):
        out["T"] = matrix_to_obj(spec.operator.t)
        out["flavor"] = spec.operator.flavor
    if spec.kind == KIND_FORM_IV:
        out["z_seed"] = spec.weights.seed
    if spec.kind == KIND_WILD:
        out["seed"] = spec.wild_seed
    if spec.kind == KIND_COMPOSITE:
        out["parts"] = [spec_to_obj(p) for p in spec.parts]
    return out


def _require_seed(obj, key: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MatrixFileError(f"{key} must be an integer")
    return value


def spec_from_obj(obj) -> PreserverSpec:
    """The map a document describes; any defect of the document is a MatrixFileError."""
    try:
        return _spec_from_obj(obj)
    except MatrixFileError:
        raise
    except RecursionError:  # composites nested deeper than this reader can walk
        raise MatrixFileError("composite maps nest too deep to read") from None
    except ValueError as exc:  # e.g. a singular T, an unknown flavor or a negative weight seed
        raise MatrixFileError(str(exc)) from None


def _spec_from_obj(obj) -> PreserverSpec:
    if not isinstance(obj, dict):
        raise MatrixFileError("map document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise MatrixFileError(f"unknown map kind {kind!r}")
    dimension = obj.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise MatrixFileError("dimension must be a positive integer")
    if kind in (KIND_CONGRUENCE, KIND_FORM_IV):
        if "T" not in obj:
            raise MatrixFileError(f"{kind} needs a T matrix")
        operator = SemilinearOperator(matrix_from_obj(obj["T"]), obj.get("flavor", "linear"))
        if kind == KIND_CONGRUENCE:
            spec = PreserverSpec.congruence(operator)
        else:
            weights = WeightFamily.seeded(_require_seed(obj, "z_seed"))
            spec = PreserverSpec.form_iv(operator, weights)
    elif kind == KIND_WILD:
        spec = make_wild_map(_require_seed(obj, "seed"), dimension)
    else:
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise MatrixFileError("composite needs a non-empty parts list")
        spec = PreserverSpec.composite([_spec_from_obj(p) for p in parts])
    if spec.dimension != dimension:
        raise MatrixFileError(
            f"declared dimension {dimension} does not match the map ({spec.dimension})"
        )
    return spec


def read_spec(path) -> PreserverSpec:
    return spec_from_obj(_read_json(path))


def write_spec(path, spec: PreserverSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(spec_to_obj(spec)))
