"""File format round trips and input validation."""

import json
from fractions import Fraction

import pytest

from psdcone import (
    Matrix,
    MatrixFileError,
    PreserverSpec,
    WeightFamily,
    apply_map,
    dumps_canonical,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
    random_psd,
    random_semilinear,
    read_matrix,
    read_spec,
    spec_from_obj,
    spec_to_obj,
    write_matrix,
    write_spec,
)


def test_dumps_canonical_is_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_exact_matrix_round_trip(tmp_path):
    m = Matrix.exact([[("3/4", "-1/2"), 2], [0, ("0", "5")]])
    path = tmp_path / "m.json"
    write_matrix(path, m)
    assert read_matrix(path) == m
    # canonical writing is byte stable
    first = path.read_bytes()
    write_matrix(path, read_matrix(path))
    assert path.read_bytes() == first


def test_exact_cells_always_carry_denominators():
    obj = matrix_to_obj(Matrix.exact([[2, ("1/2", "-3")]]))
    assert obj["data"][0][0] == ["2/1", "0/1"]
    assert obj["data"][0][1] == ["1/2", "-3/1"]


def test_exact_reader_accepts_bare_integers_and_strings():
    obj = {
        "backend": "exact",
        "rows": 1,
        "cols": 3,
        "data": [[["3", "0"], [2, -1], ["-7/2", "1/3"]]],
    }
    m = matrix_from_obj(obj)
    assert m == Matrix.exact([[3, (2, -1), ("-7/2", "1/3")]])


def _exact_cell(value):
    return {"backend": "exact", "rows": 1, "cols": 1, "data": [[[value, "0"]]]}


@pytest.mark.parametrize(
    "value", ["1e100000", "0.5", " 3", "3 ", "1_000", "+-1", "1/0", "1/-2", "\u0663", "1" * 4301]
)
def test_exact_cells_take_only_signed_integers_and_fractions(value):
    # Fraction also reads decimals, exponents and padding: "1e10000000", 14
    # bytes, built 10^10,000,000 before the cell was used
    with pytest.raises(MatrixFileError, match="row 0, column 0: bad rational"):
        matrix_from_obj(_exact_cell(value))


def test_exact_cells_read_up_to_4300_digits():
    big = 10**4300 - 1
    for value, want in [("9" * 4300, big), ("-1/" + "9" * 4300, Fraction(-1, big)), ("+7/2", 3.5)]:
        assert matrix_from_obj(_exact_cell(value)).entry(0, 0).re == want


def test_float_matrix_round_trip(tmp_path):
    m = random_psd(3, rank=2, seed=11, backend="float").matrix
    path = tmp_path / "f.json"
    write_matrix(path, m)
    assert read_matrix(path) == m


def test_reader_names_the_offending_cell():
    base = {"backend": "exact", "rows": 2, "cols": 2}
    bad = dict(base, data=[[["1", "0"], ["1", "0"]], [["1", "0"], ["x", "0"]]])
    with pytest.raises(MatrixFileError, match=r"row 1, column 1"):
        matrix_from_obj(bad)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda o: o.update(backend="decimal"), "unknown backend"),
        (lambda o: o.update(rows=0), "rows must be"),
        (lambda o: o.update(rows=True), "rows must be"),
        (lambda o: o.update(data=[[["1", "0"]]]), "row 0 must hold 2 cells"),
        (lambda o: o.update(data=[[["1", "0"], ["1"]]]), r"\[re, im\] pair"),
        (lambda o: o.update(data="nope"), "one list per row"),
    ],
)
def test_malformed_matrix_documents(mangle, message):
    obj = {
        "backend": "exact",
        "rows": 1,
        "cols": 2,
        "data": [[["1", "0"], ["2", "0"]]],
    }
    mangle(obj)
    with pytest.raises(MatrixFileError, match=message):
        matrix_from_obj(obj)


def test_exact_cells_reject_booleans_and_floats():
    obj = {"backend": "exact", "rows": 1, "cols": 1, "data": [[[True, "0"]]]}
    with pytest.raises(MatrixFileError, match="rational string"):
        matrix_from_obj(obj)
    obj["data"] = [[[0.5, "0"]]]
    with pytest.raises(MatrixFileError, match="rational string"):
        matrix_from_obj(obj)


def test_float_cells_reject_non_finite_and_non_numeric():
    obj = {"backend": "float", "rows": 1, "cols": 1, "data": [[["1", 0]]]}
    with pytest.raises(MatrixFileError, match="expected a number"):
        matrix_from_obj(obj)
    # json.loads happily produces infinities; the reader must not
    m = json.loads('{"backend": "float", "rows": 1, "cols": 1, "data": [[[Infinity, 0]]]}')
    with pytest.raises(MatrixFileError, match="non-finite"):
        matrix_from_obj(m)
    # an integer too large for a double does not parse to an infinity but overflows
    obj["data"] = [[[10**400, 0]]]
    with pytest.raises(MatrixFileError, match="row 0, column 0: integer beyond the double range"):
        matrix_from_obj(obj)


def test_loads_matrix_reports_invalid_json():
    with pytest.raises(MatrixFileError, match="invalid JSON"):
        loads_matrix("{not json")


def test_loads_matrix_refuses_runaway_nesting():
    # escaped as RecursionError, while read_matrix refused the same text
    with pytest.raises(MatrixFileError, match="invalid JSON"):
        loads_matrix("[" * 100_000)


def _same_spec(a: PreserverSpec, b: PreserverSpec) -> bool:
    return spec_to_obj(a) == spec_to_obj(b)


@pytest.mark.parametrize("flavor", ["linear", "conjugate"])
def test_congruence_spec_round_trip(tmp_path, flavor):
    spec = PreserverSpec.congruence(random_semilinear(3, 21, flavor=flavor))
    path = tmp_path / "map.json"
    write_spec(path, spec)
    again = read_spec(path)
    assert _same_spec(spec, again)
    a = random_psd(3, rank=2, seed=4)
    assert apply_map(again, a).matrix == apply_map(spec, a).matrix


def test_form_iv_spec_round_trip(tmp_path):
    spec = PreserverSpec.form_iv(random_semilinear(2, 9), WeightFamily.seeded(33))
    path = tmp_path / "map.json"
    write_spec(path, spec)
    again = read_spec(path)
    assert _same_spec(spec, again)
    a = random_psd(2, rank=1, seed=5, backend="float")
    assert apply_map(again, a).matrix == apply_map(spec, a).matrix


def test_wild_and_composite_round_trip(tmp_path):
    wild = PreserverSpec(kind="wild", dimension=3, wild_seed=77)
    comp = PreserverSpec.composite(
        [PreserverSpec.congruence(random_semilinear(3, 2)), wild]
    )
    path = tmp_path / "map.json"
    write_spec(path, comp)
    again = read_spec(path)
    assert _same_spec(comp, again)
    assert again.kind == "composite" and again.parts[1].wild_seed == 77


def test_flavor_defaults_to_linear():
    spec = PreserverSpec.congruence(random_semilinear(2, 3))
    obj = spec_to_obj(spec)
    del obj["flavor"]
    assert spec_from_obj(obj).operator.flavor == "linear"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda o: o.update(kind="identity"), "unknown map kind"),
        (lambda o: o.update(dimension=0), "dimension must be"),
        (lambda o: o.update(dimension=4), "does not match the map"),
        (lambda o: o.pop("T"), "needs a T matrix"),
        (lambda o: o.update(flavor="antilinear"), "unknown flavor"),
    ],
)
def test_malformed_spec_documents(mangle, message):
    obj = spec_to_obj(PreserverSpec.congruence(random_semilinear(2, 3)))
    mangle(obj)
    with pytest.raises(MatrixFileError, match=message):
        spec_from_obj(obj)


def test_spec_seeds_must_be_integers():
    obj = spec_to_obj(
        PreserverSpec.form_iv(random_semilinear(2, 9), WeightFamily.seeded(33))
    )
    obj["z_seed"] = "33"
    with pytest.raises(MatrixFileError, match="z_seed must be an integer"):
        spec_from_obj(obj)


def _nested(depth):
    doc = {"kind": "wild", "dimension": 2, "seed": 1}
    for _ in range(depth):
        doc = {"kind": "composite", "dimension": 2, "parts": [doc]}
    return doc


def test_nested_composite_documents_are_read_and_written_flat():
    # composites are flat when built: one wild map nested 300 deep is the
    # one-level composite, and is written back as it
    spec = spec_from_obj(_nested(300))
    assert spec_to_obj(spec) == _nested(1)
    a = random_psd(2, rank=2, seed=5)
    assert apply_map(spec, a).matrix == apply_map(spec_from_obj(_nested(0)), a).matrix
    # parts nested among others are spliced in, in order
    c1, c2 = (spec_to_obj(PreserverSpec.congruence(random_semilinear(2, k))) for k in (1, 2))
    wild = _nested(0)
    doc = {"kind": "composite", "dimension": 2, "parts": [c1, dict(_nested(1), parts=[wild, c2])]}
    spec = spec_from_obj(doc)
    assert [p.kind for p in spec.parts] == ["congruence", "wild", "congruence"]
    assert spec_to_obj(spec)["parts"] == [c1, wild, c2]


@pytest.mark.parametrize("depth", [1000, 10_000])
def test_map_documents_nested_too_deep_to_read_are_refused(depth):
    with pytest.raises(MatrixFileError, match="composite maps nest too deep to read"):
        spec_from_obj(_nested(depth))


def test_composite_needs_parts():
    with pytest.raises(MatrixFileError, match="non-empty parts"):
        spec_from_obj({"kind": "composite", "dimension": 2, "parts": []})
