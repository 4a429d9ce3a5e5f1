"""Command-line behaviour: exit codes, stdout stability, file outputs."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psdcone import (
    Matrix,
    PreserverSpec,
    SemilinearOperator,
    WeightFamily,
    matrix_to_obj,
    random_psd,
    random_semilinear,
    write_matrix,
    write_spec,
)
from psdcone.cli import _count, _parse_dims, _tolerance, main
from psdcone.io import matrix_from_obj, spec_from_obj
from psdcone.preserver import KINDS

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argument errors leave through the parser
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err


def test_analyze_mixed_backends_need_a_flag(tmp_path, capsys):
    exact = tmp_path / "e.json"
    floaty = tmp_path / "f.json"
    write_matrix(exact, Matrix.exact([[1, 0], [0, 1]]))
    write_matrix(floaty, Matrix.exact([[2, 0], [0, 2]]).to_float())
    code, out, err = run_cli(capsys, "analyze", str(exact), str(floaty))
    assert code == 2 and out == "" and "--backend" in err
    code, out, err = run_cli(capsys, "analyze", str(exact), str(floaty), "--backend", "float")
    assert code == 0
    assert json.loads(out)["leq_ab"] is True
    assert "min c with A <= c B" in err


def test_analyze_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "no-such.json", "also-missing.json")
    assert code == 2 and out == "" and "error" in err


def test_analyze_rejects_non_psd_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_matrix(bad, Matrix.exact([[0, 1], [1, 0]]))
    code, out, err = run_cli(capsys, "analyze", str(bad), str(bad))
    assert code == 2 and out == ""


def test_decompose_writes_both_parts(tmp_path, capsys):
    a = random_psd(3, rank=2, seed=41, backend="float")
    b = random_psd(3, rank=2, seed=42, backend="float")
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(pa, a.matrix)
    write_matrix(pb, b.matrix)
    code, out, err = run_cli(capsys, "decompose", str(pa), str(pb))
    assert code == 0
    doc = json.loads(out)
    assert doc["check"]["passed"] is True
    assert doc["ac_rank"] + doc["singular_rank"] >= a.rank
    assert Path(doc["files"]["ac"]) == tmp_path / "a.ac.json"
    assert (tmp_path / "a.ac.json").exists() and (tmp_path / "a.sing.json").exists()


def test_decompose_converts_exact_input_with_a_note(tmp_path, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(pa, Matrix.exact([[1, 1], [1, 1]]))
    write_matrix(pb, Matrix.exact([[1, 0], [0, 0]]))
    code, out, err = run_cli(
        capsys, "decompose", str(pa), str(pb), "--out-prefix", str(tmp_path / "split")
    )
    assert code == 0
    assert "converted exact input" in err
    doc = json.loads(out)
    assert doc["ac_rank"] == 0 and doc["singular_rank"] == 1
    assert (tmp_path / "split.ac.json").exists()


def test_map_apply_stdout_and_file(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(spec_path, PreserverSpec.congruence(random_semilinear(2, 8)))
    operand = tmp_path / "a.json"
    write_matrix(operand, Matrix.exact([[1, 0], [0, 0]]))
    code, out, err = run_cli(capsys, "map", "apply", str(spec_path), str(operand))
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "exact" and doc["rows"] == 2
    assert "image rank 1" in err

    out_path = tmp_path / "image.json"
    code, out, err = run_cli(
        capsys, "map", "apply", str(spec_path), str(operand), "--out", str(out_path)
    )
    assert code == 0 and out == "" and out_path.exists()


def test_map_apply_spectral_converts_exact_operands(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(
        spec_path,
        PreserverSpec.form_iv(random_semilinear(2, 8), WeightFamily.seeded(5)),
    )
    operand = tmp_path / "a.json"
    write_matrix(operand, Matrix.exact([[2, 0], [0, 1]]))
    code, out, err = run_cli(capsys, "map", "apply", str(spec_path), str(operand))
    assert code == 0
    assert "converted exact input" in err
    assert json.loads(out)["backend"] == "float"


def test_map_verify_reports_dim2_sections(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(spec_path, PreserverSpec.congruence(random_semilinear(2, 13)))
    code, out, _ = run_cli(
        capsys, "map", "verify", str(spec_path), "--trials", "20", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["preservation"]["violations"] == []
    assert doc["range_form"]["passed"] is True
    assert doc["dim2"]["passed"] is True


def test_map_verify_skips_dim2_in_higher_dimension(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(spec_path, PreserverSpec(kind="wild", dimension=3, wild_seed=6))
    code, out, _ = run_cli(
        capsys, "map", "verify", str(spec_path), "--trials", "16", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim2"] is None and doc["passed"] is True


def test_map_verify_checks_the_range_form_of_a_mixed_backend_composite(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    parts = [
        PreserverSpec.congruence(random_semilinear(3, 21)),
        PreserverSpec.congruence(random_semilinear(3, 22, flavor="conjugate").to_float()),
        PreserverSpec(kind="wild", dimension=3, wild_seed=4),
    ]
    write_spec(spec_path, PreserverSpec.composite(parts))
    code, out, _ = run_cli(
        capsys, "map", "verify", str(spec_path), "--trials", "16", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["range_form"]["map_kind"] == "composite"
    assert doc["range_form"]["passed"] is True and doc["range_form"]["violations"] == []
    assert doc["passed"] is True


def test_reconstruct_round_trip_via_files(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(
        spec_path,
        PreserverSpec.congruence(random_semilinear(3, 30, flavor="conjugate")),
    )
    code, out, _ = run_cli(
        capsys, "reconstruct", str(spec_path), "--trials", "12", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "conjugate"
    assert doc["projectivity"]["passed"] is True
    assert doc["T"]["backend"] == "exact"


def test_reconstruct_notes_the_dim2_limitation(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    write_spec(spec_path, PreserverSpec.congruence(random_semilinear(2, 30)))
    code, out, _ = run_cli(capsys, "reconstruct", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["projectivity"] is None
    assert "dimension 2" in doc["note"]


def test_reconstruct_of_an_irrational_float_map_fails(tmp_path, capsys):
    # 1/√2 above the diagonal puts some image line at no rational point
    r = 1 / np.sqrt(2)
    spec_path = tmp_path / "map.json"
    t = Matrix.from_float([[1.0, r, r], [0.0, 1.0, r], [0.0, 0.0, 1.0]])
    write_spec(spec_path, PreserverSpec.congruence(SemilinearOperator(t)))
    code, out, err = run_cli(capsys, "reconstruct", str(spec_path))
    assert (code, out) == (1, "")
    assert err == (
        "not induced by an invertible semilinear operator: "
        "direction does not sit at a rational point\n"
    )


def test_reconstruct_in_dimension_one_is_a_usage_error(tmp_path, capsys):
    # a line map on a one-dimensional space used to end in a ValueError traceback
    path = tmp_path / "wild1.json"
    path.write_text(json.dumps({"kind": "wild", "dimension": 1, "seed": 3}))
    code, out, err = run_cli(capsys, "reconstruct", str(path))
    assert_usage_error(code, out, err)
    assert "dimension" in err


def test_reconstruct_bad_spec_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text('{"kind": "congruence", "dimension": 2}\n')
    code, out, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 2 and "needs a T matrix" in err


def test_map_verify_singular_operator_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    doc = {"kind": "congruence", "dimension": 2, "T": matrix_to_obj(Matrix.exact([[1, 1], [1, 1]]))}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "map", "verify", str(path))
    assert_usage_error(code, out, err)
    assert "singular" in err


def test_map_verify_negative_weight_seed_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    write_spec(path, PreserverSpec.form_iv(random_semilinear(2, 8), WeightFamily.seeded(5)))
    doc = json.loads(path.read_text())
    doc["z_seed"] = -3
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "map", "verify", str(path))
    assert_usage_error(code, out, err)
    assert "non-negative" in err


@pytest.mark.parametrize("dims", ["0", ",", "0..2", "1"])
def test_suite_rejects_empty_or_non_positive_dims(capsys, dims):
    code, out, err = run_cli(capsys, "suite", "--dims", dims, "--trials", "2")
    assert_usage_error(code, out, err)
    assert "--dims" in err


def test_suite_rejects_zero_trials(capsys):
    code, out, err = run_cli(capsys, "suite", "--dims", "2", "--trials", "0")
    assert_usage_error(code, out, err)
    assert "--trials" in err


def test_map_verify_rejects_negative_trials(capsys):
    # a negative count used to check nothing and still report a pass
    code, out, err = run_cli(
        capsys, "map", "verify", str(SAMPLES / "congruence3.json"), "--trials", "-1"
    )
    assert_usage_error(code, out, err)
    assert "--trials" in err


@pytest.mark.parametrize("command", ["reconstruct"])
def test_negative_trials_are_a_usage_error_and_zero_is_legal(capsys, command):
    # a negative count used to skip the sampled checks
    spec = str(SAMPLES / "congruence3.json")
    code, out, err = run_cli(capsys, command, spec, "--trials", "-5")
    assert_usage_error(code, out, err)
    assert "--trials" in err
    # zero samples still leave the deterministic checks to run
    code, out, _ = run_cli(capsys, command, spec, "--trials", "0")
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_decompose_has_no_sampling_options(tmp_path, capsys, option):
    # maximality is decided, not sampled, so decompose takes no sample budget
    # or seed; passing one is a usage error rather than a silent no-op
    code, out, err = run_cli(
        capsys, "decompose", str(SAMPLES / "diag10.json"), str(SAMPLES / "diag11.json"),
        "--out-prefix", str(tmp_path / "split"), option, "5",
    )
    assert_usage_error(code, out, err)
    assert option in err


# ----------------------------------------------------------------------
# exit-code contract: malformed input ends with exit 2, empty stdout and one
# stderr line, never exit 1 or a traceback
# ----------------------------------------------------------------------


def call_main(argv):
    """``main`` in-process with its output captured (usable under hypothesis)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def rejected_by(parse):
    def rejected(text):
        try:
            parse(text)
        except (argparse.ArgumentTypeError, ValueError):
            return True
        return False

    return rejected


WORDS = st.text(alphabet="0123456789+-.,eEx ", max_size=8)
CONG3 = str(SAMPLES / "congruence3.json")
DIAG10 = str(SAMPLES / "diag10.json")
DIAG11 = str(SAMPLES / "diag11.json")


def _retired(text):
    """The parser of an option a command no longer has: every value is refused."""
    raise ValueError(f"retired option, got {text!r}")


# command words before the numeric options, and the parser of each option;
# decompose's sampling options went with the sampled maximality oracle, so
# any value of them must end as a usage error that names the option
COMMANDS = {
    "analyze": (["analyze", DIAG10, DIAG11], {"--tol": _tolerance}),
    "decompose": (
        ["decompose", DIAG10, DIAG11],
        {"--trials": _retired, "--seed": _retired, "--tol": _tolerance},
    ),
    "reconstruct": (["reconstruct", CONG3], {"--trials": _count(0), "--seed": int}),
    "map verify": (
        ["map", "verify", CONG3],
        {"--trials": _count(1), "--seed": int, "--tol": _tolerance},
    ),
    "suite": (
        ["suite", "--dims", "2"],
        {"--trials": _count(1), "--seed": int, "--tol": _tolerance},
    ),
}
# Python 3.11 argparse turns "--opt=--" into an empty list and skips the type
BAD_WORDS = ("--", "nan", "inf", "-inf", "0", "-1", "")


def numeric_argv(tmp_path_factory, command, option, bad):
    words = COMMANDS[command][0]
    prefix = ["--out-prefix", str(tmp_path_factory.getbasetemp() / "split")]
    return words + (prefix if command == "decompose" else []) + [f"{option}={bad}"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(pick=st.integers(0, 2), bad=WORDS)
@example(pick=0, bad="--").via("a dropped value")
@example(pick=1, bad="--").via("a dropped value")
@example(pick=2, bad="--").via("a dropped value")
@example(pick=2, bad="nan").via("a non-finite tolerance")
def test_malformed_numbers_are_usage_errors(tmp_path_factory, command, pick, bad):
    options = COMMANDS[command][1]
    option = sorted(options)[pick % len(options)]
    assume(rejected_by(options[option])(bad))
    code, out, err = call_main(numeric_argv(tmp_path_factory, command, option, bad))
    assert_usage_error(code, out, err)
    assert option in err


NUMERIC_CASES = [
    (command, option, bad)
    for command, (_, options) in sorted(COMMANDS.items())
    for option in sorted(options)
    for bad in BAD_WORDS
    if rejected_by(options[option])(bad)
]


@pytest.mark.parametrize("command,option,bad", NUMERIC_CASES)
def test_dropped_and_out_of_range_numbers_are_usage_errors(tmp_path_factory, command, option, bad):
    code, out, err = call_main(numeric_argv(tmp_path_factory, command, option, bad))
    assert_usage_error(code, out, err)
    assert option in err


def test_tolerance_type_accepts_only_finite_positive_floats():
    assert _tolerance("1e-6") == 1e-6 and _tolerance(" 2 ") == 2.0
    for bad in ("nan", "inf", "-inf", "0", "-0.0", "-1", "", "--", "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _tolerance(bad)


@settings(max_examples=40, deadline=None)
@given(dims=WORDS.filter(rejected_by(_parse_dims)))
@example(dims="--").via("a dropped value")
def test_malformed_dims_are_usage_errors(dims):
    code, out, err = call_main(["suite", f"--dims={dims}", "--trials", "1"])
    assert_usage_error(code, out, err)
    assert "--dims" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
MATRIX_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "backend": st.sampled_from(["exact", "float"]) | JSON_VALUES,
        "rows": st.integers(0, 2) | JSON_VALUES,
        "cols": st.integers(0, 2) | JSON_VALUES,
        "data": JSON_VALUES,
    },
)
SPEC_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS) | JSON_VALUES},
    optional={
        "dimension": st.integers(0, 3) | JSON_VALUES,
        "T": MATRIX_DOCS,
        "flavor": st.sampled_from(["linear", "conjugate"]) | JSON_VALUES,
        "z_seed": JSON_VALUES,
        "seed": JSON_VALUES,
        "parts": st.lists(JSON_VALUES, max_size=2),
    },
)


def file_bytes(docs):
    """Raw bytes, JSON values and near-miss documents of one format."""
    return st.one_of(
        st.binary(max_size=24),
        JSON_VALUES.map(json.dumps).map(str.encode),
        docs.map(json.dumps).map(str.encode),
    )


def rejected_file(reader):
    def rejected(raw):
        try:
            reader(json.loads(raw.decode("utf-8")))
        except Exception:  # the file cannot be read as one
            return True
        return False

    return rejected


SPEC_COMMANDS = [
    ["map", "verify", "{}", "--trials", "2"],
    ["map", "apply", "{}", DIAG10],
    ["reconstruct", "{}", "--trials", "2"],
]
MATRIX_COMMANDS = [
    ["analyze", "{}", DIAG11],
    ["decompose", DIAG10, "{}"],
    ["map", "apply", CONG3, "{}"],
]


@pytest.mark.parametrize("template", SPEC_COMMANDS, ids=["map verify", "map apply", "reconstruct"])
@settings(max_examples=30, deadline=None)
@given(raw=file_bytes(SPEC_DOCS).filter(rejected_file(spec_from_obj)))
def test_malformed_spec_files_are_usage_errors(tmp_path_factory, template, raw):
    path = tmp_path_factory.getbasetemp() / "spec.json"
    path.write_bytes(raw)
    code, out, err = call_main([str(path) if w == "{}" else w for w in template])
    assert_usage_error(code, out, err)


@pytest.mark.parametrize("template", MATRIX_COMMANDS, ids=["analyze", "decompose", "map apply"])
@settings(max_examples=30, deadline=None)
@given(raw=file_bytes(MATRIX_DOCS).filter(rejected_file(matrix_from_obj)))
def test_malformed_matrix_files_are_usage_errors(tmp_path_factory, template, raw):
    path = tmp_path_factory.getbasetemp() / "matrix.json"
    path.write_bytes(raw)
    code, out, err = call_main([str(path) if w == "{}" else w for w in template])
    assert_usage_error(code, out, err)


@pytest.mark.parametrize("command", ["analyze", "map verify"])
@pytest.mark.parametrize("content", ["directory", "latin-1", "deep nesting"])
def test_unreadable_input_files_are_usage_errors(tmp_path, capsys, command, content):
    # each of these used to end in a traceback: IsADirectoryError,
    # UnicodeDecodeError and RecursionError escaped the reader
    path = tmp_path / "input.json"
    if content == "directory":
        path.mkdir()
    elif content == "latin-1":
        path.write_bytes('{"kind": "wild", "dimension": 2, "seed": 1, "n": "é"}'.encode("latin-1"))
    else:
        path.write_text("[" * 100_000)
    argv = {"analyze": ["analyze", str(path), DIAG11], "map verify": ["map", "verify", str(path)]}
    code, out, err = run_cli(capsys, *argv[command])
    assert_usage_error(code, out, err)


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("exact", ["analyze", "{}", "{}"]),
        ("exact", ["analyze", "{}", "{}", "--backend", "float"]),
        ("exact", ["decompose", "{}", DIAG10]),
        ("float", ["analyze", "{}", "{}"]),
        ("float", ["decompose", "{}", DIAG10]),
        ("float", ["analyze", "{}", "{}", "--backend", "exact"]),
        ("float3", ["analyze", "{}", "{}"]),
        ("float3", ["decompose", "{}", "{d3}"]),
    ],
)
def test_entries_beyond_double_range_are_usage_errors(tmp_path, capsys, entry, argv):
    # an exact 10^400 used to escape the exact-to-float conversion as an
    # OverflowError traceback with exit 1; a finite 1e308 overflows when
    # hermitized, and used to print numpy warnings and blame a non-finite entry.
    # Entries that hermitize fine can still have a top eigenvalue beyond the
    # double range: 1e308 read exactly, then converted for the domination
    # constant, used to report a constant of 0.0 where A = B; 8e307 filling a
    # 3x3 matrix did the same in float, and ended a decompose in a traceback.
    path = tmp_path / "huge.json"
    if entry == "exact":
        write_matrix(path, Matrix.exact([[10**400, 0], [0, 0]]))
    elif entry == "float":
        write_matrix(path, Matrix.from_float([[1e308, 1e308], [1e308, 1e308]]))
    else:
        write_matrix(path, Matrix.from_float(np.full((3, 3), 8e307)))
    d3 = tmp_path / "d3.json"
    write_matrix(d3, Matrix.from_float(8e307 * np.eye(3)))
    argv = [{"{}": str(path), "{d3}": str(d3)}.get(w, w) for w in argv]
    if argv[0] == "decompose":
        argv += ["--out-prefix", str(tmp_path / "split")]
    code, out, err = run_cli(capsys, *argv)
    assert_usage_error(code, out, err)
    assert ("too large" if entry == "exact" else "overflow") in err


@pytest.mark.parametrize("spec", ["congruence3.json", "form_iv3.json"])
def test_map_image_beyond_double_range_is_a_usage_error(tmp_path, capsys, spec):
    # 8e306·I is a valid operand, but its image under either sample map
    # overflows; that used to end in a ValueError traceback with exit 1
    big = tmp_path / "big.json"
    write_matrix(big, Matrix.from_float(8e306 * np.eye(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "map", "apply", str(SAMPLES / spec), str(big))
    assert_usage_error(code, out, err)
    assert "overflows the double range" in err


def test_map_verify_image_overflowing_mid_block_is_a_usage_error(tmp_path, capsys):
    # c·I with c² = 2.5e306 maps the 3×3 operands of the preservation
    # trials 0-7 (seed 1) into range, but an entry of 41 in trial 8 overflows
    # once hermitized (see tests/test_preserver.py): the block of float
    # images still ends in one usage-error line
    path = tmp_path / "big_congruence.json"
    t = SemilinearOperator(Matrix.from_float(np.sqrt(2.5e306) * np.eye(3)))
    write_spec(path, PreserverSpec.congruence(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "map", "verify", str(path), "--trials", "10", "--seed", "1")
    assert_usage_error(code, out, err)
    assert "the map's image overflows the double range" in err


def test_loewner_difference_beyond_half_the_double_range_is_a_usage_error(tmp_path, capsys):
    # ran a ⊆ ran b, so the order is decided on B - A, whose entries reach
    # 1.5e308; the Loewner test used to end in a ValueError traceback with exit 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a, Matrix.from_float(8e307 * np.array([[1.0, 1.0], [1.0, 1.0]])))
    write_matrix(
        b, Matrix.from_float(7e307 * np.array([[1.0, -1.0], [-1.0, 1.0]]) + 1e307 * np.eye(2))
    )
    code, out, err = run_cli(capsys, "analyze", str(a), str(b))
    assert_usage_error(code, out, err)
    assert "overflow" in err


def test_singular_pair_near_the_double_range_is_decided_by_its_ranges(tmp_path, capsys):
    # B - A would overflow, but a ⊥ b refutes both orders before it is formed
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a, Matrix.from_float(8e307 * np.array([[1.0, 1.0], [1.0, 1.0]])))
    write_matrix(b, Matrix.from_float(8e307 * np.array([[1.0, -1.0], [-1.0, 1.0]])))
    code, out, err = run_cli(capsys, "analyze", str(a), str(b))
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["singular"]
    assert not report["leq_ab"] and not report["leq_ba"]


def test_decompose_near_the_double_range_warns_nothing(tmp_path, capsys):
    # the sampled oracle's Frobenius norms overflowed here and printed a numpy
    # RuntimeWarning; the decided check must stay as quiet
    big = tmp_path / "big.json"
    write_matrix(big, Matrix.from_float(8e306 * np.eye(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "decompose", str(big), str(big), "--out-prefix", str(tmp_path / "split")
        )
    assert code == 0 and err == ""
    assert json.loads(out)["check"]["passed"]


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_float_file_is_a_usage_error(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"backend": "float", "rows": 1, "cols": 1, "data": [[[%s, 0.0]]]}' % token
    )
    code, out, err = run_cli(capsys, "analyze", str(path), str(path))
    assert_usage_error(code, out, err)
    assert "non-finite" in err


@pytest.mark.parametrize(
    "document, argv",
    [
        ("matrix", ["analyze", "{}", "{}"]),
        ("spec", ["map", "verify", "{}", "--trials", "2"]),
        ("spec", ["map", "apply", "{}", DIAG10]),
        ("spec", ["reconstruct", "{}"]),
    ],
)
def test_float_integer_beyond_the_double_range_is_a_usage_error(tmp_path, capsys, document, argv):
    # a float cell holding a JSON integer too large for a double used to
    # escape float() as an OverflowError traceback with exit 1
    path = tmp_path / f"{document}.json"
    t = Matrix.from_float(np.eye(2))
    if document == "matrix":
        write_matrix(path, t)
    else:
        write_spec(path, PreserverSpec.congruence(SemilinearOperator(t)))
    obj = json.loads(path.read_text())
    (obj if document == "matrix" else obj["T"])["data"][1][0][0] = 10**400
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *[str(path) if w == "{}" else w for w in argv])
    assert_usage_error(code, out, err)
    assert "row 1, column 0: integer beyond the double range" in err


FORM_IV3 = str(SAMPLES / "form_iv3.json")
FLOAT3_FULL = str(SAMPLES / "float3_full.json")
FLOAT3_RANK2 = str(SAMPLES / "float3_rank2.json")
SPLIT3 = "decompose_float3_full_float3_rank2"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["analyze", DIAG10, DIAG11], {"-": "analyze_diag10_diag11.json"}),
        (["reconstruct", CONG3], {"-": "reconstruct_congruence3.json"}),
        (
            ["suite", "--dims", "2..4", "--trials", "200", "--seed", "7"],
            {"-": "suite_dims2-4_trials200_seed7.txt"},
        ),
        (["map", "apply", FORM_IV3, FLOAT3_RANK2], {"-": "map_apply_form_iv3_float3_rank2.json"}),
        (
            ["decompose", FLOAT3_FULL, FLOAT3_RANK2, "--out-prefix", "split"],
            {
                "-": f"{SPLIT3}.json",
                "split.ac.json": f"{SPLIT3}_ac.json",
                "split.sing.json": f"{SPLIT3}_sing.json",
            },
        ),
    ],
    ids=["analyze", "reconstruct", "suite", "map-apply", "decompose"],
)
def test_cli_output_matches_packaged_golden(tmp_path, monkeypatch, capsys, argv, golden):
    # stdout ("-") and every file these invocations write are pinned byte for
    # byte; the float goldens pin the bits of square roots and ranges too
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for name, sample in golden.items():
        got = out if name == "-" else (tmp_path / name).read_text()
        assert got == (SAMPLES / sample).read_text(), name


def test_suite_stdout_is_deterministic(capsys):
    argv = ("suite", "--dims", "2", "--trials", "12", "--seed", "3")
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True and doc["failures"] == 0
    assert "finished in" in err1


def test_suite_skip_float_marks_sections(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--dims", "2", "--trials", "8", "--seed", "1", "--skip-float"
    )
    assert code == 0
    assert json.loads(out)["skip_float"] is True


def test_parse_dims_forms():
    assert _parse_dims("3") == [3]
    assert _parse_dims("2,4,5") == [2, 4, 5]
    assert _parse_dims("2..5") == [2, 3, 4, 5]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_dims("5..2")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_dims("two")
    for bad in ("0", ",", "0..2", "-1,2", "1", "1..3"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_dims(bad)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "psdcone.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "suite" in proc.stdout
