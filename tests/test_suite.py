"""The suite's sections can fail, and ``--skip-float`` skips exactly the float work."""

import dataclasses
import json

import pytest

import psdcone.lebesgue as lebesgue
import psdcone.preserver as preserver
import psdcone.suite as suite
from psdcone.cli import main
from psdcone.linalg import FLOAT, Subspace
from psdcone.preserver import PreserverSpec


def test_backend_agreement_records_a_disagreement(monkeypatch, capsys):
    # a float report that disagrees with the exact one on singularity alone,
    # its other fields equal, must fail the section, the report and the CLI
    analyze_pair = suite.analyze_pair

    def disagreeing(a, b, *args):
        rep = analyze_pair(a, b, *args)
        return dataclasses.replace(rep, singular=not rep.singular) if a.backend == FLOAT else rep

    monkeypatch.setattr(suite, "analyze_pair", disagreeing)
    report = suite.run_suite([2], trials=8, seed=1)
    section = report["sections"]["backend_agreement"]
    assert section["failures"] == section["checks"] > 0
    assert section["first_failures"][0].endswith("backends disagree")
    assert report["failures"] == section["failures"] and report["passed"] is False

    code = main(["suite", "--dims", "2", "--trials", "8", "--seed", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["sections"]["backend_agreement"] == section


def _lattice_off_by_one(monkeypatch):
    # dim_range_sum is the one report field the backend comparison leaves out
    analyze_pair = suite.analyze_pair

    def off_by_one(*args):
        rep = analyze_pair(*args)
        return dataclasses.replace(rep, dim_range_sum=rep.dim_range_sum + 1)

    monkeypatch.setattr(suite, "analyze_pair", off_by_one)
    return "rank lattice identity broken"


def _singularity_never_seen(monkeypatch):
    monkeypatch.setattr(suite, "is_singular", lambda *args: False)
    return "empty intersection but pair not flagged singular"


def _image_singularity_flipped(monkeypatch):
    range_relations = preserver.range_relations

    def flipped(*args):
        inter, ab, ba, singular = range_relations(*args)
        return inter, ab, ba, not singular

    monkeypatch.setattr(preserver, "range_relations", flipped)
    return None


def _transport_lands_everywhere(monkeypatch):
    monkeypatch.setattr(preserver, "column_space", lambda m, **kw: Subspace.full(m.rows, m.backend))
    return "congruence range covariance broken"


def _scalar_never_found(monkeypatch):
    monkeypatch.setattr(suite, "projective_scalar", lambda *args: None)
    return "reconstructed operator is not a scalar multiple"


def _domination_refused(monkeypatch):
    is_abs_continuous = lebesgue.is_abs_continuous
    monkeypatch.setattr(lebesgue, "is_abs_continuous", lambda *args: not is_abs_continuous(*args))
    return "dominated part not dominated"


@pytest.mark.parametrize("name, fault", [
    ("relations", _lattice_off_by_one),
    ("witnesses", _singularity_never_seen),
    ("maps", _image_singularity_flipped),
    ("range_form", _transport_lands_everywhere),
    ("projective", _scalar_never_found),
    ("lebesgue", _domination_refused),
])
def test_each_section_records_an_injected_fault(name, fault, monkeypatch, capsys):
    # one predicate the section reads, broken: the section, the report and
    # the CLI must all fail.  The Lebesgue section's part records read the
    # decomposition check's ac_ok, so a wrong ≪ shows in them as well
    label = fault(monkeypatch)
    # at seed 3 the first Lebesgue pair has an a.c. part of rank 2
    report = suite.run_suite([3], trials=8, seed=3)
    section = report["sections"][name]
    if name == "maps":
        failed = sum(d["violations"] for per_dim in section.values() for d in per_dim.values())
    else:
        failed = section["failures"]
        assert any(note.endswith(label) for note in section["first_failures"])
    assert failed > 0
    assert report["passed"] is False

    code = main(["suite", "--dims", "3", "--trials", "8", "--seed", "3"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["sections"][name] == section


def test_skip_float_skips_form_iv_and_the_float_sections_only(monkeypatch):
    # congruence and wild maps still run; every weighted (form_iv) map, the
    # Lebesgue splits and the backend comparison are left out
    form_iv = PreserverSpec.form_iv
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return form_iv(*args, **kwargs)

    monkeypatch.setattr(PreserverSpec, "form_iv", counted)
    sections = {}
    for skip in (False, True):
        built.clear()
        sections[skip] = suite.run_suite([3], trials=8, seed=1, skip_float=skip)["sections"]
        assert bool(built) is not skip
    full, skipped = sections[False], sections[True]

    assert skipped["maps"]["form_iv"] == {"skipped": True}
    for name in ("congruence", "wild"):
        assert skipped["maps"][name] == full["maps"][name]
        assert skipped["maps"][name]["3"]["trials"] > 0
    assert full["maps"]["form_iv"]["3"]["image_backend"] == FLOAT
    # one weighted check per dimension leaves range_form and projective
    for name in ("range_form", "projective"):
        assert skipped[name]["checks"] == full[name]["checks"] - 1
    for name in ("lebesgue", "backend_agreement"):
        assert skipped[name] == {"skipped": True}
        assert full[name]["checks"] > 0
