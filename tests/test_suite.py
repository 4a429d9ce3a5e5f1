"""The suite's sections can fail, and ``--skip-float`` skips exactly the float work."""

import dataclasses
import json

import psdcone.suite as suite
from psdcone.cli import main
from psdcone.linalg import FLOAT
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
