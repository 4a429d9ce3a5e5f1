"""Mutant battery: each mutant injects one known fault into the cone maps
with ``monkeypatch``, and ``psdcone map verify`` must fail the map it breaks.

Each row of ``MUTANTS`` records which of the verifiers that command runs
(relation preservation, range form, and the dimension-2 conditions on 2×2
maps) fail its mutant.  Every map passes ``map verify`` before its mutant is
injected.
"""

import json

import numpy as np
import pytest

from psdcone import cli, preserver
from psdcone.generators import random_semilinear
from psdcone.io import write_spec
from psdcone.linalg import EXACT, Matrix, PsdOperator, SemilinearOperator
from psdcone.preserver import PreserverSpec, WeightFamily, make_wild_map


def _drop_conjugation(monkeypatch):
    """A conjugate operator acts on columns as if it were linear."""
    monkeypatch.setattr(SemilinearOperator, "apply_matrix", lambda self, m: self.t @ m)


def _null_invertible_direction(monkeypatch):
    """Float images of invertible operands lose e₁: P X P with P = I − e₁e₁*."""
    stack = preserver._map_stack

    def nulled(spec, x, ranks):
        out = stack(spec, x, ranks).copy()
        full = np.asarray(ranks) == spec.dimension
        out[full, 0, :] = 0.0
        out[full, :, 0] = 0.0
        return out

    monkeypatch.setattr(preserver, "_map_stack", nulled)


def _drop_factor_column(monkeypatch):
    """An exact congruence image loses the last column of its factor T G."""
    congruence = preserver._apply_congruence

    def dropped(op, a):
        image = congruence(op, a)
        g = image.factor
        if g is None:
            return image
        if g.cols == 1:
            return PsdOperator.zero(a.dim, EXACT)
        return PsdOperator.from_factor(g.take_columns(range(g.cols - 1)))

    monkeypatch.setattr(preserver, "_apply_congruence", dropped)


def _reverse_composite(monkeypatch):
    """A composite applies its parts last to first."""
    apply = preserver.apply_map

    def reversed_parts(spec, a):
        if spec.kind != preserver.KIND_COMPOSITE:
            return apply(spec, a)
        for part in reversed(spec.parts):
            a = apply(part, a)
        return a

    monkeypatch.setattr(preserver, "apply_map", reversed_parts)


def _identity_inducing_operator(monkeypatch):
    """Every map names the identity as the operator that induces it."""
    identity = property(lambda self: SemilinearOperator(Matrix.identity(self.dimension, EXACT)))
    monkeypatch.setattr(PreserverSpec, "inducing_operator", identity)


def _wild_moves_singular(monkeypatch):
    """A wild map sends a non-invertible A to V A V* instead of fixing it."""
    wild = preserver._apply_wild

    def moved(a, v, exponent):
        if a.is_invertible:
            return wild(a, v, exponent)
        return PsdOperator.certified(v @ a.matrix @ v.H, a.rank)

    monkeypatch.setattr(preserver, "_apply_wild", moved)


def _congruence(dim, seed, flavor="linear"):
    return PreserverSpec.congruence(random_semilinear(dim, seed, flavor=flavor))


#: mutant -> (the map it breaks, the fault, the verifiers that fail it)
MUTANTS = {
    "drop_conjugation": (
        lambda: _congruence(3, 91, "conjugate"),
        _drop_conjugation,
        {"range_form"},
    ),
    "null_invertible_direction": (
        lambda: PreserverSpec.form_iv(random_semilinear(2, 92), WeightFamily.seeded(3)),
        _null_invertible_direction,
        {"preservation", "range_form", "dim2"},
    ),
    "drop_factor_column": (
        lambda: _congruence(2, 93),
        _drop_factor_column,
        {"preservation", "range_form", "dim2"},
    ),
    "reverse_composite": (
        lambda: PreserverSpec.composite([_congruence(3, 94), _congruence(3, 95, "conjugate")]),
        _reverse_composite,
        {"range_form"},
    ),
    "identity_inducing_operator": (
        lambda: _congruence(3, 96),
        _identity_inducing_operator,
        {"range_form"},
    ),
    "wild_moves_singular": (
        lambda: make_wild_map(97, 3),
        _wild_moves_singular,
        {"range_form"},
    ),
}


def _failing_verifiers(spec, tmp_path, capsys) -> set:
    """The verifiers of ``psdcone map verify`` that fail ``spec``."""
    path = tmp_path / "map.json"
    write_spec(path, spec)
    code = cli.main(["map", "verify", str(path), "--trials", "40", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    failed = {
        name
        for name in ("preservation", "range_form", "dim2")
        if report[name] is not None and not report[name]["passed"]
    }
    assert code == (1 if failed else 0)
    return failed


@pytest.mark.parametrize("mutant", MUTANTS)
def test_map_verify_fails_every_mutant(mutant, monkeypatch, tmp_path, capsys):
    make_spec, inject, caught_by = MUTANTS[mutant]
    assert _failing_verifiers(make_spec(), tmp_path, capsys) == set()
    inject(monkeypatch)
    assert _failing_verifiers(make_spec(), tmp_path, capsys) == caught_by
