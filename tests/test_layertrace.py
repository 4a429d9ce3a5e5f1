"""The benchmark's layer trace still finds every name it wraps.

``perfbench/layertrace.py`` patches library functions and methods by name
(``z_for``, ``Matrix.pinv``, ``apply_map``, …).  Installing its tracer fails
as soon as one of those names is gone, so this test keeps a rename from
surfacing only in traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from psdcone import preserver
from psdcone.generators import random_psd, random_semilinear
from psdcone.preserver import PreserverSpec, WeightFamily

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_attributes_the_weights_and_uninstalls():
    layertrace = _load_layertrace()
    originals = (preserver.apply_map, WeightFamily.__dict__["z_for"])
    spec = PreserverSpec.form_iv(random_semilinear(3, 4), WeightFamily.seeded(2))
    a = random_psd(3, 2, seed=5).to_float()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert (preserver.apply_map, WeightFamily.__dict__["z_for"]) != originals
        image = tracer.op(preserver.apply_map, spec, a)
    finally:
        tracer.uninstall()
    assert (preserver.apply_map, WeightFamily.__dict__["z_for"]) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "op" and "preserver.apply_map.form_iv" in names
    assert names.count("preserver.z_for") == 1  # one call weighs the whole stack
    assert np.array_equal(image.matrix.array, preserver.apply_map(spec, a).matrix.array)
