"""The package's export lists name real objects, each once."""

import pytest

import psdcone
import psdcone.linalg


@pytest.mark.parametrize("module", [psdcone, psdcone.linalg], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, missing
