"""Exact reports as a golden: every exact family of ``tools/report_sweep.py``
must hash to its committed value.

Exact reports hold no float, so these hashes are the same on every host.  A
change that moves an exact report on purpose re-pins its hash here and says
why; any other change to one fails this test.
"""

import importlib.util
from pathlib import Path

import pytest

from psdcone import EXACT

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_sweep.py"

EXACT_HASHES = {
    "exact-analyze": "77d6b318bdcfb1ed4359b2ba33c8b288ebd2e117380f2afea10e0e0f372bb4eb",
    "exact-relations": "71d0bb647406f5b2f41c3db20784dfcb2ff929348d4a12ca2b9d8f7b80b98987",
    "exact-loewner": "a1b8ca88d8dbec8751f36c3eb77591a2fe6757495ead2e79491c350bf4226096",
    "exact-subspaces": "c683973229467d1ef8b84beeee50c3d0ec20f0e9735b432f9657c10958e60643",
    "exact-maps": "4a78be605e125cabeee1eb1bdc51dddf9aca209546e4b87b21b09ef2dda74471",
    "exact-reconstruct": "e1239bdbd71a787878fc4acaff4f9608dc07807672adff3c60b038ed48f3bac0",
}


@pytest.fixture(scope="module")
def exact_hashes():
    spec = importlib.util.spec_from_file_location("report_sweep", _TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.family_hashes(EXACT)


@pytest.mark.parametrize("family", EXACT_HASHES)
def test_exact_report_family_matches_its_committed_hash(exact_hashes, family):
    assert exact_hashes[family] == EXACT_HASHES[family]


def test_every_exact_family_is_pinned(exact_hashes):
    assert set(exact_hashes) == set(EXACT_HASHES)
