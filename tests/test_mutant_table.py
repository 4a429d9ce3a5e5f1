"""Every threshold mutant of ``tools/mutants.py`` still finds its target.

The tool refuses an entry whose old text no longer occurs exactly once in its
file, but it runs only on request.  This test applies the same refusal rule
in Tier-1, so a refactor that moves or rewrites a threshold fails here rather
than leaving its mutant to break silently.
"""

import importlib.util
import sys
from pathlib import Path

_MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_no_mutant_is_refused(monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants", _MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)  # dataclasses look it up
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.refused(mutants.MUTANTS) == []
