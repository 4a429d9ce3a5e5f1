"""Shared serialisation for the frozen verdict dataclasses of the verifiers."""

from __future__ import annotations

from dataclasses import fields


class Verdict:
    """Mixin for a frozen dataclass with a ``passed`` property.

    ``to_dict`` gives every field plus ``passed``, with tuples as lists, ready
    for canonical JSON.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        out["passed"] = self.passed
        return out
