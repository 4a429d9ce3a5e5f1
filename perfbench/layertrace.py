"""Outside-in layer tracing for the psdcone benchmark.

The tracer wraps public entry points of the library from the outside: it
replaces each target function at *every* module binding that holds it (a
name imported with ``from ... import`` in another module is a separate
binding, and a call through an unwrapped binding would be lost), and it
wraps methods on their classes.  Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent]`` lists, in the
order they start, so a parent always precedes its children.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

import psdcone.cli  # noqa: F401  (loads every module whose bindings get patched)
import psdcone.linalg.matrix as _matrix
from psdcone.linalg.psd import PsdOperator
from psdcone.preserver import WeightFamily
from psdcone.projective import LineMap

EXACT = _matrix.EXACT
SPAN_FIELDS = ["name", "start", "end", "parent"]


def _exact_only(name):
    return lambda args: name if args[0].backend == EXACT else None


# module-level functions: (module holding the definition, attribute, span name)
FUNCTIONS = (
    ("psdcone.linalg.matrix", "psd_certify_exact", "matrix.psd_certify"),
    ("psdcone.linalg.subspace", "principal_sines", "subspace.principal_sines"),
    ("psdcone.linalg.subspace", "column_space", "subspace.column_space"),
    ("psdcone.linalg.subspace", "subspace_intersect", "subspace.intersect"),
    ("psdcone.linalg.subspace", "subspace_preimage", "subspace.preimage"),
    ("psdcone.linalg.psd", "psd_sqrt", "psd.psd_sqrt"),
    ("psdcone.generators", "random_psd", "generators.random_psd"),
    ("psdcone.generators", "random_pair_with_relation", "generators.random_pair"),
    ("psdcone.relations", "analyze_pair", "relations.analyze_pair"),
    ("psdcone.relations", "leq", "relations.leq"),
    ("psdcone.relations", "relation_triple", "relations.relation_triple"),
    ("psdcone.lebesgue", "decompose", "lebesgue.decompose"),
    ("psdcone.lebesgue", "verify_decomposition", "lebesgue.verify"),
    ("psdcone.preserver", "verify_relation_preservation", "preserver.verify"),
    ("psdcone.preserver", "verify_range_form", "preserver.verify"),
    ("psdcone.projective", "reconstruct_semilinear", "projective.reconstruct"),
    ("psdcone.projective", "verify_projectivity", "projective.verify_projectivity"),
    ("psdcone.suite", "run_suite", "suite.run_suite"),
    ("numpy.linalg", "eigh", "float.eigh"),
    ("numpy.linalg", "eigvalsh", "float.eigh"),
    ("numpy.linalg", "svd", "float.svd"),
)

# methods: (class, attribute, span name or a function of the call's args)
METHODS = (
    (_matrix.Matrix, "__matmul__", _exact_only("matrix.exact_matmul")),
    (_matrix.Matrix, "rank", _exact_only("matrix.exact_rank")),
    (_matrix.Matrix, "pivot_columns", "matrix.exact_rank"),
    (_matrix.Matrix, "rref", "matrix.rref"),
    (_matrix.Matrix, "inverse", _exact_only("matrix.rref")),
    (_matrix.Matrix, "null_space", _exact_only("matrix.rref")),
    (_matrix.Matrix, "pinv", _exact_only("matrix.rref")),
    (PsdOperator, "from_matrix", "psd.from_matrix"),
    (PsdOperator, "range", "psd.range"),
    (WeightFamily, "z_for", "preserver.z_for"),
    (LineMap, "__call__", "projective.line_eval"),
)

_APPLY_MAP = ("psdcone.preserver", "apply_map")


class Tracer:
    """Records spans inside ``op``; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name):
        namer = name if callable(name) else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            if label is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return wrapper

    def op(self, fn, *args):
        """Run one benchmark operation ``fn(*args)`` as a root span ``op``;
        layer spans are recorded only inside such a span."""
        self.active = True
        try:
            return self._wrap(fn, "op")(*args)
        finally:
            self.active = False

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    # -- patching ----------------------------------------------------------

    def _rebind(self, module_name, attr, name):
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrap(original, name)
        holders = [m for n, m in list(sys.modules.items()) if n.startswith("psdcone") and m]
        holders.append(sys.modules[module_name])
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        if self._undo:
            return
        for module_name, attr, name in FUNCTIONS:
            self._rebind(module_name, attr, name)
        self._rebind(*_APPLY_MAP, lambda args: "preserver.apply_map." + args[0].kind)
        for cls, attr, name in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------

#: span names whose call counts and self times are reported
TIMED = (
    "matrix.exact_matmul",
    "matrix.exact_rank",
    "matrix.psd_certify",
    "matrix.rref",
    "float.eigh",
    "float.svd",
    "subspace.principal_sines",
    "subspace.column_space",
    "subspace.intersect",
    "subspace.preimage",
    "psd.from_matrix",
    "psd.psd_sqrt",
    "psd.range",
    "generators.random_psd",
    "generators.random_pair",
    "relations.analyze_pair",
    "relations.leq",
    "relations.relation_triple",
    "lebesgue.decompose",
    "lebesgue.verify",
    "preserver.apply_map.congruence",
    "preserver.apply_map.form_iv",
    "preserver.apply_map.wild",
    "preserver.z_for",
    "preserver.verify",
    "projective.line_eval",
    "projective.reconstruct",
    "projective.verify_projectivity",
)

_RANGE_WORK = ("subspace.column_space", "float.eigh")
_LEBESGUE = ("lebesgue.decompose", "lebesgue.verify")


def summarize(spans: list[list], root: str = "op") -> dict:
    """Per-layer counts, self times and ratios of one traced pass.

    ``root`` names the benchmark's own per-operation span; the time inside
    those spans is the operation time that ``trace.coverage`` divides.
    """
    n = len(spans)
    child_time = [0.0] * n
    reaches_range_work = [False] * n
    reaches_apply_map = [False] * n
    for i in range(n - 1, -1, -1):
        name, start, end, parent = spans[i]
        if parent < 0:
            continue
        child_time[parent] += end - start
        if reaches_range_work[i] or name in _RANGE_WORK:
            reaches_range_work[parent] = True
        if reaches_apply_map[i] or name.startswith("preserver.apply_map."):
            reaches_apply_map[parent] = True
    under_lebesgue = [False] * n
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    op_s = covered_s = 0.0
    range_hits = line_misses = sqrt_in_lebesgue = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            under_lebesgue[i] = under_lebesgue[parent] or spans[parent][0] in _LEBESGUE
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if name == root:
            op_s += end - start
            covered_s += child_time[i]
        elif name == "psd.range" and not reaches_range_work[i]:
            range_hits += 1
        elif name == "projective.line_eval" and reaches_apply_map[i]:
            line_misses += 1
        elif name == "psd.psd_sqrt" and under_lebesgue[i]:
            sqrt_in_lebesgue += 1

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    ranges = calls.get("psd.range", 0)
    evals = calls.get("projective.line_eval", 0)
    decomps = calls.get("lebesgue.decompose", 0)
    out["psd.range.hit_ratio"] = range_hits / ranges if ranges else 0.0
    out["projective.line_eval.miss_ratio"] = line_misses / evals if evals else 0.0
    out["lebesgue.psd_sqrt_per_instance"] = sqrt_in_lebesgue / decomps if decomps else 0.0
    out["trace.op_s"] = op_s
    out["trace.coverage"] = covered_s / op_s if op_s else 0.0
    out["trace.spans"] = n
    return out


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between two traced passes."""
    return (
        name.endswith(".calls")
        or name.endswith("_ratio") and name != "trace.overhead_ratio"
        or name in ("lebesgue.psd_sqrt_per_instance", "trace.spans")
    )
