"""Seeded end-to-end property battery over the whole package.

:func:`run_suite` draws everything from one seed, counts checks and
failures per section, and returns a JSON-ready report.  The report contains
no timing and no environment data, so two runs with the same arguments
produce identical bytes — callers that want wall-clock numbers print them
elsewhere.
"""

from __future__ import annotations

import random

from .generators import (
    RELATION_KINDS,
    derive_seed,
    random_pair_with_relation,
    random_psd,
    random_semilinear,
    rank_one,
)
from .lebesgue import decompose, verify_decomposition
from .linalg import (
    DEFAULT_TOL,
    FLAVOR_CONJUGATE,
    FLAVOR_LINEAR,
    GaussianRational,
    PsdOperator,
    subspace_intersect,
)
from .preserver import (
    PreserverSpec,
    WeightFamily,
    make_wild_map,
    verify_range_form,
    verify_relation_preservation,
)
from .projective import (
    induced_line_map,
    projective_scalar,
    reconstruct_semilinear,
    swap_counterexample_line_map,
    verify_projectivity,
)
from .relations import analyze_pair, is_singular, leq

_DOMINATION_EXPONENT = 60


def _relation_kinds(dim: int) -> tuple[str, ...]:
    return tuple(name for name, kind in RELATION_KINDS.items() if dim >= kind.min_dim)


def _flavor(k: int) -> str:
    return FLAVOR_LINEAR if k % 2 == 0 else FLAVOR_CONJUGATE


class _Section:
    def __init__(self):
        self.checks = 0
        self.failures = 0
        self.notes: list[str] = []

    def record(self, ok: bool, label: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if len(self.notes) < 8:
                self.notes.append(label)

    def result(self) -> tuple[dict, int]:
        """The section's report entry and its failure count."""
        out = {"checks": self.checks, "failures": self.failures}
        if self.notes:
            out["first_failures"] = list(self.notes)
        return out, self.failures


def _pairs(dim: int, count: int, seed: int, stream: int):
    """``count`` seeded pairs with a requested relation, cycling through the kinds.

    Yields (a, b, kind, tag); ``stream`` keeps each section's draws apart.
    """
    kinds = _relation_kinds(dim)
    for k in range(count):
        kind = kinds[k % len(kinds)]
        a, b = random_pair_with_relation(dim, kind, derive_seed(seed, stream, dim, k))
        yield a, b, kind, f"dim={dim} k={k} kind={kind}"


def _relations_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    scale = 2**_DOMINATION_EXPONENT
    for dim in dims:
        for a, b, kind, tag in _pairs(dim, trials, seed, 1):
            rep = analyze_pair(a, b)
            wanted = {
                "ac": rep.abs_cont_ab,
                "singular": rep.singular,
                "incomparable": not rep.abs_cont_ab
                and not rep.abs_cont_ba
                and not rep.singular,
            }[kind]
            sec.record(wanted, f"{tag}: requested relation not certified")
            sec.record(
                rep.abs_cont_ab == leq(a, b.scaled(scale)),
                f"{tag}: domination oracle disagrees with range inclusion",
            )
            sec.record(
                # ran(a + b) = ran a + ran b, ranked by the LDL* certificate
                rep.dim_range_sum == PsdOperator.from_matrix(a.matrix + b.matrix).rank,
                f"{tag}: rank lattice identity broken",
            )
            sec.record(
                rep.singular == (subspace_intersect(a.range(), b.range()).dim == 0),
                f"{tag}: singularity flag out of step with intersection",
            )
    return sec.result()


def _witness_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    scale = 2**_DOMINATION_EXPONENT
    for dim in dims:
        for a, b, _, tag in _pairs(dim, max(1, trials // 4), seed, 2):
            inter = subspace_intersect(a.range(), b.range())
            if inter.dim == 0:
                sec.record(
                    is_singular(a, b),
                    f"{tag}: empty intersection but pair not flagged singular",
                )
                continue
            f = inter.basis.column(0)
            # scale the largest entry to unit size: the constant needed to
            # sit below both operators then stays far inside the 2^60 budget
            pivot = max((f.entry(i, 0) for i in range(f.rows)), key=lambda z: z.norm_sq())
            f = f.scale(GaussianRational.coerce(1) / pivot)
            c = rank_one(f)
            sec.record(
                leq(c, a.scaled(scale)) and leq(c, b.scaled(scale)),
                f"{tag}: intersection vector fails to witness the common part",
            )
    return sec.result()


def _maps_section(dims, trials, seed, skip_float, tol):
    out: dict = {}
    failures = 0
    map_trials = max(10, trials // 2)
    for name in ("congruence", "form_iv", "wild"):
        if name == "form_iv" and skip_float:
            out[name] = {"skipped": True}
            continue
        per_dim = {}
        for k, dim in enumerate(dims):
            if name == "congruence":
                t = random_semilinear(dim, derive_seed(seed, 3, dim), flavor=_flavor(k))
                spec = PreserverSpec.congruence(t)
            elif name == "form_iv":
                t = random_semilinear(dim, derive_seed(seed, 4, dim), flavor=_flavor(k + 1))
                spec = PreserverSpec.form_iv(t, WeightFamily.seeded(derive_seed(seed, 5, dim)))
            else:
                spec = make_wild_map(derive_seed(seed, 6, dim), dim)
            rep = verify_relation_preservation(
                spec, trials=map_trials, seed=derive_seed(seed, 7, dim), tol=tol
            )
            per_dim[str(dim)] = {
                "trials": rep.trials,
                "violations": len(rep.violations),
                "image_backend": rep.image_backend,
            }
            failures += len(rep.violations)
        out[name] = per_dim
    return out, failures


def _range_form_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    samples = max(8, trials // 8)
    for dim in dims:
        t = random_semilinear(dim, derive_seed(seed, 8, dim))
        rep = verify_range_form(
            PreserverSpec.congruence(t), trials=samples, seed=derive_seed(seed, 9, dim), tol=tol
        )
        sec.record(rep.passed, f"dim={dim}: congruence range covariance broken")
        if not skip_float:
            spec = PreserverSpec.form_iv(t, WeightFamily.seeded(derive_seed(seed, 10, dim)))
            rep_f = verify_range_form(
                spec, trials=samples, seed=derive_seed(seed, 11, dim), tol=tol
            )
            sec.record(rep_f.passed, f"dim={dim}: weighted-map range covariance broken")
    return sec.result()


def _projective_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    proj_trials = min(trials, 40)
    for dim in dims:
        if dim < 3:
            continue
        for k, flavor in enumerate((FLAVOR_LINEAR, FLAVOR_CONJUGATE)):
            t = random_semilinear(dim, derive_seed(seed, 12, dim, k), flavor=flavor)
            lm = induced_line_map(PreserverSpec.congruence(t))
            rec = reconstruct_semilinear(lm)
            tag = f"dim={dim} flavor={flavor}"
            sec.record(rec.flavor == flavor, f"{tag}: flavor lost in reconstruction")
            sec.record(
                projective_scalar(rec.t, t.t) is not None,
                f"{tag}: reconstructed operator is not a scalar multiple",
            )
            rep = verify_projectivity(lm, trials=proj_trials, seed=derive_seed(seed, 13, dim, k))
            sec.record(rep.passed, f"{tag}: induced map failed coplanarity")
        if not skip_float:
            t = random_semilinear(dim, derive_seed(seed, 14, dim))
            spec = PreserverSpec.form_iv(t, WeightFamily.seeded(derive_seed(seed, 15, dim)))
            rec = reconstruct_semilinear(induced_line_map(spec))
            sec.record(
                projective_scalar(rec.t, t.t) is not None,
                f"dim={dim}: weighted-map reconstruction drifted off the witness",
            )
        detected = not verify_projectivity(
            swap_counterexample_line_map(dim), trials=0, seed=0
        ).passed
        sec.record(detected, f"dim={dim}: swap counterexample slipped through")
    return sec.result()


def _lebesgue_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    for dim in dims:
        for a, b, _, tag in _pairs(dim, max(2, trials // 20), seed, 16):
            af, bf = a.to_float(), b.to_float()
            dec = decompose(af, bf, tol)
            chk = verify_decomposition(dec, af, tol=tol)
            sec.record(chk.passed, f"{tag}: decomposition check failed")
            if dec.ac_part.rank:
                sec.record(chk.ac_ok, f"{tag}: dominated part not dominated")
            if dec.singular_part.rank:
                sec.record(chk.singular_ok, f"{tag}: singular part not singular")
        inv = random_psd(dim, dim, derive_seed(seed, 18, dim)).to_float()
        any_a = random_psd(
            dim, random.Random(derive_seed(seed, 19, dim)).randint(0, dim), derive_seed(seed, 20, dim)
        ).to_float()
        dec = decompose(any_a, inv, tol)
        sec.record(
            dec.singular_part.rank == 0
            and verify_decomposition(dec, any_a, tol=tol).sum_ok,
            f"dim={dim}: invertible base must absorb everything",
        )
    return sec.result()


def _agreement_section(dims, trials, seed, skip_float, tol):
    sec = _Section()
    for dim in dims:
        for a, b, _, tag in _pairs(dim, max(4, trials // 4), seed, 21):
            exact_rep = analyze_pair(a, b)
            float_rep = analyze_pair(a.to_float(), b.to_float(), tol)
            same = (
                exact_rep.abs_cont_ab == float_rep.abs_cont_ab
                and exact_rep.abs_cont_ba == float_rep.abs_cont_ba
                and exact_rep.singular == float_rep.singular
                and exact_rep.leq_ab == float_rep.leq_ab
                and exact_rep.dim_range_intersection == float_rep.dim_range_intersection
            )
            sec.record(same, f"{tag}: backends disagree")
    return sec.result()


#: (report key, section, whether the section needs the float backend), in
#: running order; every section takes (dims, trials, seed, skip_float, tol)
#: and returns its report entry and failure count
_SECTIONS = (
    ("relations", _relations_section, False),
    ("witnesses", _witness_section, False),
    ("maps", _maps_section, False),
    ("range_form", _range_form_section, False),
    ("projective", _projective_section, False),
    ("lebesgue", _lebesgue_section, True),
    ("backend_agreement", _agreement_section, True),
)


def run_suite(
    dims,
    trials: int = 100,
    seed: int = 0,
    skip_float: bool = False,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Run every section and return the deterministic report dictionary."""
    dims = sorted(set(int(d) for d in dims))
    if not dims or dims[0] < 2:
        raise ValueError("dims must be integers of at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")

    sections: dict[str, dict] = {}
    failures = 0
    for name, section, float_only in _SECTIONS:
        if float_only and skip_float:
            sections[name] = {"skipped": True}
            continue
        sections[name], failed = section(dims, trials, seed, skip_float, tol)
        failures += failed

    return {
        "dims": dims,
        "trials": trials,
        "seed": seed,
        "skip_float": skip_float,
        "tol": tol,
        "sections": sections,
        "failures": failures,
        "passed": failures == 0,
    }
