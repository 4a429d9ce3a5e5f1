"""Seeded sweep over psdcone's reports, hashed per report family.

Usage: ``python3 tools/report_sweep.py`` (no arguments).  The script imports
psdcone from the ``src/`` of the checkout it sits in, runs a fixed seeded
sweep and prints one sha256 per report family and one over all of them.

Each family is run once on exact operands and maps and once on float ones.
Exact reports hold no float, so their hashes are the same on every host:
``tests/test_report_golden.py`` runs the exact families through this module
and asserts the committed hashes.  Float results enter the hashes bit for
bit, so float hashes are only comparable between runs on one host: to show
that a change leaves them byte-identical, copy this file into a checkout of
the parent commit and run it in both checkouts on the same machine.

Families:
  analyze     ``analyze_pair`` (on exact pairs without the float
              ``min_domination_constant``, which LAPACK computes)
  relations   ``relation_triple``, and ``subspace_intersect`` on exact pairs
  loewner     ``leq`` both ways, both 2^60 ladders and the LDL* certificate
              of a − b (exact only)
  subspaces   ``equals``/``contains``, the image T(u) of a subspace,
              ``subspace_preimage`` and basis validation
  lebesgue    ``decompose`` parts and ``verify_decomposition`` (float only)
  maps        the three map verifiers on 4 exact-capable and 4 float map
              families, dims 2-5, 1/7/40 trials
  images      ``apply_map`` images of the 4 float map families on both
              operands of every pair, as raw bytes (float only)
  reconstruct ``reconstruct_semilinear`` and ``verify_projectivity`` of the
              induced line maps
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import psdcone as pc  # noqa: E402

DIMS = (2, 3, 4, 5)
TRIALS = (1, 7, 40)


def canon(x):
    """A JSON-ready form of a report, operator, subspace, matrix or value."""
    if isinstance(x, pc.Matrix):
        if x.backend == pc.EXACT:
            return ["exact", [[str(z) for z in row] for row in x.exact_rows]]
        return ["float", (x.array + 0.0).tobytes().hex()]
    if isinstance(x, pc.Subspace):
        return ["subspace", canon(x.basis)]
    if isinstance(x, pc.PsdOperator):
        return ["psd", x.rank, canon(x.matrix)]
    if isinstance(x, pc.SemilinearOperator):
        return ["semilinear", x.flavor, canon(x.t)]
    if hasattr(x, "to_dict"):
        return canon(x.to_dict())
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, float):
        return repr(x)
    return x


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the class and message of the error it raised."""
    try:
        return canon(fn(*args, **kwargs))
    except (pc.PsdConeError, ValueError, ArithmeticError) as exc:
        return ["raised", type(exc).__name__, str(exc)]


def accepted(basis) -> bool:
    """Whether ``Subspace`` takes ``basis`` (its message is not compared)."""
    try:
        pc.Subspace(basis)
    except ValueError:
        return False
    return True


def exact_pairs():
    """Seeded exact pairs: every relation kind, rank-0 operands and
    unfactored copies (read back through ``from_matrix``)."""
    for dim in DIMS:
        kinds = ("ac", "singular") + (("incomparable",) if dim >= 3 else ())
        for kind in kinds:
            for seed in range(3):
                a, b = pc.random_pair_with_relation(dim, kind, seed)
                yield a, b
                yield b, a
                yield pc.PsdOperator.from_matrix(a.matrix), pc.PsdOperator.from_matrix(b.matrix)
        for ra in range(dim + 1):
            for rb in range(dim + 1):
                seed = pc.derive_seed(17, dim, ra, rb)
                yield pc.random_psd(dim, ra, seed), pc.random_psd(dim, rb, seed + 1)


def pairs(backend):
    """The exact pairs, converted to float for the float backend."""
    for a, b in exact_pairs():
        yield (a, b) if backend == pc.EXACT else (a.to_float(), b.to_float())


def analyze_family(backend):
    out = []
    for a, b in pairs(backend):
        report = pc.analyze_pair(a, b).to_dict()
        if backend == pc.EXACT:
            del report["min_domination_constant"]
        out.append(canon(report))
    return out


def relations_family(backend):
    out = []
    for a, b in pairs(backend):
        out.append(outcome(pc.relation_triple, a, b))
        if backend == pc.EXACT:
            out.append(outcome(pc.subspace_intersect, a.range(), b.range()))
    return out


def loewner_family(backend):
    if backend != pc.EXACT:
        return []  # the LDL* certificate is exact only
    out = []
    for a, b in exact_pairs():
        ladders = [pc.leq(a, b.scaled(2**60)), pc.leq(b, a.scaled(2**60))]
        certificate = pc.linalg.psd_certify_exact(a.matrix - b.matrix)
        out.append([pc.leq(a, b), pc.leq(b, a), *ladders, certificate])
    return out


def _rand_matrix(rand, rows, cols):
    return pc.Matrix.exact(
        [[(rand.randint(-2, 2), rand.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
    )


def subspaces_family(backend):
    conv = (lambda x: x) if backend == pc.EXACT else pc.Matrix.to_float
    rand = random.Random(2024)
    out = []
    for n in range(2, 7):
        for _ in range(12):
            m, w = (_rand_matrix(rand, n, rand.randint(0, n)) for _ in range(2))
            shared = _rand_matrix(rand, n, rand.randint(0, n))
            t = pc.random_semilinear(n, rand.randint(0, 999), rand.choice(pc.FLAVORS))
            sq = _rand_matrix(rand, n, n)
            op = t if backend == pc.EXACT else t.to_float()
            u = pc.column_space(conv(pc.Matrix.hstack([shared, m])))
            v = pc.column_space(conv(pc.Matrix.hstack([w, shared])))
            same = pc.column_space(conv(pc.Matrix.hstack([m, shared])))
            out.append([u.equals(v), v.equals(u), u.equals(same), same.equals(u)])
            out.append([u.contains(v), v.contains(u), u.contains(same), same.contains(u)])
            out.append(outcome(pc.column_space, op.apply_matrix(u.basis), rank_hint=u.dim))
            out.append(outcome(pc.subspace_preimage, conv(sq), v))
            out.append(accepted(conv(pc.Matrix.hstack([m, shared]))))
    return out


def lebesgue_family(backend):
    if backend == pc.EXACT:
        return []  # the split is float only
    out = []
    for a, b in exact_pairs():
        af, bf = a.to_float(), b.to_float()
        dec = pc.decompose(af, bf)
        out.append(canon([dec.ac_part, dec.singular_part]))
        out.append(outcome(pc.verify_decomposition, dec, af))
    return out


def map_specs(dim, backend):
    """The map families whose images are on ``backend``: exact and conjugate
    congruences, wild and an exact composite; or a float congruence, form_iv
    in both flavors and a mixed composite."""
    linear = pc.random_semilinear(dim, 3, pc.FLAVOR_LINEAR)
    conjugate = pc.random_semilinear(dim, 4, pc.FLAVOR_CONJUGATE)
    congruence = pc.PreserverSpec.congruence
    wild = pc.make_wild_map(5, dim)
    weights = pc.WeightFamily.seeded(6)
    specs = {
        "congruence": congruence(linear),
        "conjugate": congruence(conjugate),
        "float-congruence": congruence(conjugate.to_float()),
        "form_iv": pc.PreserverSpec.form_iv(linear, weights),
        "form_iv-conjugate": pc.PreserverSpec.form_iv(conjugate, weights),
        "wild": wild,
        "exact-composite": pc.PreserverSpec.composite([congruence(linear), wild]),
        "mixed-composite": pc.PreserverSpec.composite(
            [wild, pc.PreserverSpec.form_iv(conjugate, weights), congruence(linear.to_float())]
        ),
    }
    exact = backend == pc.EXACT
    return {name: spec for name, spec in specs.items() if spec.exact_capable == exact}


def maps_family(backend):
    out = []
    for dim in DIMS:
        for name, spec in map_specs(dim, backend).items():
            for trials in TRIALS:
                for seed in (0, 5):
                    out.append([name, dim, trials, seed])
                    out.append(outcome(pc.verify_relation_preservation, spec, trials, seed))
                    out.append(outcome(pc.verify_range_form, spec, trials, seed))
                    if dim == 2:
                        out.append(outcome(pc.dim2_conditions, spec, trials, seed))
    return out


def images_family(backend):
    if backend == pc.EXACT:
        return []  # exact images reach the hashes through the maps family
    specs = {dim: map_specs(dim, backend) for dim in DIMS}
    out = []
    for a, b in pairs(backend):
        for name, spec in specs[a.dim].items():
            for image in (pc.apply_map(spec, a), pc.apply_map(spec, b)):
                # signed zeros included: canon's + 0.0 would hide them
                out.append([name, image.rank, image.matrix.array.tobytes().hex()])
    return out


def reconstruct_family(backend):
    out = []
    for dim in DIMS:
        for name, spec in map_specs(dim, backend).items():
            line_map = pc.induced_line_map(spec)
            out.append([name, dim])
            out.append(outcome(pc.reconstruct_semilinear, line_map))
            out.append(outcome(pc.verify_projectivity, line_map, 10, dim))
    return out


FAMILIES = {
    "analyze": analyze_family,
    "relations": relations_family,
    "loewner": loewner_family,
    "subspaces": subspaces_family,
    "lebesgue": lebesgue_family,
    "maps": maps_family,
    "images": images_family,
    "reconstruct": reconstruct_family,
}


def family_hashes(backend) -> dict[str, str]:
    """sha256 of each family's canonical JSON on ``backend`` (families with
    nothing on it left out)."""
    out = {}
    for name, family in FAMILIES.items():
        if payload := family(backend):
            text = json.dumps(payload, sort_keys=True, ensure_ascii=True).encode()
            out[f"{backend}-{name}"] = hashlib.sha256(text).hexdigest()
    return out


def main() -> None:
    overall = hashlib.sha256()
    for backend in (pc.EXACT, pc.FLOAT):
        for name, digest in family_hashes(backend).items():
            overall.update(f"{name}:{digest}\n".encode())
            print(f"{name:<18} {digest}")
    print(f"{'overall':<18} {overall.hexdigest()}")


if __name__ == "__main__":
    main()
