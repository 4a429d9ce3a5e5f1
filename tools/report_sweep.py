"""Seeded sweep over psdcone's reports, hashed per report family.

Usage: ``python3 tools/report_sweep.py`` (no arguments).  The script imports
psdcone from the ``src/`` of the checkout it sits in, runs a fixed seeded
sweep and prints one sha256 per report family and one over all of them.

To show that a change leaves every report byte-identical, copy this file
into a checkout of the parent commit and run it in both checkouts on the
same machine.  Float results enter the hashes bit for bit, so float hashes
are only comparable between runs on one host.

Families:
  analyze     ``analyze_pair`` on exact and float pairs
  relations   ``relation_triple``, and ``subspace_intersect`` on exact pairs
  subspaces   ``equals``/``contains``, ``apply_subspace``, ``subspace_preimage``
              and basis validation, on both backends
  lebesgue    ``decompose`` parts and ``verify_decomposition``
  maps        the three map verifiers on 8 map families, dims 2-5,
              1/7/40 trials, and the range form against a wrong T
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


def all_pairs():
    for a, b in exact_pairs():
        yield a, b
        yield a.to_float(), b.to_float()


def analyze_family():
    return [outcome(pc.analyze_pair, a, b) for a, b in all_pairs()]


def relations_family():
    out = []
    for a, b in all_pairs():
        out.append(outcome(pc.relation_triple, a, b))
        if a.backend == pc.EXACT:
            out.append(outcome(pc.subspace_intersect, a.range(), b.range()))
    return out


def _rand_matrix(rand, rows, cols):
    return pc.Matrix.exact(
        [[(rand.randint(-2, 2), rand.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
    )


def subspaces_family():
    rand = random.Random(2024)
    out = []
    for n in range(2, 7):
        for _ in range(12):
            m, w = (_rand_matrix(rand, n, rand.randint(0, n)) for _ in range(2))
            shared = _rand_matrix(rand, n, rand.randint(0, n))
            t = pc.random_semilinear(n, rand.randint(0, 999), rand.choice(pc.FLAVORS))
            sq = _rand_matrix(rand, n, n)
            for conv, op in ((lambda x: x, t), (pc.Matrix.to_float, t.to_float())):
                u = pc.column_space(conv(pc.Matrix.hstack([shared, m])))
                v = pc.column_space(conv(pc.Matrix.hstack([w, shared])))
                same = pc.column_space(conv(pc.Matrix.hstack([m, shared])))
                out.append([u.equals(v), v.equals(u), u.equals(same), same.equals(u)])
                out.append([u.contains(v), v.contains(u), u.contains(same), same.contains(u)])
                out.append(outcome(op.apply_subspace, u))
                out.append(outcome(pc.subspace_preimage, conv(sq), v))
                out.append(accepted(conv(pc.Matrix.hstack([m, shared]))))
    return out


def lebesgue_family():
    out = []
    for k, (a, b) in enumerate(exact_pairs()):
        af, bf = a.to_float(), b.to_float()
        dec = pc.decompose(af, bf)
        out.append(canon([dec.ac_part, dec.singular_part]))
        out.append(outcome(pc.verify_decomposition, dec, af, trials=12, seed=k))
    return out


def map_specs(dim):
    """The 8 map families: exact, conjugate and float congruences, form_iv
    in both flavors, wild, an exact composite and a mixed composite."""
    linear = pc.random_semilinear(dim, 3, pc.FLAVOR_LINEAR)
    conjugate = pc.random_semilinear(dim, 4, pc.FLAVOR_CONJUGATE)
    congruence = pc.PreserverSpec.congruence
    wild = pc.make_wild_map(5, dim)
    weights = pc.WeightFamily.seeded(6)
    return {
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


def maps_family():
    out = []
    for dim in DIMS:
        wrong = pc.random_semilinear(dim, 9)  # induces none of the maps: a negative control
        for name, spec in map_specs(dim).items():
            for trials in TRIALS:
                for seed in (0, 5):
                    out.append([name, dim, trials, seed])
                    out.append(outcome(pc.verify_relation_preservation, spec, trials, seed))
                    out.append(
                        outcome(pc.verify_range_form, spec, spec.inducing_operator, trials, seed)
                    )
                    out.append(outcome(pc.verify_range_form, spec, wrong, trials, seed))
                    if dim == 2:
                        out.append(outcome(pc.dim2_conditions, spec, trials, seed))
    return out


def reconstruct_family():
    out = []
    for dim in DIMS:
        for name, spec in map_specs(dim).items():
            line_map = pc.induced_line_map(spec)
            out.append([name, dim])
            out.append(outcome(pc.reconstruct_semilinear, line_map))
            out.append(outcome(pc.verify_projectivity, line_map, 10, dim))
    return out


FAMILIES = {
    "analyze": analyze_family,
    "relations": relations_family,
    "subspaces": subspaces_family,
    "lebesgue": lebesgue_family,
    "maps": maps_family,
    "reconstruct": reconstruct_family,
}


def main() -> None:
    overall = hashlib.sha256()
    for name, family in FAMILIES.items():
        payload = json.dumps(family(), sort_keys=True, ensure_ascii=True).encode()
        digest = hashlib.sha256(payload).hexdigest()
        overall.update(f"{name}:{digest}\n".encode())
        print(f"{name:<12} {digest}")
    print(f"{'overall':<12} {overall.hexdigest()}")


if __name__ == "__main__":
    main()
