"""Batch command-line front end with JSON input and output.

Exit codes: 0 success, 2 validation error (with a machine-readable error
object on stdout), 3 I/O failure, 4 internal invariant violation.  Output
key order is deterministic.  The environment variable SLL_PRECISION sets
the default truncation length n.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback

from . import deformation, dieudonne, jsonio, linalg, local_model, singularity
from .base_rings import WittRing
from .errors import DomainError, PreconditionError, SmoothShortCircuit, ValidationError

# Spot checks are bounded by their estimated work.  One check (a random base
# change plus a-number and p-rank) over W_n(F_q), q = p^m, is estimated at
# 3 + m(3 + 3n/8) ms: measured through `run`, the worst of four fixtures
# took 4 ms at q = 2, n = 2, 9 ms at q = 121, n = 4, 12 ms at q = 65521,
# n = 16 and 75 ms at q = 256, n = 30, all at or below the estimate.
MAX_SPOT_CHECK_US = 8_000_000


def _spot_check_us(ring):
    """Estimated microseconds of one spot check over W_n(F_q), m = log_p q."""
    return 3000 + ring.field.m * (3000 + 375 * ring.n)


def default_precision():
    raw = os.environ.get("SLL_PRECISION", "3")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValidationError(f"SLL_PRECISION must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValidationError("SLL_PRECISION must be >= 1")
    return n


def _load_document(spec):
    """Inline JSON (starts with '{' or '[') or a file path; '-' is stdin."""
    text = spec.strip()
    if text.startswith("{") or text.startswith("["):
        raw = text
    elif text == "-":
        raw = sys.stdin.read()
    else:
        with open(spec, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc


def _ring_for(args):
    q = getattr(args, "q", None)
    field = local_model.field_for_q(2 if q is None else q)
    n = getattr(args, "n", None)
    n = int(n) if n is not None else default_precision()
    if n < 1:
        raise ValidationError("precision must be >= 1")
    return WittRing(field, n)


def _module_for(args):
    """The fixture or the module file; a file module must pass validate(),
    except for the validate op, which reports the checks instead."""
    fixture = getattr(args, "fixture", None)
    file_doc = getattr(args, "file", None)
    if (fixture is None) == (file_doc is None):
        raise ValidationError("give exactly one of --fixture or --file")
    if fixture is not None:
        return dieudonne.make_standard(_ring_for(args), fixture)
    module = dieudonne.DieudonneModule.from_json(_load_document(file_doc))
    if getattr(args, "op", None) == "validate":
        return module
    return module.require_valid("module file")


def _class_doc(ring, cls):
    """The class tag, plus a' and its valuation for an ordinary double point."""
    doc = {"class": cls.tag}
    if cls.tag == "OrdinaryDoublePoint":
        doc["a_prime"] = jsonio.elem_to_json(ring, cls.a_prime)
        doc["a_prime_valuation"] = cls.valuation
    return doc


# -- subcommand handlers -------------------------------------------------------


def _cmd_witt(args):
    doc = _load_document(args.input)
    if not isinstance(doc, dict):
        raise ValidationError("witt input must be a JSON object")
    ring = jsonio.ring_from_json(doc)
    rows = doc.get("coeffs", doc.get("digits"))
    key = "coeffs" if "coeffs" in doc else "digits"
    if not isinstance(rows, list) or not rows:
        raise ValidationError("witt input needs a nonempty 'coeffs' or 'digits' list")
    operands = [jsonio.elem_from_fields(ring, {key: row}) for row in rows]
    if args.op in ("add", "mul"):
        if len(operands) < 2:
            raise ValidationError(f"witt {args.op} needs at least two operand rows")
        acc = operands[0]
        for x in operands[1:]:
            acc = acc + x if args.op == "add" else acc * x
        return jsonio.elem_to_json(ring, acc)
    if len(operands) != 1:
        raise ValidationError(f"witt {args.op} takes exactly one operand row")
    x = operands[0]
    if args.op == "frob":
        return jsonio.elem_to_json(ring, ring.frobenius(x))
    if args.op == "digits":
        doc = jsonio.elem_to_json(ring, x)
        del doc["coeffs"]
        return dict(doc, valuation=ring.valuation(x))
    raise ValidationError(f"unknown witt operation {args.op!r}")


def _cmd_series_reduce(args):
    f = jsonio.series_from_json(_load_document(args.input))
    if args.degree is not None:
        if args.degree > f.parent.degree:
            raise ValidationError("--degree cannot exceed the document's truncation")
        f = f.truncate(args.degree)
    ring = f.parent.coeff_ring
    if not isinstance(ring, WittRing):
        raise ValidationError("series-reduce needs Witt-ring coefficients")
    try:
        result = singularity.normal_form(f)
    except SmoothShortCircuit as sig:
        return {"class": "Smooth", "detail": sig.reason, "normal_form": None}
    cls = singularity.double_point_class(result)
    return {"class": cls.tag, "detail": cls.detail,
            "normal_form": jsonio.normal_form_to_json(ring, result)}


def _cmd_dieudonne(args):
    module = _module_for(args)
    ring = module.ring
    if args.op == "validate":
        spot = args.spot_checks
        cost = _spot_check_us(ring)
        if spot < 0 or spot * cost > MAX_SPOT_CHECK_US:
            raise ValidationError(
                f"--spot-checks must be between 0 and {MAX_SPOT_CHECK_US // cost} over "
                f"W_{ring.n}(F_{ring.field.q}): about {cost / 1000:g} ms each, "
                f"{MAX_SPOT_CHECK_US // 1_000_000} s in all")
        checks = module.validate()
        doc = {"checks": checks, "valid": all(checks.values())}
        if spot:
            rng = random.Random(args.seed)
            stable = 0
            a0, p0 = dieudonne.a_number(module), dieudonne.p_rank(module)
            for _ in range(spot):
                g = _random_unimodular(ring, rng)
                other = dieudonne.base_change(module, g)
                if dieudonne.a_number(other) == a0 and dieudonne.p_rank(other) == p0:
                    stable += 1
            doc["spot_checks"] = {"runs": spot, "invariant_stable": stable == spot}
        return doc
    if args.op == "invariants":
        return {
            "a_number": dieudonne.a_number(module),
            "p_rank": dieudonne.p_rank(module),
            "kernel_type": dieudonne.kernel_type(module),
        }
    if args.op == "dual":
        dual = dieudonne.dual_lattice(module)
        return {
            "precision": dual.precision,
            "p_dual_basis_columns": [
                [list(x.coeffs) for x in col] for col in dual.columns()
            ],
        }
    if args.op == "lagrangian-search":
        res = dieudonne.lagrangian_witness_search(module)
        doc = {
            "found": res.found,
            "precision": res.precision,
            "nodes": res.nodes,
            "message": res.message,
        }
        if res.found:
            w = res.witness
            doc["witness"] = {
                name: [list(x.coeffs) for x in vec]
                for name, vec in (("Y1", w.Y1), ("Y2", w.Y2), ("X1", w.X1), ("X2", w.X2))
            }
        return doc
    raise ValidationError(f"unknown dieudonne operation {args.op!r}")


def _random_unimodular(ring, rng):
    while True:
        g = [[ring.random_element(rng) for _ in range(4)] for _ in range(4)]
        if linalg.rank_field(ring.field, linalg.mat_map(g, ring.residue)) == 4:
            return g


def _cmd_deform(args):
    module = _module_for(args)
    if args.frame:
        try:
            i, j = (int(t) for t in args.frame.split(","))
        except ValueError as exc:
            raise ValidationError("--frame takes two comma-separated indices") from exc
        y_idx = (i - 1, j - 1)
    else:
        y_idx = (2, 3)
    x_idx = tuple(k for k in range(4) if k not in y_idx)
    frame = deformation.HodgeFrame(module, y_idx, x_idx)
    rel = deformation.deformation_equation(frame)
    cls = singularity.classify_local_ring(rel)
    doc = _class_doc(module.ring, cls)
    doc.update(relation=rel.to_text(), relation_series=jsonio.series_to_json(rel),
               detail=cls.detail)
    return doc


def _cmd_local_model(args):
    q = int(args.q)
    if args.op == "points":
        fiber = local_model.enumerate_special_fiber(q)
        return {"q": q, "count": len(fiber), "points": [pl.to_json() for pl in fiber]}
    if args.op == "tangents":
        fiber = local_model.enumerate_special_fiber(q)
        pts = [dict(pl.to_json(), tangent_dimension=local_model.tangent_dimension(pl))
               for pl in fiber]
        singular = [{"basis": doc["basis"]} for doc in pts if doc["tangent_dimension"] == 4]
        return {"q": q, "count": len(fiber), "points": pts, "singular": singular}
    if args.op == "chart":
        ring = _ring_for(args)
        eq = local_model.chart_equation(ring)
        doc = _class_doc(ring, singularity.classify_local_ring(eq))
        doc.update(q=q, n=ring.n, equation=eq.to_text(),
                   equation_series=jsonio.series_to_json(eq))
        return doc
    raise ValidationError(f"unknown local-model operation {args.op!r}")


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become ValidationError, so they too end in exit code 2
    with one JSON error document; subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def _parser():
    top = _Parser(
        prog="sll",
        description="exact local computations: Witt rings, series reduction, "
        "Dieudonne modules, deformation relations, local-model fibers",
    )
    top.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    sub = top.add_subparsers(dest="command", required=True)

    witt = sub.add_parser("witt", help="truncated Witt ring arithmetic")
    witt.add_argument("op", choices=["add", "mul", "frob", "digits"])
    witt.add_argument("input", help="inline JSON, a path, or - for stdin")

    sr = sub.add_parser("series-reduce", help="normal-form reduction of a series file")
    sr.add_argument("input", help="series document (inline JSON, path, or -)")
    sr.add_argument("--degree", type=int, default=None, help="truncate to this degree first")

    dd = sub.add_parser("dieudonne", help="module invariants and searches")
    dd.add_argument("op", choices=["validate", "invariants", "dual", "lagrangian-search"])
    dd.add_argument("--fixture", choices=list(dieudonne.STANDARD_CASES), default=None)
    dd.add_argument("--file", default=None, help="module JSON document")
    dd.add_argument("--q", type=int, default=None, help="residue field size for fixtures")
    dd.add_argument("--n", type=int, default=None, help="truncation length (default SLL_PRECISION)")
    dd.add_argument("--spot-checks", dest="spot_checks", type=int, default=0,
                    help="validate: also re-check invariants under this many random base changes")

    de = sub.add_parser("deform", help="deformation relation and classification")
    de.add_argument("--fixture", choices=list(dieudonne.STANDARD_CASES), default=None)
    de.add_argument("--file", default=None)
    de.add_argument("--frame", default=None, help="1-based Hodge indices, e.g. 3,4")
    de.add_argument("--q", type=int, default=None)
    de.add_argument("--n", type=int, default=None)

    lm = sub.add_parser("local-model", help="special fiber of the local model")
    lm.add_argument("op", choices=["points", "tangents", "chart"])
    lm.add_argument("--q", type=int, required=True)
    lm.add_argument("--n", type=int, default=None)

    return top


HANDLERS = {
    "witt": _cmd_witt,
    "series-reduce": _cmd_series_reduce,
    "dieudonne": _cmd_dieudonne,
    "deform": _cmd_deform,
    "local-model": _cmd_local_model,
}


def run(argv=None):
    args = _parser().parse_args(argv)
    return HANDLERS[args.command](args)


def main(argv=None):
    try:
        doc = run(argv)
    except (ValidationError, DomainError, PreconditionError) as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return 2
    except OSError as exc:
        print(json.dumps({"error": {"kind": "io", "message": str(exc)}}, sort_keys=True))
        return 3
    except Exception as exc:  # internal invariant violations and anything unforeseen
        traceback.print_exc()  # to stderr; stdout keeps its one JSON document
        print(json.dumps({"error": {"kind": "internal", "message": str(exc)}},
                         sort_keys=True))
        return 4
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
