"""Batch command-line front end with JSON input and output.

Exit codes: 0 success, 2 validation error (with a machine-readable error
object on stdout), 3 I/O failure, 4 internal invariant violation.  Output
key order is deterministic.  Each operation is its own subparser, which
names its handler and declares only the options that handler reads.  A
handler imports the modules it runs, so a cold command loads only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys

from . import jsonio
from .base_rings import STANDARD_CASES, WittRing, field_for_q
from .errors import DomainError, PreconditionError, SmoothShortCircuit, ValidationError

# truncation length n when --n is not given
DEFAULT_PRECISION = 3

# Spot checks are bounded by their estimated work.  One check (a random base
# change plus a-number and p-rank) over W_n(F_q), q = p^m, is estimated at
# 3 + m(3 + 3n/8) ms: measured through `run`, the worst of four fixtures
# took 4 ms at q = 2, n = 2, 9 ms at q = 121, n = 4, 12 ms at q = 65521,
# n = 16 and 75 ms at q = 256, n = 30, all at or below the estimate.
MAX_SPOT_CHECK_US = 8_000_000


def _spot_check_us(ring):
    """Estimated microseconds of one spot check over W_n(F_q), m = log_p q."""
    return 3000 + ring.field.m * (3000 + 375 * ring.n)


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


def _ring_for(q, n):
    return WittRing(field_for_q(q), DEFAULT_PRECISION if n is None else n)


def _module_for(args, require_valid=True):
    """The fixture over W_n(F_q), or the module file, which names its own
    ring and must pass validate() unless require_valid is false."""
    if args.fixture is not None:
        from . import dieudonne

        return dieudonne.make_standard(_ring_for(2 if args.q is None else args.q, args.n),
                                       args.fixture)
    if args.q is not None or args.n is not None:
        raise ValidationError("--q and --n set a fixture's ring; a module file names its own")
    module = jsonio.module_from_json(_load_document(args.file))
    return module.require_valid("module file") if require_valid else module


def _class_doc(ring, cls):
    """The class tag, plus a' and its valuation for an ordinary double point."""
    doc = {"class": cls.tag}
    if cls.tag == "OrdinaryDoublePoint":
        doc["a_prime"] = jsonio.elem_to_json(ring, cls.a_prime)
        doc["a_prime_valuation"] = cls.valuation
    return doc


# -- handlers: one per operation -----------------------------------------------


def _witt_operands(args):
    doc = _load_document(args.input)
    if not isinstance(doc, dict):
        raise ValidationError("witt input must be a JSON object")
    ring = jsonio.ring_from_json(doc)
    key = "coeffs" if "coeffs" in doc else "digits"
    rows = doc.get(key)
    if not isinstance(rows, list) or not rows:
        raise ValidationError("witt input needs a nonempty 'coeffs' or 'digits' list")
    return ring, [jsonio.elem_from_fields(ring, {key: row}) for row in rows]


def _witt_fold(args):
    """witt add and witt mul: combine two or more operands in order."""
    ring, operands = _witt_operands(args)
    if len(operands) < 2:
        raise ValidationError(f"witt {args.op} needs at least two operand rows")
    return jsonio.elem_to_json(ring, functools.reduce(args.combine, operands))


def _witt_operand(args):
    ring, operands = _witt_operands(args)
    if len(operands) != 1:
        raise ValidationError(f"witt {args.op} takes exactly one operand row")
    return ring, operands[0]


def _witt_frob(args):
    ring, x = _witt_operand(args)
    return jsonio.elem_to_json(ring, ring.frobenius(x))


def _witt_digits(args):
    ring, x = _witt_operand(args)
    doc = jsonio.elem_to_json(ring, x)
    del doc["coeffs"]
    return dict(doc, valuation=ring.valuation(x))


def _series_reduce(args):
    from . import singularity

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


def _validate(args):
    import random

    from . import dieudonne

    module = _module_for(args, require_valid=False)
    ring = module.ring
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


def _random_unimodular(ring, rng):
    from . import linalg

    while True:
        g = [[ring.random_element(rng) for _ in range(4)] for _ in range(4)]
        if linalg.rank_field(ring.field, linalg.mat_map(g, ring.residue)) == 4:
            return g


def _invariants(args):
    from . import dieudonne

    module = _module_for(args)
    return {
        "a_number": dieudonne.a_number(module),
        "p_rank": dieudonne.p_rank(module),
        "kernel_type": dieudonne.kernel_type(module),
    }


def _dual(args):
    from . import dieudonne

    return jsonio.dual_lattice_to_json(dieudonne.dual_lattice(_module_for(args)))


def _lagrangian_search(args):
    from . import dieudonne

    return jsonio.search_to_json(dieudonne.lagrangian_witness_search(_module_for(args)))


def _deform(args):
    from . import deformation, singularity

    module = _module_for(args)
    if args.frame:
        try:
            i, j = (int(t) for t in args.frame.split(","))
        except ValueError as exc:
            raise ValidationError("--frame takes two comma-separated indices") from exc
        y_idx = (i - 1, j - 1)
        frame = deformation.HodgeFrame(module, y_idx,
                                       tuple(k for k in range(4) if k not in y_idx))
    else:
        frame = deformation.standard_frame(module)
    rel = deformation.deformation_equation(frame)
    cls = singularity.classify_local_ring(rel)
    doc = _class_doc(module.ring, cls)
    series = jsonio.series_to_json(rel)
    doc.update(relation=series["text"], relation_series=series, detail=cls.detail)
    return doc


def _points(args):
    from . import local_model

    fiber = local_model.enumerate_special_fiber(args.q)
    return {"q": args.q, "count": len(fiber), "points": [jsonio.plane_to_json(pl) for pl in fiber]}


def _tangents(args):
    from . import local_model

    fiber = local_model.enumerate_special_fiber(args.q)
    pts = [dict(jsonio.plane_to_json(pl), tangent_dimension=local_model.tangent_dimension(pl))
           for pl in fiber]
    singular = [{"basis": doc["basis"]} for doc in pts if doc["tangent_dimension"] == 4]
    return {"q": args.q, "count": len(fiber), "points": pts, "singular": singular}


def _chart(args):
    from . import local_model, singularity

    ring = _ring_for(args.q, args.n)
    eq = local_model.chart_equation(ring)
    doc = _class_doc(ring, singularity.classify_local_ring(eq))
    series = jsonio.series_to_json(eq)
    doc.update(q=args.q, n=ring.n, equation=series["text"], equation_series=series)
    return doc


# -- parser: the one dispatch table ---------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become ValidationError, so they too end in exit code 2
    with one JSON error document; subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def _module_options():
    """The options of every module command: a fixture over W_n(F_q), or a
    module file, which names its own ring."""
    module = argparse.ArgumentParser(add_help=False)
    source = module.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", choices=list(STANDARD_CASES))
    source.add_argument("--file", help="module JSON document (inline JSON, path, or -)")
    module.add_argument("--q", type=int, help="residue field size of the fixture (default 2)")
    module.add_argument("--n", type=int,
                        help=f"truncation length of the fixture (default {DEFAULT_PRECISION})")
    return module


def _parser():
    top = _Parser(
        prog="sll",
        description="exact local computations: Witt rings, series reduction, "
        "Dieudonne modules, deformation relations, local-model fibers",
    )
    top.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    sub = top.add_subparsers(dest="command", required=True)

    operands = argparse.ArgumentParser(add_help=False)
    operands.add_argument("input", help="operand rows: inline JSON, a path, or - for stdin")
    witt = sub.add_parser("witt", help="truncated Witt ring arithmetic").add_subparsers(
        dest="op", required=True)
    witt.add_parser("add", parents=[operands]).set_defaults(handler=_witt_fold,
                                                            combine=operator.add)
    witt.add_parser("mul", parents=[operands]).set_defaults(handler=_witt_fold,
                                                            combine=operator.mul)
    witt.add_parser("frob", parents=[operands]).set_defaults(handler=_witt_frob)
    witt.add_parser("digits", parents=[operands]).set_defaults(handler=_witt_digits)

    sr = sub.add_parser("series-reduce", help="normal-form reduction of a series file")
    sr.add_argument("input", help="series document (inline JSON, path, or -)")
    sr.add_argument("--degree", type=int, help="truncate to this degree first")
    sr.set_defaults(handler=_series_reduce)

    module = _module_options()
    dd = sub.add_parser("dieudonne", help="module invariants and searches").add_subparsers(
        dest="op", required=True)
    validate = dd.add_parser("validate", parents=[module])
    validate.add_argument("--spot-checks", dest="spot_checks", type=int, default=0,
                          help="also re-check invariants under this many random base changes")
    validate.set_defaults(handler=_validate)
    dd.add_parser("invariants", parents=[module]).set_defaults(handler=_invariants)
    dd.add_parser("dual", parents=[module]).set_defaults(handler=_dual)
    dd.add_parser("lagrangian-search", parents=[module]).set_defaults(
        handler=_lagrangian_search)

    de = sub.add_parser("deform", parents=[module],
                        help="deformation relation and classification")
    de.add_argument("--frame", help="1-based Hodge indices, e.g. 3,4")
    de.set_defaults(handler=_deform)

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--q", type=int, required=True, help="residue field size")
    lm = sub.add_parser("local-model", help="special fiber of the local model").add_subparsers(
        dest="op", required=True)
    lm.add_parser("points", parents=[field]).set_defaults(handler=_points)
    lm.add_parser("tangents", parents=[field]).set_defaults(handler=_tangents)
    chart = lm.add_parser("chart", parents=[field])
    chart.add_argument("--n", type=int, help=f"truncation length (default {DEFAULT_PRECISION})")
    chart.set_defaults(handler=_chart)

    return top


def run(argv=None):
    args = _parser().parse_args(argv)
    return args.handler(args)


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
        import traceback

        traceback.print_exc()  # to stderr; stdout keeps its one JSON document
        print(json.dumps({"error": {"kind": "internal", "message": str(exc)}},
                         sort_keys=True))
        return 4
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
