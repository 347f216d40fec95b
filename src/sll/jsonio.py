"""JSON encodings of the algebraic objects: the one codec of the package.

Exact integers only, no floats.  Witt elements are encoded by their
polynomial coefficients mod p^n ({"coeffs": [...]}) with the Teichmuller
digit encoding ({"digits": [...]}) accepted as an alternative; digits
flatten to plain integers over prime fields.  Element, ring, series,
quadratic-form, normal-form and module documents parse back to equal
objects; planes, dual lattices and witness searches are encoded only.

This module is the one decoder of field, ring, coefficient and module
documents.  Every integer it reads (p, m, n, exponents, coefficients,
digits) must be a JSON integer: floats and booleans are rejected, never
truncated.
"""

from __future__ import annotations

import math

from .base_rings import FiniteField, WittRing, find_irreducible
from .errors import ValidationError

# series documents: every series the package builds has at most 4 variables,
# and the quadratic-part checks row-reduce an nvars x nvars Gram matrix
MAX_NVARS = 8
# a series with a term of degree >= 3 may span at most C(15, 4) monomials of
# degree < D (4 variables at D = 12), since reduction work grows with the count
MAX_SERIES_MONOMIALS = 1365


def _int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def _ints(xs, what):
    if not isinstance(xs, list):
        raise ValidationError(f"{what} must be a list of integers, got {xs!r}")
    return tuple(_int(x, what) for x in xs)


def coeff_from_json(x):
    """A ring element's encoding: an integer or a coefficient list."""
    return _ints(x, "coefficient") if isinstance(x, list) else _int(x, "coefficient")


def field_from_json(doc):
    """F_q from a field document, or from the field entries of a ring document."""
    if not isinstance(doc, dict):
        raise ValidationError(f"field or ring document must be a JSON object, got {doc!r}")
    modulus = _ints(doc["modulus"], "modulus") if "modulus" in doc else None
    return FiniteField(_int(doc.get("p"), "p"), _int(doc.get("m", 1), "m"), modulus)


def ring_from_json(doc):
    return WittRing(field_from_json(doc), _int(doc.get("n"), "n"))


def ring_to_json(ring):
    return {"p": ring.p, "m": ring.field.m, "n": ring.n, "modulus": list(ring.field.modulus)}


def vectors_to_json(rows):
    """Rows of ring elements (a matrix or a list of vectors), each element
    as its coefficient list."""
    return [[list(x.coeffs) for x in row] for row in rows]


def _digits_list(ring, x):
    ds = ring.digits(x)
    if ring.field.m == 1:
        return [d.coeffs[0] for d in ds]
    return [list(d.coeffs) for d in ds]


def elem_to_json(ring, x):
    doc = {"p": ring.p, "m": ring.field.m, "n": ring.n, "coeffs": list(x.coeffs)}
    # coefficients and digits are read against the field modulus, so the
    # document names it whenever it is not the default one
    if ring.field.modulus != find_irreducible(ring.p, ring.field.m):
        doc["modulus"] = list(ring.field.modulus)
    doc["digits"] = _digits_list(ring, x)
    return doc


def _digit(field, x):
    """An integer digit, or a coefficient list of length m."""
    if isinstance(x, list) and len(x) != field.m:
        raise ValidationError(f"a digit of F_{field.q} has {field.m} coefficients, got {x!r}")
    return field.element(coeff_from_json(x))


def elem_from_fields(ring, doc):
    """An element from either a coeffs vector or a digits vector."""
    if "coeffs" in doc:
        return ring.element(_ints(doc["coeffs"], "coefficient"))
    if "digits" in doc:
        if not isinstance(doc["digits"], list):
            raise ValidationError("digits must be a list")
        return ring.from_digits([_digit(ring.field, d) for d in doc["digits"]])
    raise ValidationError("element document needs 'coeffs' or 'digits'")


def coeff_ring_to_json(ring):
    if isinstance(ring, WittRing):
        doc = ring_to_json(ring)
        doc["type"] = "witt"
        return doc
    return {"type": "field", "p": ring.p, "m": ring.m, "modulus": list(ring.modulus)}


def coeff_ring_from_json(doc):
    # field_from_json rejects a document that is not an object
    kind = doc.get("type", "witt") if isinstance(doc, dict) else "witt"
    if kind == "witt":
        return ring_from_json(doc)
    if kind == "field":
        return field_from_json(doc)
    raise ValidationError(f"unknown coefficient ring type {kind!r}")


def series_to_json(f):
    ring = f.parent
    return {
        "coeff_ring": coeff_ring_to_json(ring.coeff_ring),
        "nvars": ring.nvars,
        "degree": ring.degree,
        "vars": list(ring.var_names),
        "terms": [
            {"exps": list(e), "coeff": list(c.coeffs)} for e, c in f.terms()
        ],
        "text": f.to_text(),
    }


def series_from_json(doc):
    from .series import SeriesRing

    try:
        coeff_ring = coeff_ring_from_json(doc["coeff_ring"])
        nvars = _int(doc["nvars"], "nvars")
        if nvars > MAX_NVARS:
            raise ValidationError(f"nvars {nvars} is above the limit {MAX_NVARS}")
        degree = _int(doc["degree"], "degree")
        names = doc.get("vars")
        if names is not None and (not isinstance(names, list) or len(names) != nvars
                                  or not all(isinstance(v, str) for v in names)):
            raise ValidationError(f"vars must be null or a list of {nvars} strings, got {names!r}")
        ring = SeriesRing(coeff_ring, nvars, degree, names)
        terms = [(_ints(t["exps"], "exponent"), coeff_from_json(t["coeff"]))
                 for t in doc["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad series document: {exc}") from exc
    f = ring.from_terms(terms)
    size = math.comb(degree - 1 + nvars, nvars)
    if f.degree_bound() >= 3 and size > MAX_SERIES_MONOMIALS:
        raise ValidationError(
            f"a series with terms of degree >= 3 may span at most {MAX_SERIES_MONOMIALS} "
            f"monomials; {nvars} variables below degree {degree} span {size}")
    return f


def quadform_to_json(q):
    return {
        "nvars": q.nvars,
        "upper": [
            {"i": i, "j": j, "coeff": list(c.coeffs)}
            for (i, j), c in sorted(q.upper.items())
        ],
    }


def quadform_from_json(coeff_ring, doc):
    from .quadforms import QuadraticForm

    upper = {}
    for t in doc["upper"]:
        upper[(_int(t["i"], "index"), _int(t["j"], "index"))] = coeff_from_json(t["coeff"])
    return QuadraticForm(coeff_ring, _int(doc["nvars"], "nvars"), upper)


def normal_form_to_json(ring, result):
    return {
        "a_prime": elem_to_json(ring, result.a_prime),
        "a_prime_valuation": ring.valuation(result.a_prime),
        "q_prime": quadform_to_json(result.q_prime),
        "phi": [series_to_json(component) for component in result.phi],
        "unit": series_to_json(result.unit),
    }


def module_to_json(module):
    return {"ring": ring_to_json(module.ring), "F": vectors_to_json(module.F_matrix),
            "V": vectors_to_json(module.V_matrix), "J": vectors_to_json(module.J)}


def module_from_json(doc):
    from .dieudonne import DieudonneModule

    try:
        ring = ring_from_json(doc["ring"])
        mats = []
        for key in ("F", "V", "J"):
            rows = doc[key]
            if len(rows) != 4 or any(len(r) != 4 for r in rows):
                raise ValidationError(f"{key} must be a 4x4 matrix")
            mats.append([[coeff_from_json(x) for x in row] for row in rows])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad module document: {exc}") from exc
    return DieudonneModule(ring, *mats)


def dual_lattice_to_json(dual):
    return {"precision": dual.precision, "p_dual_basis_columns": vectors_to_json(dual.columns())}


def search_to_json(result):
    """A Lagrangian witness search: its verdict, and the witness if found."""
    doc = {"found": result.found, "precision": result.precision, "nodes": result.nodes,
           "message": result.message}
    if result.found:
        w = result.witness
        doc["witness"] = dict(zip(("Y1", "Y2", "X1", "X2"),
                                  vectors_to_json((w.Y1, w.Y2, w.X1, w.X2))))
    return doc


def plane_to_json(plane):
    return {"basis": vectors_to_json(plane.basis)}
