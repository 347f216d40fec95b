"""Normal-form reduction of truncated series with non-degenerate quadratic
part, over A = W_n(F_q) with maximal ideal (p).

Pipeline: one absorbing step.  The degree-d part of f, written as
sum x_i h_i, is absorbed by the substitution x -> x - G^{-1} h, where G is
the Gram matrix of the quadratic part.  Repeated at d = 1 until the linear
part vanishes, the step is the Newton iteration for the shift that kills
the linear term; applied once at each d = 3 .. D-1, it strips the higher
terms.  f and phi stay `TruncatedSeries` throughout; the keys of their
packed maps are read only by `series._Packing`, which splits a series at a
degree, writes its degree-d part as sum x_i h_i, and substitutes.  The
correction -G^{-1} h is one substitution y = h into the linear forms
-sum_k G^{-1}[j][k] y_k.  A step at degree d >= 3 is x -> x + u with u of
order d - 1, so only the monomials of degree below D - d + 2 are
substituted and the rest pass through; the series kernel visits only the
products of total degree below D.

G^{-1} comes from one row reduction of [G mod p | I] over F_q, which is
also the test that the quadratic part is non-degenerate, lifted to
W_n(F_q) by the Newton iteration X <- X (2I - G X), each product one
`base_rings.CoeffPacking.mat_mul` on reduced coefficients.

The output is a certificate f(phi(x)) = unit * (a' + Q'(x)), checked by
one full substitution and exact up to the truncation degree, with a'
congruent to the original constant modulo p^3 when the linear
coefficients start in (p^2); more generally linear coefficients in (p^r)
give agreement modulo p^(2r).

The canonical pipeline produces unit = 1: degree-d parts are absorbed by
substitutions alone, which is possible exactly because the Gram matrix is
invertible.  The unit is kept in the result type as part of the contract.
"""

from __future__ import annotations

from . import linalg
from .base_rings import WittRing
from .errors import InternalInvariantError, PreconditionError, SmoothShortCircuit
from .quadforms import QuadraticForm, bilinear_gram
from .series import TruncatedSeries


def default_truncation(p):
    """Truncation degree used by the singularity pipeline at residue
    characteristic p: keeps the modulo-m^p window representable with slack."""
    return 2 * p + 2


class NormalFormResult:
    """Certified reduction f(phi(x)) = unit * (a_prime + Q_prime(x))."""

    def __init__(self, a_prime, q_prime, phi, unit):
        self.a_prime = a_prime
        self.q_prime = q_prime  # a QuadraticForm
        self.phi = phi          # a list of TruncatedSeries
        self.unit = unit        # a TruncatedSeries

    def rhs_series(self):
        ring = self.unit.parent
        return self.unit * (ring.constant(self.a_prime) + self.q_prime.to_series(ring))

    def certificate_holds(self, f):
        return f.substitute(self.phi) == self.rhs_series()


class LocalRingClass:
    """Classification of the local ring R/(f): Smooth, OrdinaryDoublePoint
    (carrying a_prime and its valuation), or Undetermined."""

    def __init__(self, tag, a_prime=None, valuation=None, detail="", normal_form=None):
        self.tag = tag
        self.a_prime = a_prime
        self.valuation = valuation
        self.detail = detail
        self.normal_form = normal_form  # the NormalFormResult behind an OrdinaryDoublePoint

    def __eq__(self, other):
        return isinstance(other, LocalRingClass) and other.tag == self.tag

    def __repr__(self):
        if self.tag == "OrdinaryDoublePoint":
            return f"LocalRingClass(OrdinaryDoublePoint, v(a')={self.valuation})"
        return f"LocalRingClass({self.tag})"


def _coeff_ring_of(f):
    ring = f.parent.coeff_ring
    if not isinstance(ring, WittRing):
        raise PreconditionError("normal-form reduction needs W_n(F_q) coefficients")
    return ring


def _quadratic_inverse(f):
    """The inverse of the Gram matrix G of the quadratic part of f, as rows
    of reduced coefficients (the `base_rings.CoeffPacking` form).

    One row reduction of [G mod p | I] over F_q is both the rank test and
    (G mod p)^(-1).  Newton's X <- X (2I - G X) lifts that to G^(-1), each
    round doubling the power of p that divides I - G X, until G X = I."""
    A = f.parent.coeff_ring
    packing = A.packing
    field, n = A.field, f.parent.nvars
    gram = bilinear_gram(QuadraticForm.from_series(f))
    work, pivots = linalg.rref_field(
        field, [[A.residue(g) for g in row] + idr
                for row, idr in zip(gram, linalg.identity(field, n))])
    if pivots != list(range(n)):
        raise PreconditionError("quadratic part is degenerate", part="quadratic")
    G = [[packing.reduced(g) for g in row] for row in gram]
    X = [[packing.reduced(x) for x in row[n:]] for row in work]
    zero, neg = packing.zero, packing.neg
    identity = [[packing.one if i == j else zero for j in range(n)] for i in range(n)]
    two = packing.reduced(A.from_int(2))
    # X (2I - GX) is one product: [X | -X] times [2I ; GX]
    two_identity = [[two if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(A.n.bit_length() + 1):
        GX = packing.mat_mul(G, X)
        if GX == identity:
            return X
        X = packing.mat_mul([row + [neg(x) for x in row] for row in X], two_identity + GX)
    raise InternalInvariantError("Gram inverse lift did not converge")


def _step_forms(f):
    """The linear forms -sum_k Ginv[j][k] y_k, one per j, as packed maps,
    with Ginv the inverse Gram matrix of the quadratic part of f."""
    neg, linear = f.parent.coeff_ring.packing.neg, f.parent._packing.linear
    return [linear([neg(g) for g in row]) for row in _quadratic_inverse(f)]


def _step(F, d, forms):
    """The substitution x_j -> x_j - sum_k Ginv[j][k] h_k as packed maps,
    where the degree-d part of F is sum_i x_i h_i (`series._Packing.factor`),
    or None if there is no such part.  Each correction is the substitution
    y = h into forms[j] (`_step_forms`).  The step cancels that part up to
    terms of higher degree (d >= 3) or higher valuation (d = 1)."""
    ring = F.parent
    packing = ring._packing
    h = packing.factor(F.packed, d)
    if not any(h):
        return None
    # a correction has degree d - 1, never 1, so it does not meet x_j
    add = ring.coeff_ring.packing.add
    return [add(packing.substitute(form, h), x.packed) for form, x in zip(forms, ring.variables())]


def _apply_step(g, step, cut):
    """g(step) for a step x -> x + u with u of order d - 1 and
    cut = D - d + 2.  A monomial of degree k only gains terms of degree
    >= k + d - 2, so one of degree >= cut passes through unchanged: only
    the part of g below the cut is substituted, and the rest is added back
    as is."""
    ring = g.parent
    low, high = ring._packing.split(g.packed, cut)
    return TruncatedSeries(
        ring, ring.coeff_ring.packing.add(ring._packing.substitute(low, step), high))


def _absorb(F, phi, d, forms):
    """The degree-d absorbing step applied to F and to each component of phi;
    None if F has no degree-d part."""
    step = _step(F, d, forms)
    if step is None:
        return None
    cut = F.parent.degree - d + 2
    return _apply_step(F, step, cut), [_apply_step(c, step, cut) for c in phi]


def kill_linear_term(f):
    """Shift b with the linear part of f(x + b) identically zero.

    Returns (b, f_shifted).  The degree-1 absorbing step, repeated until the
    linear part vanishes, is b <- b - G^{-1} grad f(b), since grad f(b) is
    the linear part of f(x + b).  Each correction gains a factor of p, so
    at most n rounds run.  Linear coefficients in (p^r) give b in (p^r),
    hence a constant term preserved modulo p^(2r).
    """
    A = _coeff_ring_of(f)
    for i, c in enumerate(f.linear_coefficients()):
        if A.is_unit(c):
            raise SmoothShortCircuit("unit linear coefficient", index=i)
    forms = _step_forms(f)
    if not A.in_maximal_ideal(f.constant_term()):
        raise PreconditionError("constant term must lie in the maximal ideal", part="constant")

    F, phi = f, f.parent.variables()
    for _ in range(2 * A.n + 4):
        absorbed = _absorb(F, phi, 1, forms)
        if absorbed is None:
            # phi_j = x_j + b_j
            return [c.constant_term() for c in phi], F
        F, phi = absorbed
    raise InternalInvariantError("linear-term iteration did not converge")


def strip_higher_terms(f):
    """The absorbing step at each degree d = 3 .. D-1 in turn, stopping
    once f has no term of degree d or more: every later step is empty.

    Returns (phi, unit, Q_prime) with f(phi(x)) = unit * (a + Q'(x)) up to
    degree D; the canonical unit is 1 and Q' equals the input quadratic
    part exactly.
    """
    _coeff_ring_of(f)
    if any(f.linear_coefficients()):
        raise PreconditionError("strip_higher_terms needs a vanishing linear part", part="linear")
    forms = _step_forms(f)

    ring = f.parent
    F, phi = f, ring.variables()
    quadratic = f.graded_part(2)
    for d in range(3, ring.degree):
        if F.degree_bound() < d:
            break
        absorbed = _absorb(F, phi, d, forms)
        if absorbed is None:
            continue
        F, phi = absorbed
        if F.graded_part(d):
            raise InternalInvariantError(f"degree-{d} part survived its correction step")
    if F.graded_part(2) != quadratic:
        raise InternalInvariantError("quadratic part drifted during stripping")
    return phi, ring.one(), QuadraticForm.from_series(quadratic)


def reduce_to_quadric(f):
    """kill_linear_term followed by strip_higher_terms, with the composed
    coordinate change.  Preconditions: constant and linear coefficients in
    the maximal ideal (a unit linear coefficient raises SmoothShortCircuit)
    and a non-degenerate quadratic part."""
    b, f1 = kill_linear_term(f)
    psi, unit, q_prime = strip_higher_terms(f1)
    phi = [c + f.parent.constant(bi) for c, bi in zip(psi, b)]
    result = NormalFormResult(f1.constant_term(), q_prime, phi, unit)
    if not result.certificate_holds(f):
        raise InternalInvariantError("reduction certificate failed")
    return result


def normal_form(f):
    """Full certified reduction under the strict entry hypothesis:
    constant term in (p), every linear coefficient in (p^2), quadratic
    part non-degenerate.  Guarantees a' = a mod p^3 (digit check for
    n >= 3; full precision for n < 3)."""
    A = _coeff_ring_of(f)
    a = f.constant_term()
    if A.is_unit(a):
        raise PreconditionError("constant term is a unit (unit ideal)", part="constant")
    for i, c in enumerate(f.linear_coefficients()):
        if A.is_unit(c):
            raise SmoothShortCircuit("unit linear coefficient", index=i)
        if c and A.valuation(c) < 2:
            raise PreconditionError(
                f"linear coefficient {i + 1} has valuation < 2", part="linear"
            )
    result = reduce_to_quadric(f)  # raises on a degenerate quadratic part
    k = min(3, A.n)
    if A.digits(result.a_prime)[:k] != A.digits(a)[:k]:
        raise InternalInvariantError("constant-term refinement a' = a mod p^3 failed")
    return result


def classify_local_ring(f):
    """Total classification of R/(f).

    Smooth when a linear coefficient is a unit (implicit function), or when
    the constant term is a unit (unit ideal: empty vanishing locus, flagged
    in `detail`); OrdinaryDoublePoint(a') when the reduction succeeds with
    a non-degenerate quadratic part; Undetermined otherwise.  Never a wrong
    positive.
    """
    A = _coeff_ring_of(f)
    a = f.constant_term()
    if A.is_unit(a):
        return LocalRingClass("Smooth", detail="unit_ideal")
    for i, c in enumerate(f.linear_coefficients()):
        if A.is_unit(c):
            return LocalRingClass("Smooth", detail=f"unit_linear_coefficient_{i + 1}")
    try:
        nf = reduce_to_quadric(f)
    except PreconditionError as err:
        # the checks above rule out every other part
        if err.part != "quadratic":
            raise
        return LocalRingClass("Undetermined", detail="degenerate_quadratic_part")
    return double_point_class(nf)


def double_point_class(nf):
    """The class R/(f) has when f reduces to the certified normal form nf."""
    a = nf.a_prime
    return LocalRingClass("OrdinaryDoublePoint", a_prime=a, valuation=a.ring.valuation(a),
                          detail="normal_form", normal_form=nf)
