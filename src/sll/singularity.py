"""Normal-form reduction of truncated series with non-degenerate quadratic
part, over A = W_n(F_q) with maximal ideal (p).

Pipeline: a coordinate shift kills the linear term (solved by fixed-point
iteration against the inverse Gram matrix), then iterated coordinate
corrections absorb every part of degree 3 .. D-1.  The output is a
certificate f(phi(x)) = unit * (a' + Q'(x)), exact up to the truncation
degree, with a' congruent to the original constant modulo p^3 when the
linear coefficients start in (p^2); more generally linear coefficients in
(p^r) give agreement modulo p^(2r).

The canonical pipeline produces unit = 1: degree-d parts are absorbed by
substitutions alone, which is possible exactly because the Gram matrix is
invertible.  The unit is kept in the result type as part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .base_rings import WittRing
from .errors import InternalInvariantError, PreconditionError, SmoothShortCircuit
from .quadforms import QuadraticForm, bilinear_gram, is_nondegenerate
from .series import SeriesRing, TruncatedSeries


def default_truncation(p):
    """Truncation degree used by the singularity pipeline at residue
    characteristic p: keeps the modulo-m^p window representable with slack."""
    return 2 * p + 2


@dataclass
class NormalFormResult:
    """Certified reduction f(phi(x)) = unit * (a_prime + Q_prime(x))."""

    a_prime: object
    q_prime: QuadraticForm
    phi: list
    unit: TruncatedSeries

    def rhs_series(self, ring=None):
        ring = ring or self.unit.parent
        return self.unit * (ring.constant(self.a_prime) + self.q_prime.to_series(ring))

    def certificate_holds(self, f):
        return f.substitute(self.phi) == self.rhs_series(f.parent)


@dataclass
class LocalRingClass:
    """Classification of the local ring R/(f): Smooth, OrdinaryDoublePoint
    (carrying a_prime and its valuation), or Undetermined."""

    tag: str
    a_prime: object = None
    valuation: int = None
    detail: str = ""
    normal_form: NormalFormResult = None

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


def _gradient_at(f, b):
    """The vector (d f / d x_i)(b), exact: substitution by constants does
    not lose truncation."""
    ring = f.parent
    A = ring.coeff_ring
    n = ring.nvars
    # cache powers of each b_i
    maxdeg = f.degree_bound()
    pows = []
    for i in range(n):
        row = [A.one()]
        for _ in range(maxdeg):
            row.append(row[-1] * b[i])
        pows.append(row)
    grad = [A.zero() for _ in range(n)]
    for e, c in f.coeffs.items():
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            term = c * A.from_int(ei)
            for j, ej in enumerate(e):
                k = ej - 1 if j == i else ej
                if k:
                    term = term * pows[j][k]
            grad[i] = grad[i] + term
    return grad


def kill_linear_term(f):
    """Shift b with the linear part of f(x + b) identically zero.

    Returns (b, f_shifted).  b is found by the fixed-point iteration
    b <- b - G^{-1} grad f(b); since the corrections gain a factor of p at
    every step, the iteration reaches an exact fixed point in at most n
    rounds.  Linear coefficients in (p^r) give b in (p^r), hence a
    constant term preserved modulo p^(2r).
    """
    A = _coeff_ring_of(f)
    lin = f.linear_coefficients()
    for i, c in enumerate(lin):
        if A.is_unit(c):
            raise SmoothShortCircuit("unit linear coefficient", index=i)
    Q = QuadraticForm.from_series(f)
    if not is_nondegenerate(Q):
        raise PreconditionError("quadratic part is degenerate", part="quadratic")
    if not A.in_maximal_ideal(f.constant_term()):
        raise PreconditionError("constant term must lie in the maximal ideal", part="constant")

    n = f.parent.nvars
    Ginv = linalg.invert(A, bilinear_gram(Q))
    b = [A.zero() for _ in range(n)]
    for _ in range(2 * A.n + 4):
        grad = _gradient_at(f, b)
        if not any(grad):
            break
        step = linalg.mat_vec(Ginv, grad)
        b = [bi - si for bi, si in zip(b, step)]
    else:
        raise InternalInvariantError("linear-term iteration did not converge")

    ring = f.parent
    shift = [ring.variable(i) + ring.constant(b[i]) for i in range(n)]
    f_shifted = f.substitute(shift)
    if any(f_shifted.linear_coefficients()):
        raise InternalInvariantError("linear part survived the shift")
    return b, f_shifted


def strip_higher_terms(f):
    """Iterated corrections x -> x + c(x) absorbing all parts of degree
    3 .. D-1; at step d the degree-d part is written as sum x_i h_i (each
    monomial assigned to its smallest-index variable) and c = -G^{-1} h.

    Returns (phi, unit, Q_prime) with f(phi(x)) = unit * (a + Q'(x)) up to
    degree D; the canonical unit is 1 and Q' equals the input quadratic
    part exactly.
    """
    A = _coeff_ring_of(f)
    if any(f.linear_coefficients()):
        raise PreconditionError("strip_higher_terms needs a vanishing linear part", part="linear")
    Q = QuadraticForm.from_series(f)
    if not is_nondegenerate(Q):
        raise PreconditionError("quadratic part is degenerate", part="quadratic")

    ring = f.parent
    n = ring.nvars
    D = ring.degree
    Ginv = linalg.invert(A, bilinear_gram(Q))
    phi = ring.variables()
    fcur = f
    for d in range(3, D):
        part = fcur.graded_part(d)
        if not part:
            continue
        # degree-d part as sum_i x_i h_i(x), h_i homogeneous of degree d-1
        h = [ring.zero() for _ in range(n)]
        for e, c in part.coeffs.items():
            i = next(k for k, ek in enumerate(e) if ek)
            rest = tuple(ek - 1 if k == i else ek for k, ek in enumerate(e))
            h[i] = h[i] + ring.from_terms([(rest, c)])
        corr = []
        for j in range(n):
            acc = ring.zero()
            for k in range(n):
                if h[k]:
                    acc = acc + h[k].scalar_mul(Ginv[j][k])
            corr.append(-acc)
        step = [ring.variable(j) + corr[j] for j in range(n)]
        fcur = fcur.substitute(step)
        if fcur.graded_part(d):
            raise InternalInvariantError(f"degree-{d} part survived its correction step")
        phi = [comp.substitute(step) for comp in phi]
    q_prime = QuadraticForm.from_series(fcur)
    if q_prime.upper != Q.upper:
        raise InternalInvariantError("quadratic part drifted during stripping")
    return phi, ring.one(), q_prime


def reduce_to_quadric(f):
    """kill_linear_term followed by strip_higher_terms, with the composed
    coordinate change.  Preconditions: constant and linear coefficients in
    the maximal ideal (a unit linear coefficient raises SmoothShortCircuit)
    and a non-degenerate quadratic part."""
    b, f1 = kill_linear_term(f)
    psi, unit, q_prime = strip_higher_terms(f1)
    ring = f.parent
    phi = [psi[i] + ring.constant(b[i]) for i in range(ring.nvars)]
    a_prime = f1.constant_term()
    result = NormalFormResult(a_prime, q_prime, phi, unit)
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
    if not is_nondegenerate(QuadraticForm.from_series(f)):
        raise PreconditionError("quadratic part is degenerate", part="quadratic")
    result = reduce_to_quadric(f)
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
    if not is_nondegenerate(QuadraticForm.from_series(f)):
        return LocalRingClass("Undetermined", detail="degenerate_quadratic_part")
    return double_point_class(reduce_to_quadric(f))


def double_point_class(nf):
    """The class R/(f) has when f reduces to the certified normal form nf."""
    a = nf.a_prime
    return LocalRingClass("OrdinaryDoublePoint", a_prime=a, valuation=a.ring.valuation(a),
                          detail="normal_form", normal_form=nf)
