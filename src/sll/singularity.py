"""Normal-form reduction of truncated series with non-degenerate quadratic
part, over A = W_n(F_q) with maximal ideal (p).

Pipeline: one absorbing step.  The degree-d part of f, written as
sum x_i h_i, is absorbed by the substitution x -> x - G^{-1} h, where G is
the Gram matrix of the quadratic part.  Repeated at d = 1 until the linear
part vanishes, the step is the Newton iteration for the shift that kills
the linear term; applied once at each d = 3 .. D-1, it strips the higher
terms.  A step at degree d >= 3 is x -> x + u with u of order d - 1, so
`_compose` substitutes it only into the monomials of degree below D - d + 2
and passes the rest through; the series kernel visits only the products of
total degree below D.  The output is a certificate
f(phi(x)) = unit * (a' + Q'(x)), checked by one full substitution and exact
up to the truncation degree, with a' congruent to the original constant
modulo p^3 when the linear coefficients start in (p^2); more generally
linear coefficients in (p^r) give agreement modulo p^(2r).

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
from .series import TruncatedSeries


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

    def rhs_series(self):
        ring = self.unit.parent
        return self.unit * (ring.constant(self.a_prime) + self.q_prime.to_series(ring))

    def certificate_holds(self, f):
        return f.substitute(self.phi) == self.rhs_series()


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


def _quadratic_inverse(f):
    """The quadratic part Q of f and the inverse of its Gram matrix."""
    Q = QuadraticForm.from_series(f)
    if not is_nondegenerate(Q):
        raise PreconditionError("quadratic part is degenerate", part="quadratic")
    return Q, linalg.invert(f.parent.coeff_ring, bilinear_gram(Q))


def _absorbing_step(f, d, Ginv):
    """The substitution x_j -> x_j - sum_k Ginv[j][k] h_k, where the degree-d
    part of f is sum_i x_i h_i, each monomial given to its smallest-index
    variable (None if there is no such part).  It cancels that part up to
    terms of higher degree (d >= 3) or higher valuation (d = 1)."""
    ring = f.parent
    h = [{} for _ in range(ring.nvars)]
    for e, c in f.coeffs.items():
        if sum(e) == d:
            i = next(k for k, ek in enumerate(e) if ek)
            h[i][e[:i] + (e[i] - 1,) + e[i + 1:]] = c
    if not any(h):
        return None
    step = []
    for j, row in enumerate(Ginv):
        terms = dict(ring.variable(j).coeffs)
        for g, hk in zip(row, h):
            if not g:
                continue
            for e, c in hk.items():
                s = terms[e] - g * c if e in terms else -(g * c)
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        step.append(TruncatedSeries(ring, terms))
    return step


def _compose(g, step, d):
    """g(step) for a degree-d absorbing step x -> x + u, u of order d - 1.

    A monomial of degree k only gains terms of degree >= k + d - 2, so one
    of degree k >= D - d + 2 passes through unchanged: only the part of g
    below that degree is substituted, and the rest is added back as is."""
    ring = g.parent
    cut = ring.degree - d + 2
    low, high = {}, {}
    for e, c in g.coeffs.items():
        (high if sum(e) >= cut else low)[e] = c
    return TruncatedSeries(ring, low).substitute(step) + TruncatedSeries(ring, high)


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
    _, Ginv = _quadratic_inverse(f)
    if not A.in_maximal_ideal(f.constant_term()):
        raise PreconditionError("constant term must lie in the maximal ideal", part="constant")

    b = [A.zero()] * f.parent.nvars
    for _ in range(2 * A.n + 4):
        step = _absorbing_step(f, 1, Ginv)
        if step is None:
            return b, f
        f = f.substitute(step)
        b = [bi + si.constant_term() for bi, si in zip(b, step)]
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
    Q, Ginv = _quadratic_inverse(f)

    ring = f.parent
    phi = ring.variables()
    for d in range(3, ring.degree):
        if f.degree_bound() < d:
            break
        step = _absorbing_step(f, d, Ginv)
        if step is None:
            continue
        f = _compose(f, step, d)
        if f.graded_part(d):
            raise InternalInvariantError(f"degree-{d} part survived its correction step")
        phi = [_compose(comp, step, d) for comp in phi]
    q_prime = QuadraticForm.from_series(f)
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
    if not is_nondegenerate(QuadraticForm.from_series(f)):
        return LocalRingClass("Undetermined", detail="degenerate_quadratic_part")
    return double_point_class(reduce_to_quadric(f))


def double_point_class(nf):
    """The class R/(f) has when f reduces to the certified normal form nf."""
    a = nf.a_prime
    return LocalRingClass("OrdinaryDoublePoint", a_prime=a, valuation=a.ring.valuation(a),
                          detail="normal_form", normal_form=nf)
