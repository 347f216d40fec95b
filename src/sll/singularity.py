"""Normal-form reduction of truncated series with non-degenerate quadratic
part, over A = W_n(F_q) with maximal ideal (p).

Pipeline: one absorbing step.  The degree-d part of f, written as
sum x_i h_i, is absorbed by the substitution x -> x - G^{-1} h, where G is
the Gram matrix of the quadratic part.  Repeated at d = 1 until the linear
part vanishes, the step is the Newton iteration for the shift that kills
the linear term; applied once at each d = 3 .. D-1, it strips the higher
terms.  f and phi stay `TruncatedSeries` throughout; the keys of their
packed maps are read only in `sll.series`, whose `SeriesRing` writes a
degree-d part as sum x_i h_i and substitutes.  A step is two
substitutions: y = h into the linear forms -sum_k G^{-1}[j][k] y_k, then
the step into f and every phi_j at once.  A step at degree d >= 3 is
x -> x + u with u of order d - 1, so only the monomials of degree below
D - d + 2 are substituted and the rest are added as they stand; the series
kernel visits only the products of total degree below D.

Each phase reads the quadratic part Q once (`QuadraticForm.from_series`)
and asks `quadforms.gram_inverse` for G^{-1}, which is also the test that
Q is non-degenerate, in slot ints of the series ring's packing: no ring
element is built.  That module keeps the last inverse, so G is inverted
once per normal form, unless the linear shift moves Q.

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

from .base_rings import WittRing
from .errors import InternalInvariantError, PreconditionError, SmoothShortCircuit
from .quadforms import QuadraticForm, gram_inverse
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

    def certificate_holds(self, f):
        ring = self.unit.parent
        return f.substitute(self.phi) == self.unit * (
            ring.constant(self.a_prime) + self.q_prime.to_series(ring))


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


def _step_forms(ring, Q):
    """The linear forms -sum_k Ginv[j][k] y_k, one per j, as packed maps of
    the series ring, with Ginv the inverse Gram matrix of Q."""
    return [ring._neg(ring._linear(row)) for row in gram_inverse(Q, ring.packing)]


def _step(F, d, forms):
    """The substitution x_j -> x_j - sum_k Ginv[j][k] h_k as packed maps,
    where the degree-d part of F is sum_i x_i h_i (`SeriesRing._factor`),
    or None if there is no such part.  The corrections are one substitution
    y = h into all the forms[j] (`_step_forms`).  The step cancels that
    part up to terms of higher degree (d >= 3) or higher valuation (d = 1)."""
    ring = F.parent
    h = ring._factor(F.packed, d)
    if not any(h):
        return None
    # a correction has degree d - 1, never 1, so it does not meet x_j
    return [ring._add(u, x.packed)
            for u, x in zip(ring._substitute(forms, h, ring.degree), ring.variables())]


def _apply_step(gs, step, cut):
    """[g(step) for g in gs], in one substitution, for a step x -> x + u
    with u of order d - 1 and cut = D - d + 2.  A monomial of degree k only
    gains terms of degree >= k + d - 2, so one of degree >= cut passes
    through unchanged: only the part below the cut is substituted."""
    ring = gs[0].parent
    return [TruncatedSeries(ring, g) for g in ring._substitute([g.packed for g in gs], step, cut)]


def _absorb(F, phi, d, forms):
    """[F, *phi] after the degree-d absorbing step, taken by F and by each
    component of phi; None if F has no degree-d part."""
    step = _step(F, d, forms)
    return None if step is None else _apply_step([F, *phi], step, F.parent.degree - d + 2)


def kill_linear_term(f):
    """Shift b with the linear part of f(x + b) identically zero.

    Returns (b, f_shifted).  The degree-1 absorbing step, repeated until the
    linear part vanishes, is b <- b - G^{-1} grad f(b), since grad f(b) is
    the linear part of f(x + b).  Each correction gains a factor of p, so
    at most n rounds run.  Linear coefficients in (p^r) give b in (p^r),
    hence a constant term preserved modulo p^(2r).
    """
    A = _coeff_ring_of(f)
    if any(map(A.is_unit, f.linear_coefficients())):
        raise SmoothShortCircuit("unit linear coefficient")
    forms = _step_forms(f.parent, QuadraticForm.from_series(f))
    if A.is_unit(f.constant_term()):
        raise PreconditionError("constant term must lie in the maximal ideal", part="constant")

    F, phi = f, f.parent.variables()
    for _ in range(2 * A.n + 4):
        absorbed = _absorb(F, phi, 1, forms)
        if absorbed is None:
            # phi_j = x_j + b_j
            return [c.constant_term() for c in phi], F
        F, *phi = absorbed
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
    ring, q_prime = f.parent, QuadraticForm.from_series(f)
    forms = _step_forms(ring, q_prime)

    F, phi = f, ring.variables()
    quadratic = f.graded_part(2)
    for d in range(3, ring.degree):
        if F.degree_bound() < d:
            break
        absorbed = _absorb(F, phi, d, forms)
        if absorbed is None:
            continue
        F, *phi = absorbed
        if F.graded_part(d):
            raise InternalInvariantError(f"degree-{d} part survived its correction step")
    if F.graded_part(2) != quadratic:
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
    part non-degenerate.  Guarantees a' = a mod p^3, checked as
    v(a' - a) >= min(3, n) (full precision for n < 3)."""
    A = _coeff_ring_of(f)
    a = f.constant_term()
    if A.is_unit(a):
        raise PreconditionError("constant term is a unit (unit ideal)", part="constant")
    for i, c in enumerate(f.linear_coefficients()):
        if A.is_unit(c):
            raise SmoothShortCircuit("unit linear coefficient")
        if c and A.valuation(c) < 2:
            raise PreconditionError(
                f"linear coefficient {i + 1} has valuation < 2", part="linear"
            )
    result = reduce_to_quadric(f)  # raises on a degenerate quadratic part
    k = min(3, A.n)
    if A.valuation(result.a_prime - a) < k:
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
