"""Multivariate formal power series truncated at a fixed total degree.

Coefficients live in a WittRing or a FiniteField.  Series are stored as
sparse maps from exponent vectors to nonzero coefficients (canonical
form), with a deterministic graded-lex term order for printing and
serialization.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from .errors import DomainError, PreconditionError, ValidationError


def _default_names(nvars):
    return tuple(f"x{i + 1}" for i in range(nvars))


class SeriesRing:
    """Truncated power-series ring: coefficients, nvars, and a truncation
    degree D >= 3; every series carries only monomials of total degree < D."""

    def __init__(self, coeff_ring, nvars, degree, var_names=None):
        if nvars < 1:
            raise ValidationError("need at least one variable")
        if degree < 3:
            raise ValidationError("truncation degree must be >= 3")
        self.coeff_ring = coeff_ring
        self.nvars = nvars
        self.degree = degree
        self.var_names = tuple(var_names) if var_names else _default_names(nvars)
        if len(self.var_names) != nvars:
            raise ValidationError("variable name count mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and other.coeff_ring == self.coeff_ring
            and other.nvars == self.nvars
            and other.degree == self.degree
            and other.var_names == self.var_names
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.nvars, self.degree, self.var_names))

    def __repr__(self):
        return f"SeriesRing({self.coeff_ring!r}, nvars={self.nvars}, D={self.degree})"

    def zero(self):
        return TruncatedSeries(self, {})

    def one(self):
        return self.constant(self.coeff_ring.one())

    def constant(self, c):
        c = self.coeff_ring.element(c)
        if not c:
            return TruncatedSeries(self, {})
        return TruncatedSeries(self, {(0,) * self.nvars: c})

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise DomainError("variable index out of range")
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return TruncatedSeries(self, {e: self.coeff_ring.one()})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, terms):
        """Build from an iterable of (exponent tuple, coefficient)."""
        coeffs = {}
        for exps, c in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValidationError("bad exponent vector")
            if sum(exps) >= self.degree:
                continue
            c = self.coeff_ring.element(c)
            acc = coeffs.get(exps)
            c = acc + c if acc is not None else c
            if c:
                coeffs[exps] = c
            elif exps in coeffs:
                del coeffs[exps]
        return TruncatedSeries(self, coeffs)

    def with_degree(self, degree):
        return SeriesRing(self.coeff_ring, self.nvars, degree, self.var_names)


def _term_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class TruncatedSeries:
    """A truncated multivariate power series in canonical sparse form."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, TruncatedSeries) or (
                other.parent is not self.parent and other.parent != self.parent):
            raise DomainError("series from different rings")

    # -- ring operations -----------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc = out.get(e)
            s = acc + c if acc is not None else c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return TruncatedSeries(self.parent, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.parent, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        self._check(other)
        D = self.parent.degree
        # the right operand by degree (exponents are distinct, so no
        # coefficient is compared): each row stops at its first truncated pair
        right = sorted((sum(e), e, c) for e, c in other.coeffs.items())
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for d2, e2, c2 in right:
                if d1 + d2 >= D:
                    break
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                s = acc + prod if acc is not None else prod
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return TruncatedSeries(self.parent, out)

    def scalar_mul(self, c):
        c = self.parent.coeff_ring.element(c)
        out = {}
        for e, v in self.coeffs.items():
            s = c * v
            if s:
                out[e] = s
        return TruncatedSeries(self.parent, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and other.parent == self.parent
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.parent, tuple(sorted(self.coeffs.items(), key=lambda t: _term_key(t[0])))))

    def __bool__(self):
        return bool(self.coeffs)

    # -- graded structure -----------------------------------------

    def constant_term(self):
        z = (0,) * self.parent.nvars
        return self.coeffs.get(z, self.parent.coeff_ring.zero())

    def linear_coefficients(self):
        out = []
        for i in range(self.parent.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.parent.nvars))
            out.append(self.coeffs.get(e, self.parent.coeff_ring.zero()))
        return out

    def graded_part(self, d):
        if d >= self.parent.degree:
            raise PreconditionError(f"degree {d} is at or beyond truncation {self.parent.degree}")
        return TruncatedSeries(self.parent, {e: c for e, c in self.coeffs.items() if sum(e) == d})

    def degree_bound(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def truncate(self, new_degree):
        """Image in the ring truncated at new_degree <= current degree."""
        if new_degree > self.parent.degree:
            raise DomainError("cannot raise the truncation degree of a series")
        ring = self.parent.with_degree(new_degree)
        return TruncatedSeries(ring, {e: c for e, c in self.coeffs.items() if sum(e) < new_degree})

    # -- substitution ------------------------------------------------

    def substitute(self, images):
        """f(phi_1, ..., phi_n), truncated.  Every phi_i must have constant
        term in the maximal ideal of the coefficient ring, which keeps
        truncation semantics coherent."""
        ring = self.parent
        images = list(images)
        if len(images) != ring.nvars:
            raise PreconditionError("substitution needs one series per variable")
        for phi in images:
            self._check(phi)
            if not ring.coeff_ring.in_maximal_ideal(phi.constant_term()):
                raise PreconditionError(
                    "substituted series must have constant term in the maximal ideal",
                    part="constant",
                )
        pows = [[None, phi] for phi in images]  # pows[i][k] = phi_i^k, k >= 1
        out = {}
        for e, c in self.coeffs.items():
            # the image of the monomial x^e, then c times it added into out
            mono = None
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                while len(pows[i]) <= ei:
                    pows[i].append(pows[i][-1] * images[i])
                mono = pows[i][ei] if mono is None else mono * pows[i][ei]
            if mono is None:
                image = ((e, c),)
            else:
                image = ((e2, c * c2) for e2, c2 in mono.coeffs.items())
            for e2, v in image:
                acc = out.get(e2)
                s = acc + v if acc is not None else v
                if s:
                    out[e2] = s
                elif e2 in out:
                    del out[e2]
        return TruncatedSeries(ring, out)

    def map_coefficients(self, fn, new_coeff_ring):
        """Apply fn to every coefficient, landing in new_coeff_ring."""
        ring = SeriesRing(new_coeff_ring, self.parent.nvars, self.parent.degree, self.parent.var_names)
        out = {}
        for e, c in self.coeffs.items():
            v = fn(c)
            if v:
                out[e] = v
        return TruncatedSeries(ring, out)

    # -- presentation -----------------------------------------------

    def terms(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        return sorted(self.coeffs.items(), key=lambda t: _term_key(t[0]))

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()})"

    def to_text(self):
        if not self.coeffs:
            return "0"
        ring = self.parent
        parts = []
        for e, c in self.terms():
            cs = _coeff_text(ring.coeff_ring, c)
            mono = "*".join(
                ring.var_names[i] if ei == 1 else f"{ring.var_names[i]}^{ei}"
                for i, ei in enumerate(e) if ei
            )
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _coeff_text(coeff_ring, c):
    """Render a coefficient; prime-subring values print as balanced integers."""
    coeffs = c.coeffs
    if not any(coeffs[1:]):
        v = coeffs[0]
        modulus = coeff_ring.pn
        if v > modulus // 2:
            v -= modulus
        return str(v)
    return "[" + ",".join(str(v) for v in coeffs) + "]"
