"""Multivariate formal power series truncated at a fixed total degree.

Coefficients live in a WittRing or a FiniteField.  A series is stored in
one form only, the packed-integer form of `_Packing`: a map from int
monomial keys to slot ints, nonzero ones only.  Each monomial is one int
key, so adding keys multiplies monomials and one comparison is the
truncation test, and each coefficient is one int holding its m reduced
residues in bit slots of one width per series ring, so one int product is
the whole coefficient product and no operand is re-spread.  Each output
coefficient is summed unreduced and reduced once inside its int.
`_Packing` owns the keys; the slot arithmetic is its `coeff`, a
`base_rings.CoeffPacking` of the coefficient ring whose width is the
series ring's, the same layout as `sll.linalg`'s at another count.
Coefficients are packed where a series is built, and exponent tuples and
ring elements are built only where a caller reads them (`coeffs`, `terms`,
`constant_term`, `linear_coefficients`, `quadratic_coefficients`); terms
print and serialize in graded-lex order.
Monomial keys are read only in this module.
All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
import operator

from .base_rings import CoeffPacking
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
        if len(set(self.var_names)) != nvars or not all(
                isinstance(v, str) and v.isidentifier() for v in self.var_names):
            raise ValidationError(f"variable names must be distinct identifiers: {self.var_names}")
        self._packing = _Packing(self)

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
        return TruncatedSeries(self, {0: self._packing.coeff.reduced(c)} if c else {})

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise DomainError("variable index out of range")
        packing = self._packing
        return TruncatedSeries(self, {packing.weights[i]: 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, terms):
        """Build from an iterable of (exponent tuple, coefficient)."""
        key, pack = self._packing.key, self._packing.coeff.reduced
        coeffs = {}
        for exps, c in terms:
            exps = tuple(exps)
            # an exponent is an int, as a coefficient is: not a bool, float or string
            if len(exps) != self.nvars or any(type(e) is not int or e < 0 for e in exps):
                raise ValidationError("bad exponent vector")
            if sum(exps) >= self.degree:
                continue
            c = self.coeff_ring.element(c)
            k = key(exps)
            acc = coeffs.get(k)
            coeffs[k] = acc + c if acc is not None else c
        return TruncatedSeries(self, {k: pack(c) for k, c in coeffs.items() if c})

    def with_degree(self, degree):
        return SeriesRing(self.coeff_ring, self.nvars, degree, self.var_names)


class _Packing:
    """The packed-integer form of the series of one SeriesRing: the one form
    a `TruncatedSeries` stores, in which its operations and the normal-form
    phases of `sll.singularity` do all their arithmetic, and the only code
    that does arithmetic on monomial keys.  Its coefficients are slot ints
    of `coeff`, its own `CoeffPacking` of the coefficient ring, whose slots
    hold as many products as there are monomials below D; it packs, reads
    and folds them by `coeff.reduced`, `coeff.element` and `coeff.fold`.

    A monomial x^e is the int key deg(e) << (s * nvars) | sum_i e_i << (s * i)
    with s = D.bit_length() bits per exponent field, so adding two keys
    multiplies the monomials and keys sort by total degree first.  Below
    total degree D every exponent is < D < 2^s and no field carries; a field
    can carry only when the total degree exceeds D, and then the key exceeds
    `limit` = D << (s * nvars) anyway.  So `key >= limit` is exactly the
    truncation test, a row of products over keys in ascending order stops
    at its first truncated pair, and key >> (s * nvars) is the total degree.
    Products of stored slot ints are summed unreduced per output key, each
    key is folded once back to a slot int, and zeros are dropped.
    """

    def __init__(self, ring):
        # a product key sums at most min(len(a), len(b)) products, a substitution
        # key one per term of f: at most the comb(D - 1 + nvars, nvars) monomials
        count = math.comb(ring.degree - 1 + ring.nvars, ring.nvars)
        self.coeff = CoeffPacking(ring.coeff_ring, count)
        self.nvars = ring.nvars
        self.shift = ring.degree.bit_length()
        # a key's total degree is key >> degree_shift
        self.degree_shift = self.shift * ring.nvars
        self.limit = ring.degree << self.degree_shift
        self.weights = tuple((1 << self.shift * i) + (1 << self.shift * ring.nvars)
                             for i in range(ring.nvars))

    def key(self, e):
        # deg(e) = sum_i e_i, so the key is sum_i e_i (2^(s*i) + 2^(s*nvars))
        return sum(map(operator.mul, e, self.weights))

    def unpack(self, packed):
        """The {exponents: coefficient} map of a {key: slot int} map."""
        shift, mask = self.shift, (1 << self.shift) - 1
        shifts = range(0, shift * self.nvars, shift)
        return {tuple([k >> s & mask for s in shifts]): c
                for k, c in zip(packed, map(self.coeff.element, packed.values()))}

    def linear(self, coeffs):
        """The packed linear form sum_i coeffs[i] x_i of slot ints."""
        return {w: c for w, c in zip(self.weights, coeffs) if c}

    def add(self, a, b):
        """The sum of two packed maps: the smaller is walked, and a key that
        both hold is summed and folded, or dropped if the sum is zero."""
        small, out = (a, dict(b)) if len(a) < len(b) else (b, dict(a))
        fold = self.coeff.fold
        for k, c in small.items():
            if k in out and not (c := fold(out[k] + c)):
                del out[k]
            else:
                out[k] = c
        return out

    def neg(self, a):
        """-a for a packed map: a times the constant -1, whose slot int is N - 1."""
        return self.mul(a, {0: self.coeff.pn - 1})

    def split(self, packed, d):
        """(low, high): the terms of degree below d and those of degree >= d."""
        cut = d << self.degree_shift
        low, high = {}, {}
        for k, c in packed.items():
            (high if k >= cut else low)[k] = c
        return low, high

    def factor(self, packed, d):
        """[h_1, ..., h_n] with sum_i x_i h_i the degree-d part of `packed`,
        each monomial given to its smallest-index variable."""
        dshift, shift, weights = self.degree_shift, self.shift, self.weights
        h = [{} for _ in weights]
        for k, c in packed.items():
            if k >> dshift == d:
                # the lowest set bit of k lies in its smallest-index nonzero exponent
                i = ((k & -k).bit_length() - 1) // shift
                h[i][k - weights[i]] = c
        return h

    def mul(self, a, b):
        """The truncated product of two packed series, reduced.  An output
        key k sums at most min(len(a), len(b)) products: each term k1 of a
        meets at most the one term k - k1 of b, and vice versa."""
        if not a or not b:
            return {}
        right = sorted(b.items())
        limit = self.limit
        acc = {}
        get = acc.get
        for k1, c1 in a.items():
            for k2, c2 in right:
                k = k1 + k2
                if k >= limit:
                    break
                acc[k] = get(k, 0) + c1 * c2
        fold = self.coeff.fold
        return {k: r for k, v in acc.items() if (r := fold(v))}

    def substitute(self, fs, images):
        """[f(images_1, ..., images_n) for f in fs], packed, truncated and
        reduced.  Each x_i^k is a product of images[i] with x_i^(k-1), made
        once for all of fs, and each monomial's image a product of those."""
        shift, mask = self.shift, (1 << self.shift) - 1
        fields = tuple(enumerate(range(0, self.degree_shift, shift)))
        pows = [[None, phi] for phi in images]  # pows[i][k] = phi_i^k, k >= 1
        mul, fold = self.mul, self.coeff.fold
        results = []
        for f in fs:
            # every term of f adds at most one product c * v (the constant
            # term c alone) to each output coefficient
            out = {}
            get = out.get
            for k, c in f.items():
                mono = None
                for i, s in fields:
                    ei = k >> s & mask
                    if not ei:
                        continue
                    pi = pows[i]
                    while len(pi) <= ei:
                        pi.append(mul(pi[-1], images[i]))
                    mono = pi[ei] if mono is None else mul(mono, pi[ei])
                if mono is None:
                    out[k] = get(k, 0) + c
                    continue
                for key, v in mono.items():
                    out[key] = get(key, 0) + c * v
            results.append({k: r for k, v in out.items() if (r := fold(v))})
        return results


def _term_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class TruncatedSeries:
    """A truncated multivariate power series, held as the packed map
    {monomial key: nonzero slot int} of its ring's `_Packing`."""

    __slots__ = ("parent", "packed")

    def __init__(self, parent, packed):
        self.parent = parent
        self.packed = packed

    @property
    def coeffs(self):
        """The {exponent tuple: coefficient} map of the series."""
        return self.parent._packing.unpack(self.packed)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries) or (
                other.parent is not self.parent and other.parent != self.parent):
            raise DomainError("series from different rings")

    # -- ring operations -----------------------------------------

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries(self.parent, self.parent._packing.add(self.packed, other.packed))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.parent, self.parent._packing.neg(self.packed))

    def __mul__(self, other):
        self._check(other)
        return TruncatedSeries(self.parent, self.parent._packing.mul(self.packed, other.packed))

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and other.parent == self.parent
            and other.packed == self.packed
        )

    def __hash__(self):
        return hash((self.parent, frozenset(self.packed.items())))

    def __bool__(self):
        return bool(self.packed)

    # -- graded structure -----------------------------------------

    def constant_term(self):
        return self.parent._packing.coeff.element(self.packed.get(0, 0))

    def linear_coefficients(self):
        packing = self.parent._packing
        return [packing.coeff.element(self.packed.get(w, 0)) for w in packing.weights]

    def quadratic_coefficients(self):
        """q_ij, i <= j, row by row, with sum q_ij x_i x_j the degree-2 part."""
        packing, weights = self.parent._packing, self.parent._packing.weights
        return [packing.coeff.element(self.packed.get(w + v, 0))
                for i, w in enumerate(weights) for v in weights[i:]]

    def graded_part(self, d):
        if d >= self.parent.degree:
            raise PreconditionError(f"degree {d} is at or beyond truncation {self.parent.degree}")
        dshift = self.parent._packing.degree_shift
        return TruncatedSeries(self.parent,
                               {k: c for k, c in self.packed.items() if k >> dshift == d})

    def degree_bound(self):
        # keys sort by total degree first, so the largest has the largest degree
        return max(self.packed, default=0) >> self.parent._packing.degree_shift

    def truncate(self, new_degree):
        """Image in the ring truncated at new_degree <= current degree."""
        if new_degree > self.parent.degree:
            raise DomainError("cannot raise the truncation degree of a series")
        # the key layout depends on D.bit_length(), so the terms are re-keyed
        return self.parent.with_degree(new_degree).from_terms(self.coeffs.items())

    # -- substitution ------------------------------------------------

    def substitute(self, images):
        """f(phi_1, ..., phi_n), truncated, by `_Packing.substitute`.  Every
        phi_i must have constant term in the maximal ideal of the
        coefficient ring, which keeps truncation semantics coherent."""
        ring = self.parent
        images = list(images)
        if len(images) != ring.nvars:
            raise PreconditionError("substitution needs one series per variable")
        for phi in images:
            self._check(phi)
            if ring.coeff_ring.is_unit(phi.constant_term()):
                raise PreconditionError(
                    "substituted series must have constant term in the maximal ideal",
                    part="constant",
                )
        [packed] = ring._packing.substitute([self.packed], [phi.packed for phi in images])
        return TruncatedSeries(ring, packed)

    # -- presentation -----------------------------------------------

    def terms(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        return sorted(self.coeffs.items(), key=lambda t: _term_key(t[0]))

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()})"

    def to_text(self):
        if not self.packed:
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
