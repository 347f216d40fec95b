"""Multivariate formal power series truncated at a fixed total degree.

Coefficients live in a WittRing or a FiniteField.  A series is stored in
one form only, the packed map {int monomial key: nonzero slot int} that
its `SeriesRing` lays out and computes on: adding keys multiplies
monomials, one comparison is the truncation test, and one int product of
two slot ints is the whole coefficient product, so no operand is
re-spread.  Exponent tuples and ring elements are built only where a
caller reads them (`coeffs`, `terms`, `constant_term`,
`linear_coefficients`, `quadratic_coefficients`); terms print and
serialize in graded-lex order.
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
    degree D >= 3; every series carries only monomials of total degree < D.

    The ring also computes on the packed maps its series store, for the
    series operations and the normal-form phases of `sll.singularity`; its
    private methods are the only code that does arithmetic on monomial
    keys.  A coefficient is a slot int of `packing`, the ring's own
    `base_rings.CoeffPacking` of the coefficient ring (`sll.linalg`'s
    layout at another count): its m reduced residues in bit slots of one
    width, wide enough for a sum of count^2 products, count the number of
    monomials below D, packed, read and folded by `packing.reduced`,
    `packing.element` and `packing.fold`.

    A monomial x^e is the int key deg(e) << (s * nvars) | sum_i e_i << (s * i)
    with s = D.bit_length() bits per exponent field, so adding two keys
    multiplies the monomials and keys sort by total degree first.  Below
    total degree D every exponent is < D < 2^s and no field carries; a field
    can carry only when the total degree exceeds D, and then the key exceeds
    `_limit` = D << (s * nvars) anyway.  So `key >= _limit` is exactly the
    truncation test, a row of products over keys in ascending order stops
    at its first truncated pair, and key >> (s * nvars) is the total degree.
    Products of stored slot ints are summed unreduced per output key, each
    key is folded once back to a slot int, and zeros are dropped.

    `_splits` memoizes, for each monomial key below D that `_substitute`
    has met, its leading (variable, exponent) pairs and its last variable
    and exponent: at most count entries, and no result depends on it.
    """

    def __init__(self, coeff_ring, nvars, degree, var_names=None):
        # both size the packing below: an int, not a bool, float or string
        if type(nvars) is not int or nvars < 1:
            raise ValidationError("need at least one variable")
        if type(degree) is not int or degree < 3:
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
        # with count = comb(D - 1 + nvars, nvars) monomials below D, a product
        # key sums at most min(len(a), len(b)) <= count products; a substitution
        # key at most one product per term of f, times min(len, len) <= count
        # pairs of a leading term and the last power: count^2 products
        count = math.comb(degree - 1 + nvars, nvars)
        self.packing = CoeffPacking(coeff_ring, count ** 2)
        self._shift = degree.bit_length()
        # a key's total degree is key >> _degree_shift
        self._degree_shift = self._shift * nvars
        self._limit = degree << self._degree_shift
        self._weights = tuple((1 << self._shift * i) + (1 << self._degree_shift)
                              for i in range(nvars))
        self._splits = {}

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
        return TruncatedSeries(self, {0: self.packing.reduced(c)} if c else {})

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise DomainError("variable index out of range")
        return TruncatedSeries(self, {self._weights[i]: 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, terms):
        """Build from an iterable of (exponent tuple, coefficient)."""
        key, pack = self._key, self.packing.reduced
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

    # -- packed maps {monomial key: slot int} ------------------------------

    def _key(self, e):
        # deg(e) = sum_i e_i, so the key is sum_i e_i (2^(s*i) + 2^(s*nvars))
        return sum(map(operator.mul, e, self._weights))

    def _unpack(self, packed):
        """The {exponents: coefficient} map of a {key: slot int} map."""
        shift, mask = self._shift, (1 << self._shift) - 1
        shifts = range(0, self._degree_shift, shift)
        return {tuple([k >> s & mask for s in shifts]): c
                for k, c in zip(packed, map(self.packing.element, packed.values()))}

    def _linear(self, coeffs):
        """The packed linear form sum_i coeffs[i] x_i of slot ints."""
        return {w: c for w, c in zip(self._weights, coeffs) if c}

    def _add(self, a, b):
        """The sum of two packed maps: the smaller is walked, and a key that
        both hold is summed and folded, or dropped if the sum is zero."""
        small, out = (a, dict(b)) if len(a) < len(b) else (b, dict(a))
        fold = self.packing.fold
        for k, c in small.items():
            if k in out and not (c := fold(out[k] + c)):
                del out[k]
            else:
                out[k] = c
        return out

    def _neg(self, a):
        """-a for a packed map: each term scaled by -1, whose slot int is N - 1."""
        packing = self.packing
        return dict(zip(a, packing.scale(packing.pn - 1, a.values())))

    def _factor(self, packed, d):
        """[h_1, ..., h_n] with sum_i x_i h_i the degree-d part of `packed`,
        each monomial given to its smallest-index variable."""
        dshift, shift, weights = self._degree_shift, self._shift, self._weights
        h = [{} for _ in weights]
        for k, c in packed.items():
            if k >> dshift == d:
                # the lowest set bit of k lies in its smallest-index nonzero exponent
                i = ((k & -k).bit_length() - 1) // shift
                h[i][k - weights[i]] = c
        return h

    def _mul(self, a, b):
        """The truncated product of two packed series, reduced.  An output
        key k sums at most min(len(a), len(b)) products: each term k1 of a
        meets at most the one term k - k1 of b, and vice versa."""
        if not a or not b:
            return {}
        right = sorted(b.items())
        limit = self._limit
        acc = {}
        get = acc.get
        for k1, c1 in a.items():
            for k2, c2 in right:
                k = k1 + k2
                if k >= limit:
                    break
                acc[k] = get(k, 0) + c1 * c2
        fold = self.packing.fold
        return {k: r for k, v in acc.items() if (r := fold(v))}

    def _split(self, k):
        """(leading (variable, exponent) pairs, (last variable, last exponent))
        of a monomial key k > 0, memoized in `_splits`."""
        mask = (1 << self._shift) - 1
        fields = [(i, e) for i, s in enumerate(range(0, self._degree_shift, self._shift))
                  if (e := k >> s & mask)]
        split = self._splits[k] = (tuple(fields[:-1]), fields[-1])
        return split

    def _substitute(self, fs, images, cut):
        """[f(images_1, ..., images_n) for f in fs], packed, truncated and
        reduced, for images that move no monomial of degree >= cut: such a
        term of f is added as it stands (cut = D substitutes every term).
        Each x_i^k is a product of images[i] with x_i^(k-1), made once for
        all of fs.  A term c x^e's image is not built: the product of its
        leading factors, every power but the last variable's, is, and c
        times each of its terms is folded once; those terms are multiplied
        straight into the accumulator against the last power, sorted once
        per call, with the truncation break of `_mul`."""
        cut <<= self._degree_shift
        limit, splits, split = self._limit, self._splits, self._split
        pows = [[None, phi] for phi in images]  # pows[i][k] = phi_i^k, k >= 1
        rows = {}  # (i, k): sorted(phi_i^k items)
        mul, fold = self._mul, self.packing.fold

        def power(i, e):
            pi = pows[i]
            while len(pi) <= e:
                pi.append(mul(pi[-1], images[i]))
            return pi[e]

        results = []
        for f in fs:
            # per output key, each term of f adds at most count products
            # (a term kept as it stands, the constant term included, c alone)
            out = {}
            get = out.get
            for k, c in f.items():
                if not k or k >= cut:
                    out[k] = get(k, 0) + c
                    continue
                lead, last = splits.get(k) or split(k)
                row = rows.get(last)
                if row is None:
                    row = rows[last] = sorted(power(*last).items())
                if lead:
                    mono = power(*lead[0])
                    for i, e in lead[1:]:
                        mono = mul(mono, power(i, e))
                    terms = [(k1, r) for k1, v in mono.items() if (r := fold(c * v))]
                else:
                    terms = ((0, c),)
                for k1, c1 in terms:
                    for k2, c2 in row:
                        key = k1 + k2
                        if key >= limit:
                            break
                        out[key] = get(key, 0) + c1 * c2
            results.append({k: r for k, v in out.items() if (r := fold(v))})
        return results


def _term_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class TruncatedSeries:
    """A truncated multivariate power series, held as the packed map
    {monomial key: nonzero slot int} of its `SeriesRing`."""

    __slots__ = ("parent", "packed")

    def __init__(self, parent, packed):
        self.parent = parent
        self.packed = packed

    @property
    def coeffs(self):
        """The {exponent tuple: coefficient} map of the series."""
        return self.parent._unpack(self.packed)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries) or (
                other.parent is not self.parent and other.parent != self.parent):
            raise DomainError("series from different rings")

    # -- ring operations -----------------------------------------

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries(self.parent, self.parent._add(self.packed, other.packed))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.parent, self.parent._neg(self.packed))

    def __mul__(self, other):
        self._check(other)
        return TruncatedSeries(self.parent, self.parent._mul(self.packed, other.packed))

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
        return self.parent.packing.element(self.packed.get(0, 0))

    def linear_coefficients(self):
        ring = self.parent
        return [ring.packing.element(self.packed.get(w, 0)) for w in ring._weights]

    def quadratic_coefficients(self):
        """q_ij, i <= j, row by row, with sum q_ij x_i x_j the degree-2 part."""
        element, weights = self.parent.packing.element, self.parent._weights
        return [element(self.packed.get(w + v, 0))
                for i, w in enumerate(weights) for v in weights[i:]]

    def graded_part(self, d):
        if d >= self.parent.degree:
            raise PreconditionError(f"degree {d} is at or beyond truncation {self.parent.degree}")
        dshift = self.parent._degree_shift
        return TruncatedSeries(self.parent,
                               {k: c for k, c in self.packed.items() if k >> dshift == d})

    def degree_bound(self):
        # keys sort by total degree first, so the largest has the largest degree
        return max(self.packed, default=0) >> self.parent._degree_shift

    def truncate(self, new_degree):
        """Image in the ring truncated at new_degree <= current degree."""
        if new_degree > self.parent.degree:
            raise DomainError("cannot raise the truncation degree of a series")
        # the key layout depends on D.bit_length(), so the terms are re-keyed
        return self.parent.with_degree(new_degree).from_terms(self.coeffs.items())

    # -- substitution ------------------------------------------------

    def substitute(self, images):
        """f(phi_1, ..., phi_n), truncated, by `SeriesRing._substitute`.  Every
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
        [packed] = ring._substitute([self.packed], [phi.packed for phi in images], ring.degree)
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
