"""Exact arithmetic for finite fields F_q and truncated Witt rings W_n(F_q).

W_n(F_q) is realized as (Z/p^n)[x]/(g) where g is the distinguished monic
lift of the field's defining polynomial whose root class is multiplicative
(g divides x^q - x).  Multiplication is therefore plain polynomial
arithmetic, and Witt coordinates (Teichmuller digits) are a conversion
layer.  The test suite checks both against the classical ghost-component
construction.

F_q = F_p[x]/(modulus) is the n = 1 case, W_1(F_q), for elements and for
the ring interface: a field has `n` 1, `pn` p, `field` itself and
`lifted_modulus` its modulus.  One element class, `Residue`, does the
arithmetic of both, and one base class, `_CoeffRing`, builds them and holds
the valuation, units, inverse, residue and Frobenius of both.

The polynomial arithmetic over Z/N is written once: `_reduce` is the one
reduction by a monic modulus (of a `Residue` product, of the x^(m+i) by
which each `CoeffPacking` folds a packed sum inside the int at its own
slot width, and in the gcd and the modulus lift), `_powmod` the one
square-and-multiply loop on residue tuples (`**`, Frobenius, Teichmuller
lifts), and `is_irreducible` is Ben-Or's test on both (M. Ben-Or,
*Probabilistic algorithms in finite fields*, FOCS 1981).  `CoeffPacking`
computes on slot ints: its fold at m > 1 is straight-line code compiled
once per slot layout, and its unit inverse is int products and folds;
only its Frobenius images, made once, go through `_mulmod` and `_powmod`.

Elements are immutable value objects; rings are shareable read-only
contexts; every operation is pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import DomainError, InternalInvariantError, ValidationError

# moduli that override `find_irreducible`'s scan, little-endian coefficient
# tuples, monic: the scan would give x^3 + x^2 + 1 and x^2 + x + 1, and these
# fix the element coordinates of every F_8 and F_25 output
BUILTIN_MODULI = {
    (2, 3): (1, 1, 0, 1),    # x^3 + x + 1
    (5, 2): (2, 0, 1),       # x^2 + 2
}

# size limits, all desk scale: the characteristic (primality is trial
# division), the residue-field degree m, and the ring order q^n (Teichmuller
# lifts and digits cost O(n^2 log q) multiplications)
MAX_CHARACTERISTIC = 2 ** 16
MAX_DEGREE = 8
MAX_RING_ORDER = 2 ** 256

# the standard Dieudonne fixtures of `dieudonne.make_standard`, named here so
# the command line can offer them without importing `dieudonne`
STANDARD_CASES = ("iia", "iib", "ordinary", "lagrangian_generic", "mixed", "supersingular_a1")


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficients are plain ints mod p)

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _reduce(s, g, mod):
    """The len(g) - 1 residues mod `mod` of s reduced by the monic g.

    s is a list of coefficients, low degree first, of any length; it is
    consumed.  The one reduction of the package: `_mulmod`, the fold
    residues of `CoeffPacking`, `_pgcd` and the modulus lift all end here."""
    m = len(g) - 1
    while len(s) > m:
        # g is monic, so c x^k = -c x^(k-m) (g_0 + ... + g_(m-1) x^(m-1)):
        # the top coefficient c folds into the m slots below it
        c = s.pop() % mod
        if c:
            k = len(s)
            for j, gj in zip(range(k - m, k), g):
                s[j] -= c * gj
    return tuple([x % mod for x in s]) + (0,) * (m - len(s))


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        lc_inv = pow(b[-1], p - 2, p)
        bm = tuple(c * lc_inv % p for c in b)
        a, b = b, _ptrim(_reduce(list(a), bm, p))
    return a


def _mulmod(a, b, g, mod):
    """a * b reduced by the monic g, coefficients mod `mod` (p or p^n).

    a and b are residues of equal length len(g) - 1; so is the result.
    The multiplication kernel of both F_q and W_n(F_q)."""
    m = len(a)
    if m == 1:
        return ((a[0] * b[0]) % mod,)
    out = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _reduce(out, g, mod)


def _powmod(base, e, g, mod):
    """base^e reduced by the monic g, coefficients mod `mod`, e >= 0: the
    one square-and-multiply loop, read from the top bit down."""
    if not e:
        return _reduce([1], g, mod)
    out = base
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, g, mod)
        if bit == "1":
            out = _mulmod(out, base, g, mod)
    return out


def is_irreducible(poly, p):
    """Irreducibility of a monic polynomial over F_p by Ben-Or's test: f of
    degree m is irreducible iff gcd(f, x^(p^k) - x) = 1 for k = 1 .. m // 2,
    since a reducible f has an irreducible factor of degree <= m // 2."""
    poly = tuple(c % p for c in poly)
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    h = _reduce([0, 1], poly, p)
    for _ in range(m // 2):
        h = _powmod(h, p, poly, p)  # x^(p^k)
        if len(_pgcd(poly, (h[0], (h[1] - 1) % p) + h[2:], p)) > 1:
            return False
    return True


def find_irreducible(p, m):
    """First monic irreducible of degree m over F_p in lexicographic order
    (constant term slowest).  The scan starts at constant term 1, since x
    divides every candidate with constant term 0."""
    if m == 1:
        return (0, 1)
    if (p, m) in BUILTIN_MODULI:
        return BUILTIN_MODULI[(p, m)]
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        poly = tuple(tail) + (1,)
        if is_irreducible(poly, p):
            return poly
    raise InternalInvariantError(f"no irreducible of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# elements of F_q = W_1(F_q) and of W_n(F_q)


class Residue:
    """Element of (Z/N)[x]/(g): the shared arithmetic of F_q (N = p, g the
    field modulus) and W_n(F_q) (N = p^n, g the lifted modulus), read from
    the ring's `pn` and `lifted_modulus`."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, Residue) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise DomainError("operands lie in different rings")

    def __add__(self, other):
        self._check(other)
        pn = self.ring.pn
        return type(self)(self.ring, tuple((a + b) % pn for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        pn = self.ring.pn
        return type(self)(self.ring, tuple((a - b) % pn for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        pn = self.ring.pn
        return type(self)(self.ring, tuple((-a) % pn for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        r = self.ring
        return type(self)(r, _mulmod(self.coeffs, other.coeffs, r.lifted_modulus, r.pn))

    def __pow__(self, e):
        if e < 0:
            return self.ring.invert(self) ** (-e)
        r = self.ring
        return type(self)(r, _powmod(self.coeffs, e, r.lifted_modulus, r.pn))

    def __eq__(self, other):
        return (isinstance(other, Residue) and other.coeffs == self.coeffs
                and (other.ring is self.ring or other.ring == self.ring))

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({self.ring!r}; {list(self.coeffs)})"


# The subclasses re-bind __mul__ (and __add__) in their own namespace: the
# benchmark tracer wraps these methods per class, by name.


class FFElement(Residue):
    """Element of a FiniteField: the reduced polynomial of degree < m."""

    __slots__ = ()
    __mul__ = Residue.__mul__


class WittElement(Residue):
    """Element of W_n(F_q): a reduced polynomial with coefficients mod p^n."""

    __slots__ = ()
    __mul__ = Residue.__mul__
    __add__ = Residue.__add__


# ---------------------------------------------------------------------------
# packed coefficients


class CoeffPacking:
    """The packed-integer form of the coefficients of one ring at one slot
    width, sized for a sum of `count` products: the coefficient arithmetic
    of `linalg`, `dieudonne` and `series.SeriesRing`, and the only code that
    knows the slot layout.  The ring's `packing` has count 64; each series
    ring has its own.

    A coefficient, m residues mod N = p^n (N = p over a field), is a slot
    int: the residues in slots of `slot_width` bits of one int (Kronecker
    substitution; D. Harvey, *Faster polynomial multiplication via
    multipoint Kronecker substitution*, 2009), so one int product is the
    whole convolution of two residue vectors; at m = 1 it is the residue,
    and zero and one are 0 and 1 at every m and width.  A sum of products
    is reduced once, inside the int, by `fold`, and x - f y is folded from
    x + `offset` - f y, whose slots are multiples of N at least any slot
    of f y, so no slot borrows.  `mat_mul` and `submul` run straight-line
    code compiled once per shape on first use (`_mat_mul_kernel`,
    `_submul_kernel`): each entry is one sum of products and one fold.  At
    m > 1 the fold is itself straight-line code, compiled once per slot
    layout (`_fold_kernel`), and `inverse` is int products and folds, so
    no slot-int routine calls `_mulmod` or `_powmod`.
    """

    def __init__(self, ring, count):
        self.coeff_ring = ring
        self.p, self.n, self.count = ring.p, ring.n, count
        pn = self.pn = ring.pn
        # gcd(p^n, coefficients) = p^v for the valuation v (a field is W_1)
        self.valuations = {ring.p ** v: v for v in range(ring.n + 1)}
        self.m = m = len(ring.lifted_modulus) - 1
        self.g = ring.lifted_modulus
        # a product of two reduced m-slot coefficients has slots below
        # m (N-1)^2 (slot k sums a_i b_j over at most m pairs i + j = k), a
        # sum of `count` of them below count times that, and its fold adds
        # at most (m-1) (N-1)^2: one count of headroom, which also holds a
        # row operation (slots below 2 m (N-1)^2 + 2 (N-1)) and a Frobenius
        # image.  Exact up to m = MAX_DEGREE and q^n = MAX_RING_ORDER
        self.slot_bound = m * (pn - 1) ** 2
        w = self.slot_width = ((count + 1) * self.slot_bound).bit_length()
        self.mask, self.shifts = (1 << w) - 1, range(0, w * m, w)
        self.offset = sum(-(-self.slot_bound // pn) * pn << (w * k) for k in range(2 * m - 1))
        # at m > 1 the fold of 2m - 1 slots is straight-line code for this
        # layout (`_fold_kernel`); at m = 1 it is the sum mod N
        self.fold = _fold_kernel(pn, self.g, w) if m > 1 else pn.__rmod__

    def _join(self, coeffs):
        """The slot int of m residues: the inverse of `slots`."""
        return sum(map(operator.lshift, coeffs, self.shifts))

    def reduced(self, c):
        """The slot int of a ring element."""
        return c.coeffs[0] if self.m == 1 else self._join(c.coeffs)

    def element(self, r):
        """The ring element of a slot int."""
        ring = self.coeff_ring
        return ring._element(ring, (r,) if self.m == 1 else self.slots(r))

    def slots(self, r):
        """The m residues of a slot int."""
        return tuple([r >> s & self.mask for s in self.shifts])

    def reduced_matrix(self, A):
        """The slot ints of a matrix of ring elements."""
        if self.m == 1:
            return [[a.coeffs[0] for a in row] for row in A]
        shifts, lshift = self.shifts, operator.lshift
        return [[sum(map(lshift, a.coeffs, shifts)) for a in row] for row in A]

    def element_matrix(self, A):
        return [list(map(self.element, row)) for row in A]

    def is_unit(self, r):
        """Whether r is a unit: some residue is prime to p."""
        return (r if self.m == 1 else math.gcd(*self.slots(r))) % self.p != 0

    def valuation(self, r):
        """The index of the first nonzero Teichmuller digit; n for zero."""
        return self.valuations[math.gcd(self.pn, r if self.m == 1 else math.gcd(*self.slots(r)))]

    def divide(self, r, k):
        """r / p^k, for an r that p^k divides: each slot is a multiple of
        p^k, so the int is too and no slot borrows."""
        return r // self.p ** k

    def inverse(self, r):
        """The inverse of a unit r: y = r^(q-2), the inverse mod p, by
        square-and-multiply, lifted by Newton's y <- y (2 - r y), each round
        doubling the exact digits.  At m > 1 both run on slot ints, one
        `fold` per product, with 2 - r y folded from offset + 2 - r y; a
        non-unit never reaches r y = 1 and is an InternalInvariantError."""
        pn, fold = self.pn, self.fold
        if self.m == 1:
            return pow(r, -1, pn)
        y = r
        for bit in bin(self.p ** self.m - 2)[3:]:
            y = fold(y * y)
            if bit == "1":
                y = fold(y * r)
        two = self.offset + 2
        for _ in range(pn.bit_length()):
            if (e := fold(r * y)) == 1:
                return y
            y = fold(y * fold(two - e))
        raise InternalInvariantError("unit inversion failed to converge")

    def scale(self, c, row):
        """The row c x, x in `row`."""
        return list(map(self.fold, map(c.__mul__, row)))

    def submul(self, row, f, other):
        """The row x - f y, x in `row` and y in `other`, rows of one length
        (`_submul_kernel`); an entry with y = 0 passes through."""
        try:
            return _submul_kernel(len(row))(row, f, other, self.fold, self.offset)
        except ValueError:
            raise DomainError("matrix is ragged") from None

    @functools.cached_property
    def _sigmas(self):
        """sigma(x^k) and sigma^-1(x^k), k < m, as slot ints, made on first
        use: the powers of x^e, e = p and p^(m-1) (sigma^-1 = sigma^(m-1))."""
        g, pn = self.g, self.pn
        out = []
        for e in (self.p, self.p ** (self.m - 1)):
            img, powers = _powmod(_reduce([0, 1], g, pn), e, g, pn), [_reduce([1], g, pn)]
            while len(powers) < self.m:
                powers.append(_mulmod(powers[-1], img, g, pn))
            out.append(list(map(self._join, powers)))
        return out

    def frobenius(self, M, inverse=False):
        """sigma (sigma^-1 if `inverse`) of each entry of a matrix of slot
        ints: sum_k r_k sigma(x^k), m slot products and one fold per entry."""
        if self.m == 1:
            return M
        images, fold, slots, mul = self._sigmas[inverse], self.fold, self.slots, operator.mul
        return [[fold(sum(map(mul, slots(r), images))) for r in row] for row in M]

    def mat_mul(self, A, B):
        """A B for rectangular matrices of slot ints: one int dot product and one
        fold per entry (`_mat_mul_kernel`); inner dimensions must agree, and be
        at most `count` at m > 1."""
        inner = len(B)
        if len(A[0]) != inner:
            raise DomainError("matrix dimensions do not match")
        if inner > self.count and self.m > 1:
            raise DomainError(f"inner dimension {inner} is above the limit {self.count}")
        try:
            return _mat_mul_kernel(inner, len(B[0]) if B else 0)(A, B, self.fold)
        except ValueError:
            raise DomainError("matrix is ragged") from None


# `CoeffPacking.mat_mul` and `submul` as straight-line code, one function per
# shape; unpacking each operand into local names checks its shape, with a
# ValueError that the callers report as a ragged matrix.


def _balanced(terms):
    """The source of the sum of `terms` as a balanced tree of +, nested
    about log2(len(terms)) deep, so a long sum compiles."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_balanced(terms[:half])} + {_balanced(terms[half:])})"


def _target(names):
    """The source of the unpacking target [n0, n1, ...]."""
    return f"[{', '.join(names)}]"


def _compiled(name, source):
    namespace = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=64)
def _mat_mul_kernel(inner, cols):
    """kernel(A, B, fold) = A B, each entry folded, for an A of rows of
    `inner` entries and a B of `inner` rows of `cols` entries; B's entries
    are read into local names once per call."""
    a = [f"a{k}" for k in range(inner)]
    b = [[f"b{k}_{j}" for j in range(cols)] for k in range(inner)]
    row = ", ".join(f"fold({_balanced([f'{a[k]} * {b[k][j]}' for k in range(inner)])})"
                    for j in range(cols))
    return _compiled(f"mat_mul {inner}x{cols}", f"""\
def kernel(A, B, fold):
    {_target(map(_target, b))} = B
    out = []
    for {_target(a)} in A:
        out.append([{row}])
    return out
""")


@functools.lru_cache(maxsize=64)
def _fold_kernel(pn, g, width):
    """kernel(v) = the fold at m = len(g) - 1 > 1 of a sum v of 2m - 1 slots
    of `width` bits: each top slot m + i, taken mod N = pn, adds its multiple
    of x^(m+i) mod g, a literal slot int, to the m low slots, which are then
    taken mod N.  Every slot sum is below 2^width, so nothing lies above the
    top slot and no low slot carries."""
    m, mask = len(g) - 1, (1 << width) - 1

    def join(coeffs):
        return sum(c << (width * k) for k, c in enumerate(coeffs))

    def slot(v, k, top):
        """The source of slot k of v, whose highest slot is `top`: shifted
        down and masked, with no shift at k = 0 and no mask at the top."""
        src = f"{v} >> {width * k}" if k else v
        return f"({src})" if k == top else f"({src} & {mask})"

    lo = [f"(v & {(1 << width * m) - 1})"]
    lo += [f"{slot('v', m + i, 2 * m - 2)} % {pn} * {join(_reduce([0] * (m + i) + [1], g, pn))}"
           for i in range(m - 1)]
    if pn & (pn - 1) == 0:
        # N = 2^n: the low slots mod N are their low n bits, kept by one mask
        out = f"lo & {join([pn - 1] * m)}"
    else:
        out = " | ".join(f"{slot('lo', k, m - 1)} % {pn}" + (f" << {width * k}" if k else "")
                         for k in range(m))
    return _compiled(f"fold {pn} {g} {width}", f"""\
def kernel(v):
    lo = {' + '.join(lo)}
    return {out}
""")


@functools.lru_cache(maxsize=64)
def _submul_kernel(length):
    """kernel(row, f, other, fold, offset) = the row x - f y, x in `row` and y
    in `other`, two rows of `length` entries; x - f y is folded from
    x + offset - f y, and an entry with y = 0 is x unchanged."""
    x = [f"x{k}" for k in range(length)]
    y = [f"y{k}" for k in range(length)]
    row = ", ".join(f"fold({xk} + offset - f * {yk}) if {yk} else {xk}" for xk, yk in zip(x, y))
    return _compiled(f"submul {length}", f"""\
def kernel(row, f, other, fold, offset):
    {_target(x)} = row
    {_target(y)} = other
    return [{row}]
""")


# ---------------------------------------------------------------------------
# coefficient rings


class _CoeffRing:
    """The ring interface of FiniteField and WittRing, written once.

    A subclass sets `p`, `n`, `pn` = p^n, `field`, `lifted_modulus` and
    `_key` (what equality and the hash read) in its constructor and names
    its element class `_element`; elements have m = deg(lifted_modulus)
    coefficients mod `pn`.  A method refuses an element of another ring."""

    def __eq__(self, other):
        return type(other) is type(self) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def _own(self, x):
        """x, if it is an element of this ring; else a DomainError."""
        if not isinstance(x, Residue) or (x.ring is not self and x.ring != self):
            raise DomainError("element from a different ring")
        return x

    def element(self, x):
        """The element given by an element of this ring, by an int, or by a
        list or tuple of exactly m ints; anything else, a bool or a float
        too, is a ValidationError."""
        if isinstance(x, Residue):
            return self._own(x)
        m, pn = len(self.lifted_modulus) - 1, self.pn
        if type(x) is int:
            return self._element(self, (x % pn,) + (0,) * (m - 1))
        if type(x) in (list, tuple) and len(x) == m:
            coeffs = tuple([c % pn for c in x if type(c) is int])
            if len(coeffs) == m:
                return self._element(self, coeffs)
        raise ValidationError(f"not an int or a list of {m} ints: {x!r}")

    from_int = element

    @functools.cached_property
    def packing(self):
        """The ring's `CoeffPacking`, made on first use: its matrix products
        take an inner dimension up to 64 at m > 1."""
        return CoeffPacking(self, 64)

    def zero(self):
        return self._element(self, (0,) * (len(self.lifted_modulus) - 1))

    def one(self):
        return self._element(self, (1,) + (0,) * (len(self.lifted_modulus) - 2))

    def elements(self):
        for coeffs in itertools.product(range(self.pn), repeat=len(self.lifted_modulus) - 1):
            yield self._element(self, coeffs)

    def random_element(self, rng):
        m = len(self.lifted_modulus) - 1
        return self._element(self, tuple(rng.randrange(self.pn) for _ in range(m)))

    def valuation(self, x):
        """Index of the first nonzero Teichmuller digit; n means zero at
        this precision (`CoeffPacking.valuation`)."""
        return self.packing.valuations[math.gcd(self.pn, *self._own(x).coeffs)]

    def is_unit(self, x):
        return self.valuation(x) == 0

    def invert(self, x):
        if not self.is_unit(x):
            raise DomainError("inverting a non-unit")
        packing = self.packing
        return packing.element(packing.inverse(packing.reduced(x)))

    def residue(self, x):
        """x mod p, in the residue field."""
        p, field = self.p, self.field
        return field._element(field, tuple([c % p for c in self._own(x).coeffs]))

    def frobenius(self, x):
        """sigma(x), the substitution x |-> x^p (`CoeffPacking.frobenius`)."""
        packing = self.packing
        return packing.element(packing.frobenius([[packing.reduced(self._own(x))]])[0][0])

    def frobenius_inv(self, x):
        packing = self.packing
        return packing.element(packing.frobenius([[packing.reduced(self._own(x))]], True)[0][0])


# ---------------------------------------------------------------------------
# finite fields


class FiniteField(_CoeffRing):
    """F_q = F_p[x]/(modulus), q = p^m, with a fixed monic irreducible modulus.

    As a coefficient ring it is W_1(F_q): `n` is 1, `pn` is p, `field` is
    the field itself and `lifted_modulus` is the modulus."""

    _element = FFElement

    def __init__(self, p, m=1, modulus=None):
        if p > MAX_CHARACTERISTIC:
            raise ValidationError(f"characteristic {p} is above the limit {MAX_CHARACTERISTIC}")
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if m < 1:
            raise ValidationError("extension degree must be >= 1")
        if m > MAX_DEGREE:
            raise ValidationError(f"extension degree {m} is above the limit {MAX_DEGREE}")
        if modulus is None:
            modulus = find_irreducible(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValidationError("modulus must be monic of degree m")
        if not is_irreducible(modulus, p):
            raise ValidationError("modulus is reducible over F_p")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.n = 1
        self.pn = p
        self.field = self
        self.lifted_modulus = modulus
        self._key = (p, m, modulus)

    def __repr__(self):
        return f"FiniteField({self.p}, {self.m})"


def field_for_q(q):
    """The deterministic field of order q = p^m."""
    if q < 2:
        raise ValidationError(f"{q} is not a prime power")
    # the least divisor > 1 is the prime p; a q with no divisor up to the
    # characteristic limit is left for FiniteField to reject
    limit = min(math.isqrt(q), MAX_CHARACTERISTIC)
    p = next((d for d in range(2, limit + 1) if q % d == 0), q)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValidationError(f"{q} is not a prime power")
    return FiniteField(p, m)


# ---------------------------------------------------------------------------
# truncated Witt rings


class WittRing(_CoeffRing):
    """W_n(F_q) = (Z/p^n)[x]/(lifted modulus), |W_n(F_q)| = q^n.

    The lifted modulus is the Hensel lift of the field modulus: the unique
    monic lift dividing x^q - x, so the residue class of x is its own
    Teichmuller representative.  Frobenius is x |-> x^p, applied through
    the images of the power basis, made on first use (`CoeffPacking.frobenius`).
    """

    _element = WittElement

    def __init__(self, field, n):
        if n < 1:
            raise ValidationError("truncation length must be >= 1")
        # q >= 2, so an n this long fails before q^n is formed
        if n >= MAX_RING_ORDER.bit_length() or field.q ** n > MAX_RING_ORDER:
            raise ValidationError(f"ring order q^n = {field.q}^{n} is above the limit 2^256")
        self.field = field
        self.n = n
        self.p = field.p
        self.pn = field.p ** n
        self._key = (field, n)
        self.lifted_modulus = self._lift_modulus()
        gen = self.gen()
        if field.m > 1 and gen ** field.q != gen:
            # x^q must equal x: the defining Newton iteration is stationary
            raise InternalInvariantError("lifted modulus is not the Hensel lift")

    # -- construction internals ------------------------------------------------

    def _lift_modulus(self):
        """The product of X - theta^(p^i), i < m, over the Teichmuller lift
        theta of x and its conjugates, computed in the naive-lift ring
        (Z/p^n)[x]/(modulus).  Its coefficients are symmetric functions of
        the conjugates, so they are constants in Z/p^n."""
        m, p, pn = self.field.m, self.p, self.pn
        naive = self.field.modulus
        zero = (0,) * m
        # the class of x in the naive ring (for m = 1 the root of the modulus)
        # to the power q^(n+1): one digit of convergence per q-power
        theta = _powmod(_reduce([0, 1], naive, pn), self.field.q ** (self.n + 1), naive, pn)
        g = [(1,) + zero[1:]]  # coefficients in X, low degree first
        for _ in range(m):
            # g <- g * (X - theta), then theta <- theta^p
            g = [tuple((a - b) % pn for a, b in zip(lo, _mulmod(theta, hi, naive, pn)))
                 for lo, hi in zip([zero] + g, g + [zero])]
            theta = _powmod(theta, p, naive, pn)
        if any(any(c[1:]) for c in g):
            raise InternalInvariantError("lifted modulus has non-constant coefficients")
        return tuple(c[0] for c in g)

    # -- ring interface ---------------------------------------------------------

    def __repr__(self):
        return f"WittRing(F_{self.field.q}, n={self.n})"

    def p_element(self):
        return self.element(self.p)

    def gen(self):
        if self.field.m == 1:
            g = self.lifted_modulus
            return self.element((-g[0]) % self.pn)
        return WittElement(self, (0, 1) + (0,) * (self.field.m - 2))

    # bound here, where the benchmark tracer looks Witt inversion up by name
    invert = _CoeffRing.invert

    def teichmuller(self, a):
        """The unique multiplicative lift [a] of a in F_q."""
        return self.element(self.field._own(a).coeffs) ** self.field.q ** self.n

    def digits(self, x):
        """Teichmuller digit expansion: x = sum [d_i] p^i, d_i in F_q."""
        out = []
        for k in range(self.n):
            d = self.residue(x)
            out.append(d)
            if k < self.n - 1:
                x = self.divide_exact_p(x - self.teichmuller(d), 1)
        return tuple(out)

    def from_digits(self, ds):
        ds = tuple(ds)
        if len(ds) != self.n:
            raise ValidationError("digit vector has wrong length")
        acc = self.zero()
        pk = self.one()
        pe = self.p_element()
        for d in ds:
            acc = acc + self.teichmuller(self.field.element(d)) * pk
            pk = pk * pe
        return acc

    def divide_exact_p(self, x, k):
        """Divide by p^k.  Requires p^k | x; the result carries only
        n - k trusted digits (caller does the precision bookkeeping)."""
        pk = self.p ** k
        if math.gcd(pk, *self._own(x).coeffs) != pk:
            raise DomainError(f"element not divisible by p^{k}")
        return WittElement(self, tuple(c // pk for c in x.coeffs))
