"""Exact arithmetic for finite fields F_q and truncated Witt rings W_n(F_q).

W_n(F_q) is realized as (Z/p^n)[x]/(g) where g is the distinguished monic
lift of the field's defining polynomial whose root class is multiplicative
(g divides x^q - x).  Multiplication is therefore plain polynomial
arithmetic, and Witt coordinates (Teichmuller digits) are a conversion
layer.  The test suite checks both against the classical ghost-component
construction.

F_q = F_p[x]/(modulus) is the n = 1 case, W_1(F_q): both rings expose
`pn` (p^n, or p for a field) and `lifted_modulus` (the modulus itself for
a field), one element class, `Residue`, does the arithmetic of both, and
one base class, `_CoeffRing`, builds and compares them.

The polynomial arithmetic over Z/N is written once: `_reduce` is the one
reduction by a monic modulus (of a `Residue` product, of a packed sum in
`CoeffPacking.fold`, and in the gcd and the modulus lift), `_powmod` the
one square-and-multiply loop (`**`, Frobenius, Teichmuller lifts), and
`is_irreducible` is Ben-Or's test on both (M. Ben-Or, *Probabilistic
algorithms in finite fields*, FOCS 1981).

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
    consumed.  The one reduction of the package: `_mulmod`, the packed
    `CoeffPacking.fold`, `_pgcd` and the modulus lift all end here."""
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
    """The packed-integer form of the coefficients of one ring, the ring's
    `packing`: the only code that knows the reduced form and its slots.
    `linalg.mat_mul`, `linalg.mat_vec`, the series kernel `series._Packing`
    and the Gram-inverse lift of `sll.singularity` take their coefficient
    arithmetic here.

    A coefficient is m residues mod N = p^n (N = p over a field), m the
    degree of the lifted modulus g.  Reduced, it is an int (m = 1) or an
    m-tuple.  To multiply, the residues sit in slots of `width` bits of one
    int (Kronecker substitution), so one int product is the whole
    convolution of two residue vectors.  Products are summed unreduced and
    each sum is reduced once, by `_reduce`: its 2m - 1 slots folded by g and
    taken mod N.
    The map methods (`spread_all`, `reduce`, `add`) take {key: coefficient}
    maps and never read the keys.
    """

    def __init__(self, ring):
        self.coeff_ring = ring
        self.pn = ring.pn
        self.m = len(ring.lifted_modulus) - 1
        self.g = ring.lifted_modulus
        self.zero = 0 if self.m == 1 else (0,) * self.m
        self.one = 1 if self.m == 1 else (1,) + self.zero[1:]
        # a product of two reduced m-slot coefficients has slots below
        # m (N-1)^2: slot k sums a_i b_j over at most m pairs i + j = k
        self.slot_bound = self.m * (self.pn - 1) ** 2

    def width(self, count):
        """Slot width that holds a sum of `count` coefficient products
        without carrying: each slot stays below count * m * (N-1)^2.  The
        bound is exact int arithmetic, so it holds at every size the rings
        admit, m = MAX_DEGREE = 8 and q^n = MAX_RING_ORDER = 2^256 included."""
        return (count * self.slot_bound).bit_length()

    def reduced(self, c):
        """The reduced coefficient of a ring element."""
        return c.coeffs[0] if self.m == 1 else c.coeffs

    def element(self, r):
        """The ring element of a reduced coefficient."""
        ring = self.coeff_ring
        return ring._element(ring, (r,) if self.m == 1 else r)

    def spread(self, r, width):
        """A reduced coefficient as one int with slots of `width` bits."""
        if self.m == 1:
            return r
        return sum(map(operator.lshift, r, range(0, width * self.m, width)))

    def fold(self, values, width):
        """The reduced coefficients of unreduced ints with `width`-bit slots,
        each a sum of products of spread coefficients, for m > 1 (at m = 1
        a sum is reduced by `% pn` alone): each value's 2m - 1 slots are
        read out and reduced by the lifted modulus with `_reduce`."""
        pn, g = self.pn, self.g
        mask = (1 << width) - 1
        shifts = range(0, width * (2 * self.m - 1), width)
        return [_reduce([v >> sh & mask for sh in shifts], g, pn) for v in values]

    def neg(self, r):
        """-r for a reduced coefficient r."""
        pn = self.pn
        return -r % pn if self.m == 1 else tuple([-x % pn for x in r])

    def spread_all(self, packed, width):
        """{key: spread coefficient} of a {key: reduced coefficient} map."""
        if self.m == 1:
            return packed
        shifts = range(0, width * self.m, width)
        return {k: sum(map(operator.lshift, r, shifts)) for k, r in packed.items()}

    def reduce(self, acc, width):
        """Reduce every {key: unreduced int with `width`-bit slots} and drop zeros."""
        if self.m == 1:
            pn = self.pn
            return {k: r for k, v in acc.items() if (r := v % pn)}
        if not acc:
            # width 0 (nothing was summed) would make a zero range step
            return {}
        return {k: r for k, r in zip(acc, self.fold(acc.values(), width)) if any(r)}

    def add(self, a, b):
        """The reduced sum of two {key: reduced coefficient} maps, zeros dropped."""
        pn, one = self.pn, self.m == 1
        out = dict(a)
        for k, c in b.items():
            s = out.get(k)
            if s is None:
                out[k] = c
                continue
            s = (s + c) % pn if one else tuple([(x + y) % pn for x, y in zip(s, c)])
            if s == self.zero:
                del out[k]
            else:
                out[k] = s
        return out

    def mat_mul(self, A, B):
        """A B for matrices of reduced coefficients: each entry one int dot
        product of spread coefficients, reduced once."""
        cols, mul = list(zip(*B)), operator.mul
        if self.m == 1:
            pn = self.pn
            return [[sum(map(mul, row, col)) % pn for col in cols] for row in A]
        width = self.width(len(B))
        spread, fold = self.spread, self.fold
        cols = [[spread(b, width) for b in col] for col in cols]
        out = []
        for row in A:
            row = [spread(a, width) for a in row]
            out.append(fold([sum(map(mul, row, col)) for col in cols], width))
        return out


# ---------------------------------------------------------------------------
# coefficient rings


class _CoeffRing:
    """Construction and equality shared by FiniteField and WittRing.

    A subclass sets `pn`, `lifted_modulus` and `_key` (what equality and the
    hash read) in its constructor and names its element class `_element`;
    elements have m = deg(lifted_modulus) coefficients mod `pn`."""

    def __eq__(self, other):
        return type(other) is type(self) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def element(self, x):
        """The element given by an int, by an element of this ring, or by a
        list of exactly m coefficients."""
        m = len(self.lifted_modulus) - 1
        if isinstance(x, int):
            return self._element(self, (x % self.pn,) + (0,) * (m - 1))
        if isinstance(x, Residue):
            if x.ring is not self and x.ring != self:
                raise DomainError("element from a different ring")
            return x
        coeffs = tuple(int(c) % self.pn for c in x)
        if len(coeffs) != m:
            raise ValidationError("coefficient vector has wrong length")
        return self._element(self, coeffs)

    from_int = element

    @functools.cached_property
    def packing(self):
        """The ring's `CoeffPacking`, made on first use."""
        return CoeffPacking(self)

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


# ---------------------------------------------------------------------------
# finite fields


class FiniteField(_CoeffRing):
    """F_q = F_p[x]/(modulus), q = p^m, with a fixed monic irreducible modulus.

    As a coefficient ring it is W_1(F_q): `pn` is p and `lifted_modulus` is
    the modulus."""

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
        self.pn = p
        self.lifted_modulus = modulus
        self._key = (p, m, modulus)

    def __repr__(self):
        return f"FiniteField({self.p}, {self.m})"

    def gen(self):
        """Residue class of x (a root of the modulus)."""
        if self.m == 1:
            return self.zero()
        return FFElement(self, (0, 1) + (0,) * (self.m - 2))

    def is_unit(self, e):
        return bool(e)

    def invert(self, e):
        if not e:
            raise DomainError("inverting zero")
        return e ** (self.q - 2)

    def in_maximal_ideal(self, e):
        # a field is a local ring with maximal ideal (0)
        return not bool(e)

    def frobenius(self, e):
        return e ** self.p


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
    Teichmuller representative.  Frobenius is x |-> x^p applied by a
    precomputed substitution matrix (O(m^2) per application).
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
        # sigma is the substitution x |-> x^p and sigma^(-1) = sigma^(m-1) the
        # substitution x |-> x^(p^(m-1)), both as m x m matrices over Z/p^n
        x, g = gen.coeffs, self.lifted_modulus
        self._sigma_mat = self._powers_matrix(_powmod(x, self.p, g, self.pn))
        self._sigma_inv_mat = self._powers_matrix(_powmod(x, self.p ** (field.m - 1), g, self.pn))
        if self.frobenius(gen) ** (field.q // field.p) != gen and field.m > 1:
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

    def _powers_matrix(self, img):
        """Matrix of the substitution x |-> img on the power basis."""
        m = self.field.m
        cols = [(1,) + (0,) * (m - 1)]
        for _ in range(m - 1):
            cols.append(_mulmod(cols[-1], img, self.lifted_modulus, self.pn))
        return [[cols[j][i] for j in range(m)] for i in range(m)]

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

    def is_unit(self, x):
        return self.valuation(x) == 0

    def invert(self, x):
        if not self.is_unit(x):
            raise DomainError("inverting a non-unit")
        # any lift of the residue inverse starts the iteration: x y = 1 mod p
        y = self.element(self.field.invert(self.residue(x)).coeffs)
        two = self.from_int(2)
        for _ in range(max(1, self.n).bit_length() + 1):
            y = y * (two - x * y)
        if (x * y) != self.one():
            raise InternalInvariantError("unit inversion failed to converge")
        return y

    def in_maximal_ideal(self, x):
        return self.valuation(x) >= 1

    def residue(self, x):
        p = self.p
        return FFElement(self.field, tuple([c % p for c in x.coeffs]))

    def frobenius(self, x):
        return WittElement(self, _int_matvec(self._sigma_mat, x.coeffs, self.pn))

    def frobenius_inv(self, x):
        return WittElement(self, _int_matvec(self._sigma_inv_mat, x.coeffs, self.pn))

    def teichmuller(self, a):
        """The unique multiplicative lift [a] of a in F_q."""
        if a.ring != self.field:
            raise DomainError("element not in the residue field")
        return self.element(a.coeffs) ** self.field.q ** self.n

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

    def valuation(self, x):
        """Index of the first nonzero Teichmuller digit; n means zero at
        this precision.  Equals the minimal p-valuation of the coefficients."""
        v = self.n
        for c in x.coeffs:
            if c:
                w = 0
                while c % self.p == 0:
                    c //= self.p
                    w += 1
                v = min(v, w)
        return v

    def divide_exact_p(self, x, k):
        """Divide by p^k.  Requires p^k | x; the result carries only
        n - k trusted digits (caller does the precision bookkeeping)."""
        pk = self.p ** k
        out = []
        for c in x.coeffs:
            if c % pk:
                raise DomainError(f"element not divisible by p^{k}")
            out.append(c // pk)
        return WittElement(self, tuple(out))


# ---------------------------------------------------------------------------
# the Frobenius substitution matrix, applied mod p^n


def _int_matvec(A, v, pn):
    m = len(A)
    return tuple(sum(A[i][k] * v[k] for k in range(m)) % pn for i in range(m))

