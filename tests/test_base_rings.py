import itertools
import random
import re

import pytest

from sll import linalg
from sll.base_rings import (
    BUILTIN_MODULI,
    MAX_CHARACTERISTIC,
    MAX_DEGREE,
    FiniteField,
    WittRing,
    field_for_q,
    find_irreducible,
    is_irreducible,
)
from sll.errors import DomainError, ValidationError
from sll.jsonio import elem_from_fields, elem_to_json

from . import oracles
from .oracles import (
    TableField,
    first_irreducible,
    ghost_product_digits,
    ghost_sum_digits,
    int_poly_mul_mod,
    int_poly_pow_mod,
    loop_is_unit,
    loop_valuation,
    power_frobenius,
    power_inverse,
    reducible_monics,
)


def W(p, m, n):
    return WittRing(FiniteField(p, m), n)


def test_additive_identity_random():
    ring = W(2, 2, 3)
    rng = random.Random(0)
    for _ in range(20):
        a = ring.random_element(rng)
        assert ring.zero() + a == a


def test_one_plus_one_is_p_in_W2F2():
    ring = W(2, 1, 2)
    s = ring.one() + ring.one()
    assert s == ring.p_element()
    digits = ring.digits(s)
    assert [d.coeffs for d in digits] == [(0,), (1,)]
    assert ghost_sum_digits(ring.one(), ring.one()) == digits


def test_teichmuller_multiplicative_W3F9_exhaustive():
    ring = W(3, 2, 3)
    field = ring.field
    for a in field.elements():
        for b in field.elements():
            assert ring.teichmuller(a) * ring.teichmuller(b) == ring.teichmuller(a * b)


def test_frobenius_fixes_prime_subring():
    ring = W(3, 2, 2)
    for c in range(ring.pn):
        x = ring.from_int(c)
        assert ring.frobenius(x) == x


def test_frobenius_teichmuller_equivariance_W2F4():
    ring = W(2, 2, 2)
    for a in ring.field.elements():
        assert ring.frobenius(ring.teichmuller(a)) == ring.teichmuller(a ** 2)


def test_frobenius_has_order_m():
    # m = 3 is the first degree where sigma^(-1) = sigma^(m-1) differs from sigma
    for ring in (W(2, 1, 3), W(2, 2, 3), W(2, 3, 2), W(3, 3, 2)):
        rng = random.Random(1)
        for _ in range(50):
            x = ring.random_element(rng)
            y = x
            for _ in range(ring.field.m):
                y = ring.frobenius(y)
            assert y == x
            assert ring.frobenius_inv(ring.frobenius(x)) == x
            assert ring.frobenius(ring.frobenius_inv(x)) == x


def test_frobenius_is_ring_automorphism_W2F4_exhaustive():
    ring = W(2, 2, 2)
    elements = list(ring.elements())
    for a in elements:
        for b in elements:
            assert ring.frobenius(a + b) == ring.frobenius(a) + ring.frobenius(b)
            assert ring.frobenius(a * b) == ring.frobenius(a) * ring.frobenius(b)


def test_teichmuller_trivial_values():
    ring = W(5, 1, 3)
    assert ring.teichmuller(ring.field.zero()) == ring.zero()
    assert ring.teichmuller(ring.field.one()) == ring.one()


def test_digits_of_p_times_teichmuller_are_shifted():
    ring = W(2, 1, 3)
    for a in ring.field.elements():
        x = ring.p_element() * ring.teichmuller(a)
        ds = ring.digits(x)
        assert ds[0] == ring.field.zero()
        assert ds[1] == a
        assert ds[2] == ring.field.zero()


def test_digit_roundtrip_exhaustive_W2F4():
    ring = W(2, 2, 2)
    seen = set()
    for x in ring.elements():
        ds = ring.digits(x)
        assert ring.from_digits(ds) == x
        seen.add(tuple(d.coeffs for d in ds))
    assert len(seen) == ring.field.q ** ring.n  # digits is a bijection onto (F_q)^n


def test_valuation_examples():
    ring = W(2, 1, 3)
    assert ring.valuation(ring.one()) == 0
    assert ring.valuation(ring.p_element()) == 1
    assert ring.valuation(ring.zero()) == 3
    ring9 = W(3, 2, 3)
    rng = random.Random(2)
    p2 = ring9.p_element() * ring9.p_element()
    for _ in range(10):
        u = ring9.random_element(rng)
        while not ring9.is_unit(u):
            u = ring9.random_element(rng)
        assert ring9.valuation(p2 * u) == 2


VALUATION_RINGS = [(p, m, n) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))
                   for n in (1, 2, 3)] + [(2, 8, 32)]


@pytest.mark.parametrize("p,m,n", VALUATION_RINGS)
def test_gcd_valuation_and_division_match_the_division_loops(p, m, n):
    # zero, p^k times a unit for every k, and random elements
    ring = W(p, m, n)
    rng = random.Random(f"valuation-{p}-{m}-{n}")
    units = [ring.one()]
    while len(units) < 4:
        u = ring.random_element(rng)
        if any(c % p for c in u.coeffs):
            units.append(u)
    pk = [ring.p_element() ** k for k in range(n + 1)]
    elems = ([ring.zero()] + [a * u for a in pk for u in units]
             + [a * ring.random_element(rng) for a in pk for _ in range(3)])
    for x in elems:
        assert ring.valuation(x) == oracles.loop_valuation(ring, x), x
        for k in range(n + 2):
            try:
                want = oracles.loop_divide_exact_p(ring, x, k)
            except DomainError:
                with pytest.raises(DomainError):
                    ring.divide_exact_p(x, k)
            else:
                assert ring.divide_exact_p(x, k) == want, (x, k)


def test_valuation_is_multiplicative_up_to_truncation():
    ring = W(3, 1, 3)
    rng = random.Random(3)
    for _ in range(200):
        x, y = ring.random_element(rng), ring.random_element(rng)
        assert ring.valuation(x * y) == min(ring.valuation(x) + ring.valuation(y), ring.n)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_axioms_random_triples(p, m, n):
    ring = W(p, m, n)
    rng = random.Random(p * 100 + m * 10 + n)
    for _ in range(1000):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_ghost_oracle_exhaustive_prime_fields():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ring = W(p, 1, n)
        elements = list(ring.elements())
        for a in elements:
            for b in elements:
                assert ring.digits(a + b) == ghost_sum_digits(a, b)
                assert ring.digits(a * b) == ghost_product_digits(a, b)


def test_ghost_oracle_random_p5_n3():
    ring = W(5, 1, 3)
    rng = random.Random(4)
    for _ in range(500):
        a, b = ring.random_element(rng), ring.random_element(rng)
        assert ring.digits(a + b) == ghost_sum_digits(a, b)
        assert ring.digits(a * b) == ghost_product_digits(a, b)


def test_ghost_oracle_reads_no_frobenius_from_sll(monkeypatch):
    # the oracle's Frobenius is its own p-th power, so sll's may be broken
    rings = [W(3, 2, 2), W(5, 1, 3)]

    def broken(self, x):
        raise AssertionError("the ghost oracle called sll's Frobenius")

    monkeypatch.setattr(FiniteField, "frobenius", broken)
    monkeypatch.setattr(WittRing, "frobenius", broken)
    oracles._element_ghosts.cache_clear()
    rng = random.Random(11)
    for ring in rings:
        for _ in range(300):
            a, b = ring.random_element(rng), ring.random_element(rng)
            assert ring.digits(a + b) == ghost_sum_digits(a, b)
            assert ring.digits(a * b) == ghost_product_digits(a, b)


def test_lifted_modulus_reduces_to_modulus_and_is_stationary():
    grid = [(2, 1), (2, 2), (2, 3), (2, 8), (3, 1), (3, 2), (3, 5), (5, 2), (7, 2), (65521, 3)]
    for (p, m), n in itertools.product(grid, (1, 2, 3, 4)):
        ring = W(p, m, n)
        g = ring.lifted_modulus
        assert tuple(c % p for c in g) == ring.field.modulus
        x = ring.gen()
        assert x ** (p ** m) == x  # Newton iteration is stationary
        # with the oracle's polynomial arithmetic: x^q = x mod g over Z/p^n,
        # i.e. g divides x^q - x; with g = modulus mod p this pins the Hensel lift
        pn = p ** n
        x_mod_g = int_poly_mul_mod((0, 1), (1,), g, pn)
        assert int_poly_pow_mod(x_mod_g, p ** m, g, pn) == x_mod_g


def test_parent_mismatch_raises():
    a = W(2, 1, 2).one()
    b = W(2, 1, 3).one()
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b
    # F_2 and W_1(F_2) share one element class but are different rings
    field = FiniteField(2)
    w1 = WittRing(field, 1)
    with pytest.raises(DomainError):
        field.one() + w1.one()
    with pytest.raises(DomainError):
        w1.one() * field.one()
    assert field.one() != w1.one()


def test_invalid_inputs_rejected():
    # a coefficient list has exactly m entries, in a field as in a Witt ring
    with pytest.raises(ValidationError):
        FiniteField(2, 2).element([1, 0, 1])
    with pytest.raises(ValidationError):
        FiniteField(2, 2).element([1])
    with pytest.raises(ValidationError):
        W(2, 2, 2).element([1])
    with pytest.raises(ValidationError):
        FiniteField(MAX_CHARACTERISTIC + 1)
    with pytest.raises(ValidationError):
        FiniteField(4)
    with pytest.raises(ValidationError):
        FiniteField(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValidationError):
        WittRing(FiniteField(2), 0)
    with pytest.raises(ValidationError):
        FiniteField(2, MAX_DEGREE + 1)
    # ring order q^n above 2^256
    with pytest.raises(ValidationError):
        WittRing(FiniteField(2), 257)
    with pytest.raises(ValidationError):
        WittRing(FiniteField(3, 2), 1024)
    assert WittRing(FiniteField(2), 256).n == 256
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)  # x^2 + 1 = (x+1)^2 over F_2


def test_element_refuses_what_is_no_int_or_list_of_ints():
    # a float is not truncated, a string not split into coefficients and a
    # bool not read as 0 or 1: each is a ValidationError naming the value
    for ring in (W(3, 2, 3), FiniteField(3, 2)):
        for bad in ([1.5, 2], "12", 1.5, True, [True, 0], (1, None), None, {1: 2}):
            with pytest.raises(ValidationError, match=re.escape(repr(bad))):
                ring.element(bad)
        assert ring.element([1, 2]) == ring.element((1, 2)) == ring.element([1 + ring.pn, 2])
        assert ring.element(5) == ring.element([5, 0])
        one = ring.one()
        assert ring.element(one) is one


def test_unit_inversion_and_nonunit_rejection():
    ring = W(3, 2, 3)
    rng = random.Random(5)
    for _ in range(50):
        u = ring.random_element(rng)
        if not ring.is_unit(u):
            with pytest.raises(DomainError):
                ring.invert(u)
            continue
        assert u * ring.invert(u) == ring.one()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_ring_primitives_match_the_routes_they_replace(q):
    # F_q and W_1..4(F_q) share one valuation, unit test, inverse, residue
    # and Frobenius; every element while q^n <= 729, a seeded sample above
    field = field_for_q(q)
    for ring in [field] + [WittRing(field, n) for n in (1, 2, 3, 4)]:
        if q ** ring.n <= 729:
            xs = ring.elements()
        else:
            rng = random.Random(f"primitives:{q}:{ring.n}")
            xs = [ring.random_element(rng) for _ in range(200)]
        m = field.m
        for x in xs:
            assert ring.valuation(x) == loop_valuation(ring, x), (ring, x)
            assert ring.is_unit(x) == loop_is_unit(ring, x), (ring, x)
            if ring.is_unit(x):
                assert ring.invert(x) == power_inverse(ring, x), (ring, x)
            else:
                with pytest.raises(DomainError):
                    ring.invert(x)
            assert ring.frobenius(x) == power_frobenius(ring, x), (ring, x)
            assert ring.frobenius_inv(x) == power_frobenius(ring, x, m - 1), (ring, x)
            r = ring.residue(x)
            assert r.ring is field
            if ring is field:
                assert r == x
            else:
                assert loop_valuation(ring, x - ring.teichmuller(r)) >= 1, (ring, x)


def test_ring_primitives_refuse_an_element_of_another_ring():
    F3, F9 = FiniteField(3), FiniteField(3, 2)
    # other precisions, a larger residue field, a field and its W_1, and
    # no element at all: each refused, not answered for the wrong ring
    pairs = [
        (WittRing(F3, 2), WittRing(F3, 3).element(4)),
        (F3, WittRing(F3, 2).element(2)),
        (WittRing(F9, 2), WittRing(F3, 2).element(3)),
        (F3, WittRing(F3, 1).element(2)),
        (WittRing(F3, 1), F3.element(2)),
        (WittRing(F3, 2), 3),
    ]
    for ring, x in pairs:
        calls = [ring.valuation, ring.is_unit, ring.invert, ring.residue, ring.frobenius,
                 ring.frobenius_inv]
        if isinstance(ring, WittRing):
            calls.append(lambda y: ring.divide_exact_p(y, 0))
        for call in calls:
            with pytest.raises(DomainError):
                call(x)


@pytest.mark.parametrize("p,m,n", [(2, 1, 1), (2, 2, 4), (2, 1, 5), (3, 1, 9), (2, 3, 17),
                                   (5, 1, 32)])
def test_unit_inversion_at_every_round_count(p, m, n):
    # Newton starts from a lift of the residue inverse; n = 2^k and
    # 2^k + 1 are where the number of rounds it needs steps up
    ring = W(p, m, n)
    rng = random.Random(f"invert:{p}:{m}:{n}")
    for _ in range(50):
        u = ring.random_element(rng)
        if ring.is_unit(u):
            assert u * ring.invert(u) == ring.one()


def test_element_json_roundtrip():
    ring = W(2, 2, 3)
    rng = random.Random(7)
    for _ in range(25):
        x = ring.random_element(rng)
        doc = elem_to_json(ring, x)
        assert elem_from_fields(ring, {"coeffs": doc["coeffs"]}) == x
        assert elem_from_fields(ring, {"digits": doc["digits"]}) == x


def test_digit_lists_must_have_length_m():
    ring = W(2, 2, 2)
    for digit in ([1, 0, 1], [1], []):
        with pytest.raises(ValidationError):
            elem_from_fields(ring, {"digits": [digit, [0, 0]]})
    # integer digits stay allowed; a length-m list is the digit itself
    assert elem_from_fields(ring, {"digits": [1, [0, 1]]}) == elem_from_fields(
        ring, {"digits": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_multiplication_matches_table_oracle(q):
    table = TableField(q)
    # the oracle's lexicographic modulus, which need not be the built-in one
    field = FiniteField(table.p, table.m, table.modulus)
    elems = [field.element(e) for e in table.elems]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert (a * b).coeffs == table.elems[table.mul(i, j)]


def test_find_irreducible_matches_full_scan():
    # skipping constant term 0 does not change the first irreducible; the
    # full scan's cost grows with p^(m-1), hence the bound on q
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(2, 7):
            if p ** m <= 2 * 10 ** 4 and (p, m) not in BUILTIN_MODULI:
                assert find_irreducible(p, m) == first_irreducible(p, m, is_irreducible)


# products, powers, Teichmuller lifts and the packed matrix product all reduce
# through one kernel of sll.base_rings; the oracle's integer polynomials share
# no code with it.  m = 1 and m = 8, q^n up to MAX_RING_ORDER = 2^256
KERNEL_RINGS = [
    ("F_5", lambda: FiniteField(5)),
    ("F_256", lambda: FiniteField(2, 8)),
    ("W_3(F_4)", lambda: W(2, 2, 3)),
    ("W_2(F_9)", lambda: W(3, 2, 2)),
    ("W_32(F_256)", lambda: W(2, 8, 32)),
    ("W_256(F_2)", lambda: W(2, 1, 256)),
]


@pytest.mark.parametrize("make_ring", [c[1] for c in KERNEL_RINGS], ids=[c[0] for c in KERNEL_RINGS])
def test_shared_kernel_matches_integer_oracle(make_ring):
    ring = make_ring()
    field = getattr(ring, "field", ring)
    q, n = field.q, getattr(ring, "n", 1)
    g, pn, m = ring.lifted_modulus, ring.pn, field.m
    rng = random.Random(pn * 10 + m)
    top = ring.element([pn - 1] * m)
    elems = [ring.zero(), ring.one(), top] + [ring.random_element(rng) for _ in range(5)]
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == int_poly_mul_mod(a.coeffs, b.coeffs, g, pn)
        for e in (0, 1, q - 2, q ** n, 2 ** 256 + rng.randrange(2 ** 64)):
            assert (a ** e).coeffs == int_poly_pow_mod(a.coeffs, e, g, pn)
    if isinstance(ring, WittRing):
        # [a] is the one lift of a with [a]^q = [a]
        for a in [field.zero(), field.one()] + [field.random_element(rng) for _ in range(5)]:
            t = ring.teichmuller(a).coeffs
            assert tuple(c % field.p for c in t) == a.coeffs
            assert int_poly_pow_mod(t, q, g, pn) == t
    # the packed product folds each entry's slots; all-(p^n - 1) matrices
    # fill the slots to the width bound
    for rows, inner, cols in ((3, 4, 2), (1, 7, 3)):
        random_pair = ([[rng.choice(elems) for _ in range(inner)] for _ in range(rows)],
                       [[rng.choice(elems) for _ in range(cols)] for _ in range(inner)])
        for A, B in (random_pair, ([[top] * inner] * rows, [[top] * cols] * inner)):
            for i, row in enumerate(linalg.mat_mul(A, B)):
                for j, c in enumerate(row):
                    want = (0,) * m
                    for k in range(inner):
                        t = int_poly_mul_mod(A[i][k].coeffs, B[k][j].coeffs, g, pn)
                        want = tuple((x + y) % pn for x, y in zip(want, t))
                    assert c.coeffs == want


IRREDUCIBILITY_GRID = ([(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 6)]
                       + [(p, m) for p in (5, 7) for m in range(1, 4)])


def test_is_irreducible_matches_sieve():
    for p, m in IRREDUCIBILITY_GRID:
        reducible = reducible_monics(p, m)
        for tail in itertools.product(range(p), repeat=m):
            poly = tail + (1,)
            assert is_irreducible(poly, p) == (poly not in reducible), (p, poly)
