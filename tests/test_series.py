import itertools
import math
import random

import pytest

from sll.base_rings import FiniteField, WittRing
from sll.errors import DomainError, PreconditionError, ValidationError
from sll.jsonio import series_from_json, series_to_json
from sll.series import SeriesRing, TruncatedSeries

from .oracles import (dict_add, dict_mul, dict_of, dict_scale, naive_compose, naive_mul,
                      series_equals_dict)
from .test_linalg import SLOT_RINGS


def ring_W(p, m, n):
    return WittRing(FiniteField(p, m), n)


def random_series(sring, rng, max_terms=10, min_degree=0):
    terms = []
    for _ in range(rng.randrange(1, max_terms)):
        e = tuple(rng.randrange(0, sring.degree) for _ in range(sring.nvars))
        if not min_degree <= sum(e) < sring.degree:
            continue
        terms.append((e, sring.coeff_ring.random_element(rng)))
    return sring.from_terms(terms)


def test_mul_by_one_is_identity():
    S = SeriesRing(ring_W(3, 1, 2), 2, 4)
    rng = random.Random(0)
    for _ in range(20):
        f = random_series(S, rng)
        assert f * S.one() == f


def test_binomial_square_W2F3():
    S = SeriesRing(ring_W(3, 1, 2), 2, 4)
    x1, x2 = S.variables()
    got = (x1 + x2) * (x1 + x2)
    want = S.from_terms([((2, 0), 1), ((1, 1), 2), ((0, 2), 1)])
    assert got == want


def test_distributivity_and_convolution_oracle():
    S = SeriesRing(ring_W(2, 2, 2), 3, 5)
    rng = random.Random(1)
    for _ in range(200):
        f, g, h = (random_series(S, rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert series_equals_dict(f * g, naive_mul(f, g))


def random_monomial(rng, nvars, degree):
    e = [0] * nvars
    for _ in range(degree):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (2, 2, 2)])
def test_mul_cut_at_the_truncation_matches_naive(p, m, n):
    # terms mostly at or above D/2, so most pairs reach the truncation and
    # are cut, and many land exactly on degree D
    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 3, 8)
    rng = random.Random(11)

    def operand():
        terms = []
        for _ in range(rng.randrange(1, 12)):
            degree = rng.randrange(0, 4) if rng.random() < 0.2 else rng.randrange(4, 8)
            terms.append((random_monomial(rng, 3, degree), ring.random_element(rng)))
        return S.from_terms(terms)

    cut = kept = 0
    for _ in range(150):
        f, g = operand(), operand()
        for e1 in f.coeffs:
            for e2 in g.coeffs:
                if sum(e1) + sum(e2) >= S.degree:
                    cut += 1
                else:
                    kept += 1
        assert series_equals_dict(f * g, naive_mul(f, g))
        assert series_equals_dict(g * f, naive_mul(g, f))
    assert cut > 2 * kept


def grid_series(S, rng, max_terms, min_degree=0):
    terms = [(random_monomial(rng, S.nvars, rng.randrange(min_degree, S.degree)),
              S.coeff_ring.random_element(rng)) for _ in range(rng.randrange(1, max_terms))]
    return S.from_terms(terms)


def grid_images(S, rng, max_terms):
    # constant terms in the maximal ideal: 0 over a field, a multiple of p
    # over a Witt ring
    ring = S.coeff_ring
    images = []
    for _ in range(S.nvars):
        phi = grid_series(S, rng, max_terms, min_degree=1)
        if isinstance(ring, WittRing):
            phi = phi + S.constant(ring.p_element() * ring.random_element(rng))
        images.append(phi)
    return images


# fields and Witt rings with m = 1, 3 and 8, two of them at the order limit
# q^n = 2^256 (m = 8 with residues mod 2^32, m = 1 with residues mod
# 2^256), 1 to 8 variables, and D up to 51
KERNEL_GRID = [
    ("F_5", lambda: FiniteField(5), 3, 6),
    ("F_8", lambda: FiniteField(2, 3), 2, 7),
    ("W_2(F_8)", lambda: ring_W(2, 3, 2), 3, 5),
    ("W_32(F_256)", lambda: ring_W(2, 8, 32), 2, 5),
    ("W_256(F_2)", lambda: ring_W(2, 1, 256), 2, 5),
    ("W_3(F_5), one variable", lambda: ring_W(5, 1, 3), 1, 12),
    ("W_2(F_9), eight variables", lambda: ring_W(3, 2, 2), 8, 4),
    ("W_3(F_3), D = 51", lambda: ring_W(3, 1, 3), 2, 51),
]


@pytest.mark.parametrize("name,make_ring,nvars,D", KERNEL_GRID, ids=[c[0] for c in KERNEL_GRID])
def test_packed_kernel_matches_naive_on_a_grid(name, make_ring, nvars, D):
    S = SeriesRing(make_ring(), nvars, D)
    rng = random.Random(D * 100 + nvars)
    for _ in range(6):
        f, g = grid_series(S, rng, 14), grid_series(S, rng, 14)
        assert series_equals_dict(f * g, naive_mul(f, g))
    for _ in range(3):
        f = grid_series(S, rng, 6)
        images = grid_images(S, rng, 4)
        assert series_equals_dict(f.substitute(images), naive_compose(f, images))


@pytest.mark.parametrize("p,m,n,nvars,D", [
    (3, 2, 2, 1, 9), (5, 3, 2, 3, 6), (2, 8, 32, 1, 6), (3, 2, 2, 4, 5),
])
def test_dense_top_coefficients_fill_the_slots_exactly(p, m, n, nvars, D):
    # every residue of every coefficient is p^n - 1 and every monomial below
    # D is present; in one variable the top output coefficient sums
    # D = min(len(f), len(f)) products, so a slot reaches the width bound,
    # and in four variables many keys sum products at the ring's one width
    ring = ring_W(p, m, n)
    S = SeriesRing(ring, nvars, D)
    top = ring.element([ring.pn - 1] * m)
    monomials = [e for e in itertools.product(range(D), repeat=nvars) if sum(e) < D]
    f = S.from_terms((e, top) for e in monomials)
    assert series_equals_dict(f * f, naive_mul(f, f))
    phi = [S.from_terms((e, top) for e in monomials if sum(e) >= 1)] * nvars
    assert series_equals_dict(f.substitute(phi), naive_compose(f, phi))


@pytest.mark.parametrize("p,m,n", [(3, 2, 2), (2, 3, 3), (2, 8, 32)])
def test_sums_of_dense_top_coefficients_drop_zero_slot_ints(p, m, n):
    # each coefficient is one slot int; a sum or negation reduces every slot
    # mod p^n and drops a coefficient exactly when all its slots vanish
    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 3, 5)
    top = ring.element([ring.pn - 1] * m)
    rng = random.Random(f"sums:{p}:{m}:{n}")
    monomials = [e for e in itertools.product(range(5), repeat=3) if sum(e) < 5]
    f = S.from_terms((e, top) for e in monomials)
    g = S.from_terms((e, ring.element([ring.pn - 1] * (m - 1) + [rng.randrange(ring.pn)]))
                     for e in monomials if rng.random() < 0.7)
    assert (f + (-f)).packed == {} and (f - f).packed == {}
    F, G, minus_one = dict_of(f), dict_of(g), -ring.one()
    assert dict_of(f + g) == dict_add(F, G)
    assert dict_of(f - g) == dict_add(F, dict_scale(G, minus_one))
    assert dict_of(-f) == dict_scale(F, minus_one)
    assert dict_of(g + (-f)) == dict_add(G, dict_scale(F, minus_one))


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_sums_fold_only_the_keys_both_summands_hold(p, m, n, monkeypatch):
    # a sum walks the smaller map: an empty or disjoint summand costs no
    # fold, each shared key one, and every sum matches the dict oracle
    S = SeriesRing(ring_W(p, m, n), 3, 6)
    rng = random.Random(f"sum-folds:{p}:{m}:{n}")
    cases = []
    for _ in range(8):
        f, high = random_series(S, rng), random_series(S, rng, min_degree=3)
        low = S.from_terms((e, c) for e, c in f.coeffs.items() if sum(e) < 3)
        cases += [(low, high), (f, high), (f, -f), (f, S.zero())]
    real, folds = S.packing.fold, []
    monkeypatch.setattr(S.packing, "fold", lambda v: folds.append(v) or real(v))
    shared_counts = set()
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            folds.clear()
            got = x + y
            shared_counts.add(len(folds))
            assert len(folds) == len(x.packed.keys() & y.packed.keys())
            assert series_equals_dict(got, dict_add(dict_of(x), dict_of(y)))
    assert 0 in shared_counts and len(shared_counts) > 2


@pytest.mark.parametrize("make_ring", [
    lambda: ring_W(3, 1, 3), lambda: ring_W(3, 2, 2), lambda: ring_W(2, 8, 32),
], ids=["m1", "m2", "m8"])
def test_terms_round_trip_through_slot_ints(make_ring):
    # coefficients are packed where a series is built and read out where a
    # caller reads them; building from the terms read out gives the series
    ring = make_ring()
    rng = random.Random(f"round-trip:{ring!r}")
    for nvars, D in ((2, 6), (4, 4)):
        S = SeriesRing(ring, nvars, D)
        for _ in range(5):
            f = random_series(S, rng, max_terms=20) + S.constant(ring.random_element(rng))
            g = S.from_terms(f.terms())
            assert g == f and g.packed == f.packed
            assert g.constant_term() == f.constant_term()
            assert g.linear_coefficients() == f.linear_coefficients()
            assert g.quadratic_coefficients() == f.quadratic_coefficients()
            assert S.from_terms(f.coeffs.items()).coeffs == f.coeffs


def test_substitute_identity_variables():
    S = SeriesRing(ring_W(3, 1, 3), 3, 5)
    rng = random.Random(2)
    for _ in range(10):
        f = random_series(S, rng)
        assert f.substitute(S.variables()) == f


def test_substitute_completing_the_rectangle():
    # f = x1 x2 + p x1; shifting x2 by -p kills the linear term exactly
    ring = ring_W(2, 1, 2)
    S = SeriesRing(ring, 2, 4)
    x1, x2 = S.variables()
    f = x1 * x2 + x1 * S.constant(ring.p_element())
    shifted = f.substitute([x1, x2 - S.constant(ring.p_element())])
    assert shifted == x1 * x2


def test_substitute_matches_naive_composition():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 3, 5)
    rng = random.Random(3)
    p = ring.p_element()
    for _ in range(40):
        f = random_series(S, rng)
        images = []
        for _ in range(3):
            phi = random_series(S, rng, min_degree=1)
            # constant terms must sit in the maximal ideal
            images.append(phi + S.constant(p * ring.random_element(rng)))
        assert series_equals_dict(f.substitute(images), naive_compose(f, images))


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_substitute_several_series_in_one_call(p, m, n):
    # one call shares the powers of the images among all the series; each
    # result equals that series substituted alone and naively composed, for
    # the empty series, a constant, the images themselves and series long
    # enough to need wider slots than the others
    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 3, 6)
    rng = random.Random(f"several:{p}:{m}:{n}")
    pe = ring.p_element()
    for _ in range(6):
        images = [random_series(S, rng, min_degree=1) + S.constant(pe * ring.random_element(rng))
                  for _ in range(3)]
        if rng.random() < 0.5:
            images[rng.randrange(3)] = S.zero()
        fs = [random_series(S, rng), S.zero(), S.constant(ring.random_element(rng) or ring.one()),
              random_series(S, rng, max_terms=40), *images]
        rng.shuffle(fs)
        got = S._substitute([f.packed for f in fs], [phi.packed for phi in images], S.degree)
        assert len(got) == len(fs)
        for f, packed in zip(fs, got):
            assert packed == f.substitute(images).packed
            assert series_equals_dict(TruncatedSeries(S, packed), naive_compose(f, images))
    # every residue at p^n - 1 and every monomial present: the dense series
    # needs its own slot width, wider than the constant's before it
    top = ring.element([ring.pn - 1] * m)
    monomials = [e for e in itertools.product(range(6), repeat=3) if sum(e) < 6]
    dense = S.from_terms((e, top) for e in monomials)
    images = [S.from_terms((e, top) for e in monomials if sum(e) >= 1)] * 3
    fs = [S.constant(top), S.zero(), dense]
    got = S._substitute([f.packed for f in fs], [phi.packed for phi in images], S.degree)
    for f, packed in zip(fs, got):
        assert series_equals_dict(TruncatedSeries(S, packed), naive_compose(f, images))
    assert S._substitute([], [phi.packed for phi in S.variables()], S.degree) == []


@pytest.mark.parametrize("p,m,n", SLOT_RINGS,
                         ids=[f"F{p ** m}" if n == 1 else f"W{n}(F{p ** m})" for p, m, n in SLOT_RINGS])
def test_substitute_adds_the_terms_from_the_cut_as_they_stand(p, m, n):
    # at every cut 3..D the result is the naive composition of the terms
    # below the cut plus the terms at or above it, unchanged: every residue
    # is N - 1 and every monomial present, so a kept term lands on keys
    # that already sum the most products a slot holds; in 4 variables the
    # monomials of 2, 3 and 4 variables multiply their last power straight
    # into the sum, which the series packing sizes for count^2 products
    ring = FiniteField(p, m) if n == 1 else WittRing(FiniteField(p, m), n)
    S = SeriesRing(ring, 2, 6)
    top = ring.element([ring.pn - 1] * (len(ring.lifted_modulus) - 1))
    monomials = [e for e in itertools.product(range(6), repeat=2) if sum(e) < 6]
    dense = S.from_terms((e, top) for e in monomials)
    images = [S.from_terms((e, top) for e in monomials if sum(e) >= 1),
              S.from_terms((e, top) for e in monomials if sum(e) >= 2)]
    fs = [dense, S.from_terms((e, top) for e in monomials if sum(e) % 2), S.zero()]
    for cut in range(3, S.degree + 1):
        got = S._substitute([f.packed for f in fs], [phi.packed for phi in images], cut)
        for f, packed in zip(fs, got):
            low = S.from_terms((e, c) for e, c in f.coeffs.items() if sum(e) < cut)
            high = {e: c for e, c in f.coeffs.items() if sum(e) >= cut}
            assert series_equals_dict(TruncatedSeries(S, packed),
                                      dict_add(naive_compose(low, images), high))
    S = SeriesRing(ring, 4, 5)
    monomials = [e for e in itertools.product(range(5), repeat=4) if sum(e) < 5]
    dense = S.from_terms((e, top) for e in monomials)
    images = [S.from_terms((e, top) for e in monomials if sum(e) >= 1 + i % 2) for i in range(4)]
    # the naive image of each monomial, x^e = x^(e - 1_i) x_i for its first
    # variable i, by dict convolution, made once for every cut
    naive = {(0,) * 4: {(0,) * 4: ring.one()}}
    for e in monomials[1:]:
        i = next(i for i, ei in enumerate(e) if ei)
        rest = e[:i] + (e[i] - 1,) + e[i + 1:]
        naive[e] = dict_mul(naive[rest], dict_of(images[i]), S.degree)
    assert {sum(map(bool, e)) for e in monomials} == {0, 1, 2, 3, 4}
    for cut in range(3, S.degree + 1):
        [packed] = S._substitute([dense.packed], [phi.packed for phi in images], cut)
        want = {e: top for e in monomials if sum(e) >= cut}
        for e in monomials:
            if sum(e) < cut:
                want = dict_add(want, dict_scale(naive[e], top))
        assert series_equals_dict(TruncatedSeries(S, packed), want), cut


def test_substitute_memo_holds_each_monomial_below_the_truncation_once():
    # `_splits` holds one entry per monomial key that a substitution split,
    # at most the comb(D - 1 + nvars, nvars) monomials below D, each the
    # key's leading (variable, exponent) pairs and its last ones; a ring
    # with a warm memo and an equal fresh ring substitute to equal maps
    ring = ring_W(3, 2, 2)
    rng = random.Random("splits")
    for nvars, D in ((2, 6), (3, 5), (4, 5)):
        S = SeriesRing(ring, nvars, D)
        count = math.comb(D - 1 + nvars, nvars)
        dense = S.from_terms((e, ring.one()) for e in itertools.product(range(D), repeat=nvars)
                             if sum(e) < D)
        fs = [dense] + [random_series(S, rng, max_terms=30) for _ in range(6)]
        images = [random_series(S, rng, min_degree=1) for _ in range(nvars)]
        warm = [f.substitute(images) for f in fs]
        assert [f.substitute(images) for f in fs] == warm
        assert len(S._splits) <= count and set(S._splits) == set(dense.packed) - {0}
        for k, (lead, last) in S._splits.items():
            assert 0 < k < S._limit and k >> S._degree_shift < D
            assert sum(e * S._weights[i] for i, e in (*lead, last)) == k
            variables = [i for i, _ in lead] + [last[0]]
            assert variables == sorted(set(variables))
        fresh = SeriesRing(ring, nvars, D)
        assert fresh == S and fresh._splits == {}
        got = fresh._substitute([f.packed for f in fs], [phi.packed for phi in images], D)
        assert got == [g.packed for g in warm]


@pytest.mark.parametrize("bad", [True, False, 2.0, 3.5, "4", None])
def test_a_ring_needs_int_counts_of_variables_and_degree(bad):
    # both size the packing (math.comb, degree.bit_length()): a bool, float,
    # string or None is refused as QuadraticForm refuses it, never read as an int
    with pytest.raises(ValidationError, match="need at least one variable"):
        SeriesRing(ring_W(3, 1, 2), bad, 4)
    with pytest.raises(ValidationError, match="truncation degree must be >= 3"):
        SeriesRing(ring_W(3, 1, 2), 2, bad)
    assert SeriesRing(ring_W(3, 1, 2), 1, 3).packing.count == 3 ** 2


def test_substitution_associativity_up_to_truncation():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 2, 5)
    rng = random.Random(4)
    for _ in range(20):
        f = random_series(S, rng)
        phi = [random_series(S, rng, min_degree=1) for _ in range(2)]
        psi = [random_series(S, rng, min_degree=1) for _ in range(2)]
        left = f.substitute(phi).substitute(psi)
        right = f.substitute([c.substitute(psi) for c in phi])
        assert left == right


def test_substitute_rejects_unit_constant_term():
    S = SeriesRing(ring_W(2, 1, 2), 2, 4)
    with pytest.raises(PreconditionError):
        S.variable(0).substitute([S.one(), S.variable(1)])


def test_graded_part_of_the_standard_quadric():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, 4)
    x = S.variables()
    f = S.constant(ring.p_element()) + x[0] * x[3] - x[1] * x[2]
    assert f.graded_part(2) == x[0] * x[3] - x[1] * x[2]
    assert f.graded_part(1) == S.zero()
    assert f.constant_term() == ring.p_element()


def test_constant_term_of_zero():
    S = SeriesRing(ring_W(2, 1, 2), 2, 4)
    assert S.zero().constant_term() == S.coeff_ring.zero()


def test_graded_reconstruction_identity():
    S = SeriesRing(ring_W(3, 1, 2), 3, 5)
    rng = random.Random(6)
    for _ in range(100):
        f = random_series(S, rng)
        acc = S.zero()
        for d in range(S.degree):
            acc = acc + f.graded_part(d)
        assert acc == f


def test_graded_part_beyond_truncation_rejected():
    S = SeriesRing(ring_W(2, 1, 2), 2, 4)
    with pytest.raises(PreconditionError):
        S.zero().graded_part(4)


def test_truncation_coherence():
    ring = ring_W(3, 1, 2)
    big = SeriesRing(ring, 2, 6)
    rng = random.Random(7)
    for _ in range(30):
        f = random_series(big, rng)
        g = random_series(big, rng)
        assert (f * g).truncate(4) == f.truncate(4) * g.truncate(4)
        assert (f + g).truncate(4) == f.truncate(4) + g.truncate(4)
        phi = [random_series(big, rng, min_degree=1) for _ in range(2)]
        assert f.substitute(phi).truncate(4) == f.truncate(4).substitute(
            [c.truncate(4) for c in phi]
        )


def random_terms(sring, rng, count):
    """`count` random (exponent, coefficient) terms below the truncation
    degree, each total degree equally likely, repeats and zeros allowed."""
    terms = []
    for _ in range(count):
        e = [0] * sring.nvars
        for _ in range(rng.randrange(sring.degree)):
            e[rng.randrange(sring.nvars)] += 1
        terms.append((tuple(e), sring.coeff_ring.random_element(rng)))
    return terms + [terms[0], (terms[1][0], sring.coeff_ring.zero())]


@pytest.mark.parametrize("make_ring", [
    lambda: FiniteField(5), lambda: ring_W(2, 2, 3), lambda: ring_W(2, 8, 32),
], ids=["F5", "W3F4", "W32F256"])
@pytest.mark.parametrize("D,low", [(8, 7), (16, 5), (4, 3)])
def test_packed_operations_match_dict_oracles(make_ring, D, low):
    # each operation on the packed map against coefficient dicts; each
    # truncation crosses a bit-length boundary of D, where the key layout
    # changes
    ring = make_ring()
    S = SeriesRing(ring, 3, D)
    rng = random.Random(f"packed-ops:{ring!r}:{D}")
    zero, one = ring.zero(), ring.one()
    unit = next(c for c in iter(lambda: ring.random_element(rng), None) if ring.is_unit(c))
    for _ in range(4):
        f_terms, g_terms = random_terms(S, rng, 12), random_terms(S, rng, 12)
        f, g = S.from_terms(f_terms), S.from_terms(g_terms)
        F = G = {}
        for e, c in f_terms:
            F = dict_add(F, {e: c}) if c else F
        for e, c in g_terms:
            G = dict_add(G, {e: c}) if c else G
        assert dict_of(f) == F and dict_of(g) == G
        assert dict_of(f + g) == dict_add(F, G)
        assert dict_of(f - g) == dict_add(F, dict_scale(G, -one))
        assert dict_of(-f) == dict_scale(F, -one)
        for c in (zero, ring.from_int(ring.p), unit):
            assert dict_of(f * S.constant(c)) == dict_scale(F, c)
        for d in range(D):
            assert dict_of(f.graded_part(d)) == {e: c for e, c in F.items() if sum(e) == d}
        assert f.degree_bound() == max((sum(e) for e in F), default=0)
        assert f.constant_term() == F.get((0, 0, 0), zero)
        linear = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert f.linear_coefficients() == [F.get(e, zero) for e in linear]
        t = f.truncate(low)
        assert t.parent == S.with_degree(low)
        assert dict_of(t) == {e: c for e, c in F.items() if sum(e) < low}
        assert t == S.with_degree(low).from_terms(reversed(f_terms))
        assert t.degree_bound() == max((sum(e) for e in F if sum(e) < low), default=0)
        for h in (S.from_terms(reversed(f_terms)), (f + g) - g, f * S.one()):
            assert h == f and hash(h) == hash(f)
        assert f - f == S.zero() and hash(f - f) == hash(S.zero())


def test_linear_part_of_composition_chain_rule():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 2, 5)
    rng = random.Random(8)
    for _ in range(30):
        f = random_series(S, rng)
        phi = [random_series(S, rng, min_degree=1) for _ in range(2)]
        got = f.substitute(phi).graded_part(1)
        oracle = naive_compose(f, phi)
        want = {e: c for e, c in oracle.items() if sum(e) == 1 and c}
        assert dict(got.coeffs) == want


def test_linear_coefficients_order():
    S = SeriesRing(ring_W(2, 1, 2), 3, 4)
    x = S.variables()
    f = x[1] * S.constant(3) + x[2]
    lin = f.linear_coefficients()
    assert lin[0] == S.coeff_ring.zero()
    assert lin[1] == S.coeff_ring.from_int(3)
    assert lin[2] == S.coeff_ring.one()


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (2, 2, 3), (3, 2, 2), (5, 3, 1), (2, 8, 32)],
                         ids=["W2(F3)", "W3(F4)", "W2(F9)", "W1(F125)", "W32(F256)"])
@pytest.mark.parametrize("nvars", [1, 2, 4, 8])
def test_quadratic_coefficients_match_the_graded_part(p, m, n, nvars):
    # q_ij for i <= j, row by row, against the exponent map of the degree-2
    # part, with zero q_ij among them; at D = 3 degree 2 is the top degree
    ring = ring_W(p, m, n)
    rng = random.Random(f"quadratic:{p}:{m}:{n}:{nvars}")
    pairs = [(i, j) for i in range(nvars) for j in range(i, nvars)]

    def exponents(i, j):
        e = [0] * nvars
        e[i] += 1
        e[j] += 1
        return tuple(e)

    seen = set()
    for D in (3, 6):
        S = SeriesRing(ring, nvars, D)
        assert S.zero().quadratic_coefficients() == [ring.zero()] * len(pairs)
        for _ in range(4):
            quadratic = S.from_terms((exponents(i, j), ring.random_element(rng))
                                     for i, j in pairs if rng.random() < 0.6)
            f = random_series(S, rng) + quadratic
            want = f.graded_part(2).coeffs
            got = f.quadratic_coefficients()
            assert got == [want.get(exponents(i, j), ring.zero()) for i, j in pairs]
            seen |= {bool(c) for c in got}
    assert seen == {True, False}


def test_text_rendering():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, 4, ("t11", "t12", "t21", "t22"))
    t = S.variables()
    f = S.constant(ring.p_element()) + t[0] * t[3] - t[1] * t[2]
    assert f.to_text() == "2 + t11*t22 - t12*t21"


@pytest.mark.parametrize("names", [
    ("a", "a"), ("a", "b c"), ("a", ""), ("a", "1b"), ("a", "b*c"), ("a", 1),
])
def test_variable_names_are_distinct_identifiers(names):
    # with a repeated name, x^2 + x*y + y^2 would print as a^2 + a*a + a^2
    with pytest.raises(ValidationError, match="distinct identifiers"):
        SeriesRing(FiniteField(3), 2, 4, names)
    assert SeriesRing(FiniteField(3), 2, 4, ("a", "b_1")).var_names == ("a", "b_1")


def test_json_roundtrip():
    ring = ring_W(3, 2, 2)
    S = SeriesRing(ring, 2, 5)
    rng = random.Random(9)
    for _ in range(20):
        f = random_series(S, rng)
        assert series_from_json(series_to_json(f)) == f


def test_json_monomial_limit():
    # with a term of degree >= 3, 4 variables decode up to D = 12 (1365
    # monomials) and not at D = 13 (1820); quadratic series are exempt
    ring = ring_W(5, 1, 3)
    for D in (12, 13):
        S = SeriesRing(ring, 4, D)
        x = S.variables()
        quadric = x[0] * x[3] - x[1] * x[2]
        assert series_from_json(series_to_json(quadric)) == quadric
        cubic = quadric + x[0] * x[1] * x[2]
        if D == 12:
            assert series_from_json(series_to_json(cubic)) == cubic
        else:
            with pytest.raises(ValidationError, match="1820"):
                series_from_json(series_to_json(cubic))


@pytest.mark.parametrize("exps", [(-1, 0), (1,), (1, 0, 0), (1.7, 0), (True, 0), ("1", 0),
                                  (1.0, 1)])
def test_from_terms_refuses_bad_exponents(exps):
    # an exponent is a non-negative int, one per variable: a float, bool or
    # string is refused, as a coefficient is, and never read as an int
    S = SeriesRing(FiniteField(3), 2, 4)
    with pytest.raises(ValidationError, match="bad exponent vector"):
        S.from_terms([(exps, 1)])


def test_parent_mismatch_rejected():
    S1 = SeriesRing(ring_W(2, 1, 2), 2, 4)
    S2 = SeriesRing(ring_W(2, 1, 2), 2, 5)
    with pytest.raises(DomainError):
        S1.one() + S2.one()
