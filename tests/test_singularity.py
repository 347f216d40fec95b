import random

import pytest

from sll import singularity
from sll.base_rings import FiniteField, WittRing, field_for_q
from sll.deformation import deformation_equation, standard_frame
from sll.dieudonne import make_standard
from sll.errors import InternalInvariantError, PreconditionError, SmoothShortCircuit
from sll.quadforms import QuadraticForm, bilinear_gram, gram_inverse, is_nondegenerate
from sll.series import SeriesRing, TruncatedSeries
from sll.singularity import (
    classify_local_ring,
    default_truncation,
    kill_linear_term,
    normal_form,
    reduce_to_quadric,
    strip_higher_terms,
)

from .oracles import digit_congruent


def ring_W(p, m, n):
    return WittRing(FiniteField(p, m), n)


def _quadratic_inverse(f):
    """The inverse Gram matrix of the quadratic part of f, as the normal
    form gets it, in rows of slot ints of f's series ring."""
    return [list(row) for row in gram_inverse(QuadraticForm.from_series(f), f.parent._packing.coeff)]


def standard_quadric(S):
    x = S.variables()
    return x[0] * x[3] - x[1] * x[2]


def random_nondegenerate_quadratic(S, rng):
    ring = S.coeff_ring
    n = S.nvars
    while True:
        terms = []
        for i in range(n):
            for j in range(i, n):
                c = ring.random_element(rng)
                if c:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms.append((tuple(e), c))
        q = S.from_terms(terms)
        if is_nondegenerate(QuadraticForm.from_series(q)):
            return q


def random_tail(S, rng, min_degree=3, sparsity=8):
    terms = []
    for _ in range(sparsity):
        e = tuple(rng.randrange(0, S.degree) for _ in range(S.nvars))
        if min_degree <= sum(e) < S.degree:
            terms.append((e, S.coeff_ring.random_element(rng)))
    return S.from_terms(terms)


def test_kill_linear_term_noop_without_linear_part():
    S = SeriesRing(ring_W(3, 1, 2), 2, 4)
    x = S.variables()
    f = x[0] * x[1]
    b, shifted = kill_linear_term(f)
    assert all(not bi for bi in b)
    assert shifted == f


def test_kill_linear_term_worked_example():
    # f = x1 x2 + p x1 over W_3(F_2): b = (0, -p), shift leaves x1 x2
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 2, 4)
    x = S.variables()
    p = ring.p_element()
    f = x[0] * x[1] + x[0] * S.constant(p)
    b, shifted = kill_linear_term(f)
    assert b[0] == ring.zero()
    assert b[1] == -p
    assert shifted == x[0] * x[1]
    # constant preserved mod p^2
    assert ring.valuation(shifted.constant_term() - f.constant_term()) >= 2


def test_kill_linear_term_random_50():
    ring = ring_W(3, 2, 3)
    S = SeriesRing(ring, 4, 5)
    rng = random.Random(0)
    p = ring.p_element()
    for _ in range(50):
        f = random_nondegenerate_quadratic(S, rng)
        a0 = p * ring.random_element(rng)
        f = f + S.constant(a0)
        for i in range(4):
            f = f + S.variable(i) * S.constant(p * ring.random_element(rng))
        f = f + random_tail(S, rng)
        b, shifted = kill_linear_term(f)
        assert not any(shifted.linear_coefficients())
        # independent re-substitution confirms the shift
        check = f.substitute([S.variable(i) + S.constant(b[i]) for i in range(4)])
        assert check == shifted
        assert ring.valuation(shifted.constant_term() - f.constant_term()) >= 2


def test_kill_linear_term_signals_smooth_on_unit_coefficient():
    S = SeriesRing(ring_W(2, 1, 2), 2, 4)
    x = S.variables()
    f = x[0] * x[1] + x[0]
    with pytest.raises(SmoothShortCircuit):
        kill_linear_term(f)


def test_kill_linear_term_rejects_degenerate_quadratic():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 2, 4)
    x = S.variables()
    with pytest.raises(PreconditionError) as err:
        kill_linear_term(x[0] * x[0] * S.constant(ring.p_element()))
    assert err.value.part == "quadratic"


def test_strip_trivial():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 2, 4)
    x = S.variables()
    f = S.constant(ring.p_element()) + x[0] * x[1]
    phi, unit, q_prime = strip_higher_terms(f)
    assert phi == S.variables()
    assert unit == S.one()
    assert q_prime.to_series(S) == x[0] * x[1]


def test_strip_cubic_worked_example():
    # p + x1 x4 - x2 x3 + x1^3 over W_3(F_2), D = 6
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    f = S.constant(ring.p_element()) + standard_quadric(S) + x[0] * x[0] * x[0]
    phi, unit, q_prime = strip_higher_terms(f)
    result = f.substitute(phi)
    for d in range(3, 6):
        assert result.graded_part(d) == S.zero()
    assert result == unit * (S.constant(ring.p_element()) + q_prime.to_series(S))
    # the coordinate change checked by an independent composition oracle
    from .oracles import naive_compose, series_equals_dict

    assert series_equals_dict(result, naive_compose(f, phi))
    oracle = naive_compose(f, phi)
    assert not any(c for e, c in oracle.items() if sum(e) in (1, 3))


def test_strip_random_50_certified():
    ring = ring_W(3, 2, 2)
    S = SeriesRing(ring, 4, 6)
    rng = random.Random(1)
    for _ in range(50):
        f = (
            S.constant(ring.p_element() * ring.random_element(rng))
            + random_nondegenerate_quadratic(S, rng)
            + random_tail(S, rng)
        )
        phi, unit, q_prime = strip_higher_terms(f)
        got = f.substitute(phi)
        want = unit * (S.constant(f.constant_term()) + q_prime.to_series(S))
        assert got == want


def test_strip_stops_once_no_higher_terms_are_left(monkeypatch):
    # the deformation relation p + t11*t22 - t12*t21 of `deform --fixture iib
    # --q 65521 --n 2` is quadratic at D = 131,044: no degree needs a step
    module = make_standard(ring_W(65521, 1, 2), "iib")
    rel = deformation_equation(standard_frame(module))
    assert rel.parent.degree == 131_044
    calls = []
    step = singularity._step

    def counted(F, d, forms):
        calls.append(d)
        return step(F, d, forms)

    monkeypatch.setattr(singularity, "_step", counted)
    cls = classify_local_ring(rel)
    assert cls.tag == "OrdinaryDoublePoint" and cls.valuation == 1
    assert cls.normal_form.phi == rel.parent.variables()
    assert len(calls) < 10


@pytest.mark.parametrize("p,m,n,D", [(5, 1, 3, 12), (3, 2, 2, 8)])
def test_compose_matches_naive_composition_at_every_degree(p, m, n, D):
    # g(step) for seeded absorbing steps at each d = 3 .. D-1, with g
    # carrying monomials of every degree, so both sides of the cut
    # D - d + 2 (and the boundary degree D - d + 1) are present; each step,
    # and the degree-1 step, equals the oracle's step on coefficient dicts
    from .oracles import (
        _gram_inverse,
        absorbing_step,
        dict_of,
        naive_compose,
        series_equals_dict,
    )

    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 4, D)
    rng = random.Random(f"compose:{p}:{m}:{D}")

    def monomial(k):
        e = [0] * 4
        for _ in range(k):
            e[rng.randrange(4)] += 1
        return tuple(e)

    quadratic = random_nondegenerate_quadratic(S, rng)
    forms = singularity._step_forms(S, QuadraticForm.from_series(quadratic))
    ginv = _gram_inverse(ring, dict_of(quadratic))
    variables = [dict_of(x) for x in S.variables()]

    def checked_step(f, d):
        step = singularity._step(f, d, forms)
        assert step is not None
        want = absorbing_step(dict_of(f), d, ginv, variables)
        assert all(series_equals_dict(TruncatedSeries(S, u), w) for u, w in zip(step, want))
        return step

    for d in range(3, D):
        tail = S.from_terms((monomial(d), ring.random_element(rng)) for _ in range(2))
        step = checked_step(quadratic + tail, d)
        g = S.from_terms(
            (monomial(k), ring.random_element(rng)) for k in range(D) for _ in range(2)
        )
        g = g + S.from_terms((monomial(D - d + 1), ring.one()) for _ in range(3))
        [got] = singularity._apply_step([g], step, D - d + 2)
        images = [TruncatedSeries(S, u) for u in step]
        assert series_equals_dict(got, naive_compose(g, images))
    linear = S.from_terms((monomial(1), ring.random_element(rng)) for _ in range(4))
    checked_step(quadratic + linear, 1)


def random_normal_form_input(S, rng, linear_valuation):
    """A constant in (p), linear coefficients in (p^linear_valuation), a
    non-degenerate quadratic part and two random monomials of each degree
    3 .. D-1 (the low degrees fill phi in)."""
    ring = S.coeff_ring
    pe = ring.p_element()
    f = S.constant(pe * ring.random_element(rng)) + random_nondegenerate_quadratic(S, rng)
    for i in range(S.nvars):
        f = f + S.variable(i) * S.constant(pe ** linear_valuation * ring.random_element(rng))
    tail = []
    for k in [*range(3, S.degree)] * 2:
        e = [0] * S.nvars
        for _ in range(k):
            e[rng.randrange(S.nvars)] += 1
        tail.append((tuple(e), ring.random_element(rng)))
    return f + S.from_terms(tail)


@pytest.mark.parametrize("p,m,n,D", [(3, 1, 3, 8), (3, 2, 2, 8), (2, 2, 3, 6), (2, 1, 3, 6)])
def test_normal_form_matches_naive_reduction_on_a_grid(p, m, n, D):
    # the packed pipeline against the Residue-level steps composed naively:
    # equal phi, a' and Q', at linear valuation 2 (normal_form) and 1
    from .oracles import naive_normal_form

    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 4, D)
    rng = random.Random(f"naive-nf:{p}:{m}:{n}:{D}")
    for seed in range(4):
        if seed % 2:
            f = random_normal_form_input(S, rng, 1)
            nf = reduce_to_quadric(f)
        else:
            f = random_normal_form_input(S, rng, 2)
            nf = normal_form(f)
        phi, a_prime, q_prime = naive_normal_form(f)
        assert [dict(c.coeffs) for c in nf.phi] == phi
        assert nf.a_prime == a_prime
        assert dict(nf.q_prime.to_series(S).coeffs) == q_prime


def unit_gram_quadratic(S, rng):
    """A quadratic form whose Gram matrix is a unit mod p plus p * noise:
    hyperbolic pairs (at p = 2 always, else at random) or a diagonal of
    units, over S's coefficient ring."""
    ring, n = S.coeff_ring, S.nvars
    pe = ring.p_element()
    upper = {(i, j): pe * ring.random_element(rng) for i in range(n) for j in range(i, n)}
    units = [c for c in ring.field.elements() if c]
    perm = list(range(n))
    rng.shuffle(perm)
    if ring.p != 2 and rng.random() < 0.5:
        keys = [(i, i) for i in range(n)]
    else:
        keys = [tuple(sorted(perm[k:k + 2])) for k in range(0, n - 1, 2)]
        if n % 2:
            # an odd form needs one square term, a unit at odd p
            keys.append((perm[-1], perm[-1]))
    for key in keys:
        upper[key] = upper[key] + ring.teichmuller(rng.choice(units))
    return QuadraticForm(ring, n, upper)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_inverse_matches_residue_inverse(p, m, n):
    # the row reduction on reduced coefficients against the Residue loop
    # over the Witt ring, and G X = I exactly
    from sll import linalg

    from .oracles import loop_invert, naive_mat_mul

    ring = ring_W(p, m, n)
    rng = random.Random(f"gram:{p}:{m}:{n}")
    for nvars in (2, 4) if p == 2 else (2, 3, 4):
        S = SeriesRing(ring, nvars, 4)
        for _ in range(4):
            Q = unit_gram_quadratic(S, rng)
            G = bilinear_gram(Q)
            got = _quadratic_inverse(Q.to_series(S))
            want = loop_invert(ring, G)
            packing = S._packing.coeff
            assert got == packing.reduced_matrix(want)
            X = packing.element_matrix(got)
            assert naive_mat_mul(G, X) == linalg.identity(ring, nvars)


def degenerate_quadratics(S):
    """x1 x2 + x3^2 (rank 3 mod p at odd p) and p (x1 x4 - x2 x3), which is
    0 mod p but not mod p^2."""
    x = S.variables()
    pe = S.coeff_ring.p_element()
    return [x[0] * x[1] + x[2] * x[2], (x[0] * x[3] - x[1] * x[2]) * S.constant(pe)]


@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_degenerate_quadratic_part_at_every_entry_point(p, m, n):
    from sll import linalg

    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    for quadratic in degenerate_quadratics(S):
        Q = QuadraticForm.from_series(quadratic)
        assert any(any(row) for row in bilinear_gram(Q))
        rank = linalg.rank_field(ring.field, linalg.mat_map(bilinear_gram(Q), ring.residue))
        assert rank in (0, 3)
        f = S.constant(ring.p_element()) + quadratic + x[0] * x[1] * x[3]
        for entry in (kill_linear_term, strip_higher_terms, normal_form):
            with pytest.raises(PreconditionError) as err:
                entry(f)
            assert err.value.part == "quadratic"
        cls = classify_local_ring(f)
        assert (cls.tag, cls.detail) == ("Undetermined", "degenerate_quadratic_part")


def test_gram_inverse_is_made_once_when_the_shift_keeps_the_quadratic_part():
    # linear coefficients in (p^2) and no cubic term over W_3: the shift b
    # lies in (p^2), so it moves the quadratic part by b^2 = 0 and strip
    # reuses kill_linear_term's inverse
    from .oracles import naive_normal_form

    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 8)
    rng = random.Random("gram-reuse")
    x = S.variables()
    p2 = ring.p_element() ** 2
    for _ in range(4):
        f = S.constant(ring.p_element()) + random_nondegenerate_quadratic(S, rng)
        f = f + random_tail(S, rng, min_degree=4)
        f = f + sum((xi * S.constant(p2 * ring.random_element(rng)) for xi in x), S.zero())
        gram_inverse.cache_clear()
        nf = normal_form(f)
        # one inversion, which strip_higher_terms finds kept, in slot ints of
        # the series ring's own packing
        info = gram_inverse.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        gram_inverse(QuadraticForm.from_series(f), S._packing.coeff)
        info = gram_inverse.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        b, f1 = kill_linear_term(f)
        assert any(b) and f1.graded_part(2) == f.graded_part(2)
        phi, a_prime, q_prime = naive_normal_form(f)
        assert [dict(c.coeffs) for c in nf.phi] == phi and nf.a_prime == a_prime


@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_gram_inverse_is_made_again_when_the_shift_moves_the_quadratic_part(p, m, n):
    # dense inputs with linear coefficients in (p): the shift moves the
    # quadratic part through the cubic terms, so strip needs a new inverse;
    # the certificate and strip's drift check hold, and phi, a' and Q'
    # match the oracle, which inverts the Gram matrix afresh each time
    from .oracles import naive_normal_form

    ring = ring_W(p, m, n)
    S = SeriesRing(ring, 4, 7)
    rng = random.Random(f"gram-moved:{p}:{m}:{n}")
    moved = 0
    for _ in range(6):
        f = random_normal_form_input(S, rng, 1)
        gram_inverse.cache_clear()
        nf = reduce_to_quadric(f)
        inverts = gram_inverse.cache_info().misses
        assert nf.certificate_holds(f)
        _, f1 = kill_linear_term(f)
        changed = f1.graded_part(2) != f.graded_part(2)
        moved += changed
        assert inverts == 1 + changed
        phi, a_prime, q_prime = naive_normal_form(f)
        assert [dict(c.coeffs) for c in nf.phi] == phi and nf.a_prime == a_prime
        assert dict(nf.q_prime.to_series(S).coeffs) == q_prime
    assert moved


def test_a_degenerate_quadratic_part_raises_on_every_call():
    # a failed inversion is never kept: it raises again, and the inverse kept
    # before it is still the right one afterwards
    from .oracles import naive_mat_mul

    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 4, 6)
    good = standard_quadric(S) + S.variable(0) * S.variable(0)
    want = _quadratic_inverse(good)
    G = bilinear_gram(QuadraticForm.from_series(good))
    for quadratic in degenerate_quadratics(S):
        for _ in range(3):
            with pytest.raises(PreconditionError) as err:
                _quadratic_inverse(quadratic)
            assert err.value.part == "quadratic"
            with pytest.raises(PreconditionError):
                kill_linear_term(S.constant(ring.p_element()) + quadratic)
        got = _quadratic_inverse(good)
        assert got == want
        X = S._packing.coeff.element_matrix(got)
        assert naive_mat_mul(G, X) == [[ring.element(int(i == j)) for j in range(4)]
                                       for i in range(4)]


def test_rings_with_equal_coefficient_tuples_share_no_gram_inverse():
    # Q = x1^2 + 2 x1 x2 + 2 x2^2 has the same packed coefficients over W_2(F_3)
    # and W_3(F_3) (and over two series rings that differ only in their
    # variable names); G = [[2, 2], [2, 4]] has a different inverse mod 9 and
    # mod 27, and each call gets its own ring's
    from .oracles import naive_mat_mul

    rings = [SeriesRing(ring_W(3, 1, 2), 2, 4), SeriesRing(ring_W(3, 1, 3), 2, 4),
             SeriesRing(ring_W(3, 1, 2), 2, 4, ("y", "z"))]
    inverses = []
    for S in rings * 2:
        A = S.coeff_ring
        x1, x2 = S.variables()
        f = x1 * x1 + S.constant(2) * x1 * x2 + S.constant(2) * x2 * x2
        assert sorted(f.packed.values()) == [1, 2, 2]
        got = _quadratic_inverse(f)
        G = [[A.element(2), A.element(2)], [A.element(2), A.element(4)]]
        X = [[A.element(c) for c in row] for row in got]
        assert naive_mat_mul(G, X) == [[A.one(), A.zero()], [A.zero(), A.one()]]
        inverses.append(got)
    assert inverses[0] != inverses[1] and inverses[:3] == inverses[3:]


def test_normal_form_exact_quadric():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, default_truncation(2))
    f = S.constant(ring.p_element()) + standard_quadric(S)
    nf = normal_form(f)
    assert nf.a_prime == ring.p_element()
    assert nf.phi == S.variables()
    assert nf.unit == S.one()
    assert nf.q_prime.to_series(S) == standard_quadric(S)


@pytest.mark.parametrize("p", [2, 3])
def test_normal_form_perturbed_keeps_constant_mod_p3(p):
    ring = ring_W(p, 1, 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    rng = random.Random(p)
    pe = ring.p_element()
    p2 = pe * pe
    for _ in range(15):
        g = random_tail(S, rng)
        lin = x[rng.randrange(4)] * S.constant(p2 * ring.random_element(rng))
        f = S.constant(pe) + standard_quadric(S) + g + lin
        nf = normal_form(f)
        assert nf.certificate_holds(f)
        assert ring.valuation(nf.a_prime) == 1
        assert ring.digits(nf.a_prime)[:3] == ring.digits(pe)[:3]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_congruence_by_valuation_matches_the_digit_comparison(q, n):
    # a' = a mod p^k as normal_form tests it, v(a' - a) >= k, against equal
    # leading Teichmuller digits, for differences of every valuation 0..n
    ring = WittRing(field_for_q(q), n)
    rng = random.Random(f"congruence-{q}-{n}")
    pe = ring.p_element()
    for v in range(n + 1):
        for _ in range(10):
            a = ring.random_element(rng)
            unit = next(u for u in iter(lambda: ring.random_element(rng), None)
                        if ring.is_unit(u))
            a_prime = a + pe ** v * unit if v < n else a
            assert ring.valuation(a_prime - a) == v
            for k in range(n + 1):
                assert (ring.valuation(a_prime - a) >= k) == digit_congruent(
                    ring, a_prime, a, k), (q, n, v, k)


def test_normal_form_refuses_a_prime_off_by_p_to_the_k_minus_one(monkeypatch):
    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 6)
    f = S.constant(ring.p_element()) + standard_quadric(S)
    good = reduce_to_quadric(f)
    for k, accepted in ((2, False), (3, True)):
        # a' moved by p^k: still a = a' mod p^3 only when k >= 3 (here p^3 = 0)
        shifted = singularity.NormalFormResult(
            good.a_prime + ring.p_element() ** k, good.q_prime, good.phi, good.unit)
        monkeypatch.setattr(singularity, "reduce_to_quadric", lambda f, r=shifted: r)
        if accepted:
            assert normal_form(f) is shifted
        else:
            with pytest.raises(InternalInvariantError):
                normal_form(f)


def test_normal_form_smooth_short_circuit():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    f = S.constant(ring.p_element()) + standard_quadric(S) + x[1]
    with pytest.raises(SmoothShortCircuit):
        normal_form(f)


def test_normal_form_reports_offending_part():
    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    p = ring.p_element()
    base = S.constant(p) + standard_quadric(S)
    with pytest.raises(PreconditionError) as err:
        normal_form(base + x[0] * S.constant(p))  # valuation 1 < 2
    assert err.value.part == "linear"
    with pytest.raises(PreconditionError) as err:
        normal_form(S.constant(ring.one()) + standard_quadric(S))
    assert err.value.part == "constant"
    with pytest.raises(PreconditionError) as err:
        normal_form(S.constant(p) + x[0] * x[1])  # degenerate in 4 vars
    assert err.value.part == "quadratic"


def test_remark_bootstrap_r1_and_r2():
    # linear coefficients in (p^r) give a' = a mod p^(2r); at n = 3 the
    # case r = 2 collapses to full-precision equality.  At n = 6 and r = 1
    # some inputs need five rounds of the shift, each correction one factor
    # of p smaller than the last.
    for n in (3, 6):
        ring = ring_W(3, 1, n)
        S = SeriesRing(ring, 4, 6)
        x = S.variables()
        rng = random.Random(2)
        pe = ring.p_element()
        for r in (1, 2):
            scale = pe if r == 1 else pe * pe
            for _ in range(20):
                f = S.constant(pe * ring.random_element(rng)) + standard_quadric(S)
                for i in range(4):
                    f = f + x[i] * S.constant(scale * ring.random_element(rng))
                f = f + random_tail(S, rng)
                b, shifted = kill_linear_term(f)
                assert all(ring.valuation(bi) >= r for bi in b if bi)
                diff = shifted.constant_term() - f.constant_term()
                assert ring.valuation(diff) >= min(2 * r, ring.n)
                if 2 * r >= ring.n:
                    assert shifted.constant_term() == f.constant_term()
                # the shift is the unique critical point: shifting again is trivial
                b_again, again = kill_linear_term(shifted)
                assert not any(b_again)
                assert again == shifted


def test_normal_form_idempotent():
    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 6)
    rng = random.Random(3)
    for _ in range(10):
        f = (
            S.constant(ring.p_element())
            + random_nondegenerate_quadratic(S, rng)
            + random_tail(S, rng)
        )
        nf = normal_form(f)
        again = normal_form(S.constant(nf.a_prime) + nf.q_prime.to_series(S))
        assert again.phi == S.variables()
        assert again.a_prime == nf.a_prime
        assert again.q_prime == nf.q_prime


def test_classify_smooth_via_unit_linear_term():
    # -t21 + p t12 + t11 * (quadratic): the t21 coefficient is a unit
    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 6, ("t11", "t12", "t21", "t22"))
    t = S.variables()
    f = -t[2] + t[1] * S.constant(ring.p_element()) + t[0] * (t[0] * t[3] - t[1] * t[2])
    cls = classify_local_ring(f)
    assert cls.tag == "Smooth"


def test_classify_ordinary_double_point():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 4, 6)
    f = S.constant(ring.p_element()) + standard_quadric(S)
    cls = classify_local_ring(f)
    assert cls.tag == "OrdinaryDoublePoint"
    assert cls.a_prime == ring.p_element()
    assert cls.valuation == 1


def test_classify_undetermined_for_zero_quadratic_part():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 2, 4)
    x = S.variables()
    f = x[0] * x[0] * x[0] + x[1] * x[1] * x[1]
    assert classify_local_ring(f).tag == "Undetermined"


def test_classify_unit_ideal_flagged():
    ring = ring_W(2, 1, 3)
    S = SeriesRing(ring, 2, 4)
    f = S.one() + S.variable(0) * S.variable(1)
    cls = classify_local_ring(f)
    assert cls.tag == "Smooth"
    assert cls.detail == "unit_ideal"


def test_classify_handles_valuation_one_linear_terms():
    # classification does not need the strict (p^2) entry hypothesis
    ring = ring_W(3, 1, 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    f = S.constant(ring.p_element()) + standard_quadric(S) + x[0] * S.constant(ring.p_element())
    cls = classify_local_ring(f)
    assert cls.tag == "OrdinaryDoublePoint"
    assert cls.valuation == 1


def test_reduce_to_quadric_certificate():
    ring = ring_W(2, 2, 2)
    S = SeriesRing(ring, 4, 6)
    rng = random.Random(4)
    pe = ring.p_element()
    for _ in range(10):
        f = S.constant(pe * ring.random_element(rng)) + random_nondegenerate_quadratic(S, rng)
        for i in range(4):
            f = f + S.variable(i) * S.constant(pe * ring.random_element(rng))
        f = f + random_tail(S, rng)
        nf = reduce_to_quadric(f)
        assert nf.certificate_holds(f)
