import random

import pytest

from sll.base_rings import FiniteField, WittRing
from sll.deformation import classify_point, standard_frame
from sll.dieudonne import make_standard
from sll.errors import DomainError, PreconditionError
from sll import linalg
from sll.quadforms import (QuadraticForm, bilinear_gram, gram_inverse, is_nondegenerate,
                           quadric_class)
from sll.series import SeriesRing

from .oracles import (TableField, naive_mat_mul, projective_quadric_points,
                      residue_rank_nondegenerate)

QS = [2, 3, 4, 5, 7, 8, 9]


def ring_W(p, m, n):
    return WittRing(FiniteField(p, m), n)


def random_nondegenerate_form(ring, nvars, rng):
    while True:
        upper = {}
        for i in range(nvars):
            for j in range(i, nvars):
                c = ring.random_element(rng)
                if c:
                    upper[(i, j)] = c
        q = QuadraticForm(ring, nvars, upper)
        if is_nondegenerate(q):
            return q


def test_gram_of_standard_quadric():
    ring = ring_W(3, 1, 2)
    one = ring.one()
    q = QuadraticForm(ring, 4, {(0, 3): one, (1, 2): -one})
    G = bilinear_gram(q)
    for i in range(4):
        for j in range(4):
            want = ring.zero()
            if (i, j) in ((0, 3), (3, 0)):
                want = one
            if (i, j) in ((1, 2), (2, 1)):
                want = -one
            assert G[i][j] == want


def test_gram_of_zero_form():
    ring = ring_W(2, 1, 2)
    q = QuadraticForm(ring, 3, {})
    assert all(not x for row in bilinear_gram(q) for x in row)


def test_char2_square_is_degenerate():
    ring = ring_W(2, 1, 2)
    q = QuadraticForm(ring, 1, {(0, 0): ring.one()})
    G = bilinear_gram(q)
    assert G[0][0] == ring.p_element()
    assert not is_nondegenerate(q)


def test_standard_quadric_nondegenerate_at_all_p():
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        ring = ring_W(p, m, 2)
        one = ring.one()
        q = QuadraticForm(ring, 4, {(0, 3): one, (1, 2): -one})
        assert is_nondegenerate(q)


def test_sum_of_squares_W2F3_nondegenerate():
    ring = ring_W(3, 1, 2)
    one = ring.one()
    q = QuadraticForm(ring, 2, {(0, 0): one, (1, 1): one})
    assert is_nondegenerate(q)  # det G = 4, a unit mod 3


def test_from_series_and_back():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 3, 4)
    x = S.variables()
    f = x[0] * x[1] + x[2] * x[2] * S.constant(2) + x[0]
    q = QuadraticForm.from_series(f)
    assert q.to_series(S) == f.graded_part(2)


@pytest.mark.parametrize("nvars", [2, 4])
@pytest.mark.parametrize("q", QS)
def test_quadric_class_matches_point_count(q, nvars):
    table = TableField(q)
    # the oracle's modulus, so residues read off as table elements
    ring = WittRing(FiniteField(table.p, table.m, table.modulus), 2)
    k = nvars // 2
    split_points = (q ** k - 1) * (q ** (k - 1) + 1) // (q - 1)
    nonsplit_points = (q ** k + 1) * (q ** (k - 1) - 1) // (q - 1)
    rng = random.Random(100 * q + nvars)
    seen = set()
    for _ in range(24):
        Q = random_nondegenerate_form(ring, nvars, rng)
        upper = {
            key: table.index[tuple(ring.residue(c).coeffs)] for key, c in Q.upper.items()
        }
        count = projective_quadric_points(table, nvars, upper)
        assert count in (split_points, nonsplit_points)
        want = "split" if count == split_points else "nonsplit"
        assert quadric_class(Q) == want
        seen.add(want)
    # both classes are exercised
    assert seen == {"split", "nonsplit"}


@pytest.mark.parametrize("q", QS)
def test_iib_double_point_is_split(q):
    table = TableField(q)
    ring = ring_W(table.p, table.m, 2)
    cls = classify_point(standard_frame(make_standard(ring, "iib")))
    q_prime = cls.normal_form.q_prime
    one = ring.one()
    assert q_prime == QuadraticForm(ring, 4, {(0, 3): one, (1, 2): -one})
    assert quadric_class(q_prime) == "split"


def test_hyperbolic_form_is_split():
    for p, m in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        ring = ring_W(p, m, 2)
        one = ring.one()
        for nvars in (2, 4, 6):
            q = QuadraticForm(ring, nvars, {(2 * k, 2 * k + 1): one for k in range(nvars // 2)})
            assert quadric_class(q) == "split"
    # split (36 = (5+1)^2 points), though pairing the diagonal in order
    # gives two non-split planes x^2 + 2y^2
    ring = ring_W(5, 1, 2)
    diag = QuadraticForm(ring, 4, {(i, i): ring.from_int(c) for i, c in enumerate((1, 2, -1, -2))})
    assert quadric_class(diag) == "split"


def test_sum_of_squares_class_depends_on_q():
    # x^2 + y^2 is split iff -1 is a square; x^2 + xy + y^2 iff F_4 is in F_q
    for p, m, want in [(3, 1, "nonsplit"), (3, 2, "split"), (5, 1, "split"), (7, 1, "nonsplit")]:
        ring = ring_W(p, m, 2)
        one = ring.one()
        assert quadric_class(QuadraticForm(ring, 2, {(0, 0): one, (1, 1): one})) == want
    for m, want in [(1, "nonsplit"), (2, "split"), (3, "nonsplit")]:
        field = FiniteField(2, m)
        one = field.one()
        q = QuadraticForm(field, 2, {(0, 0): one, (0, 1): one, (1, 1): one})
        assert quadric_class(q) == want


def test_nondegeneracy_invariant_under_linear_changes():
    ring = ring_W(3, 1, 2)
    S = SeriesRing(ring, 3, 4)
    rng = random.Random(11)
    from sll import linalg

    for _ in range(50):
        q = random_nondegenerate_form(ring, 3, rng)
        while True:
            C = [[ring.random_element(rng) for _ in range(3)] for _ in range(3)]
            cbar = [[ring.residue(x) for x in row] for row in C]
            if linalg.rank_field(ring.field, cbar) == 3:
                break
        qs = q.to_series(S)
        images = []
        for i in range(3):
            acc = S.zero()
            for j in range(3):
                acc = acc + S.variable(j) * S.constant(C[i][j])
            images.append(acc)
        q2 = QuadraticForm.from_series(qs.substitute(images))
        assert is_nondegenerate(q2)


def test_gram_linearity():
    ring = ring_W(5, 1, 2)
    S = SeriesRing(ring, 3, 3)
    rng = random.Random(12)
    for _ in range(20):
        q1 = random_nondegenerate_form(ring, 3, rng)
        q2 = random_nondegenerate_form(ring, 3, rng)
        G = bilinear_gram(QuadraticForm.from_series(q1.to_series(S) + q2.to_series(S)))
        G1, G2 = bilinear_gram(q1), bilinear_gram(q2)
        assert all(
            G[i][j] == G1[i][j] + G2[i][j] for i in range(3) for j in range(3)
        )


def test_quadric_class_refuses_degenerate_and_odd_nvars():
    for p in (2, 3):
        ring = ring_W(p, 1, 2)
        one = ring.one()
        with pytest.raises(PreconditionError):
            quadric_class(QuadraticForm(ring, 2, {(0, 0): ring.p_element()}))
        with pytest.raises(PreconditionError):
            quadric_class(QuadraticForm(ring, 4, {(0, 1): one, (2, 2): one}))
        with pytest.raises(PreconditionError):
            quadric_class(QuadraticForm(ring, 3, {(0, 0): one, (1, 2): one}))


def test_equal_forms_hash_equal():
    ring = ring_W(3, 2, 2)
    S = SeriesRing(ring, 3, 4)
    rng = random.Random(21)
    for _ in range(10):
        Q = random_nondegenerate_form(ring, 3, rng)
        reordered = QuadraticForm(ring, 3, dict(reversed(list(Q.upper.items()))))
        for other in (reordered, QuadraticForm.from_series(Q.to_series(S))):
            assert other == Q and hash(other) == hash(Q)


def test_forms_over_two_precisions_share_no_inverse():
    # x1^2 + 2 x1 x2 + 2 x2^2 has the same coefficient tuples over W_2(F_3)
    # and W_3(F_3); G = [[2, 2], [2, 4]] has a different inverse mod 9 and
    # mod 27, and each form gets its own ring's
    forms = [QuadraticForm(ring_W(3, 1, n), 2, {(0, 0): 1, (0, 1): 2, (1, 1): 2}) for n in (2, 3)]
    tuples = [[c.coeffs for c in Q.upper.values()] for Q in forms]
    assert tuples[0] == tuples[1]
    assert forms[0] != forms[1]
    gram_inverse.cache_clear()
    inverses = [gram_inverse(Q, Q.coeff_ring.packing) for Q in forms * 2]
    for Q, inverse in zip(forms * 2, inverses):
        X = Q.coeff_ring.packing.element_matrix(inverse)
        assert naive_mat_mul(bilinear_gram(Q), X) == linalg.identity(Q.coeff_ring, 2)
    assert inverses[0] != inverses[1] and inverses[:2] == inverses[2:]
    assert gram_inverse.cache_info().hits == 0
    # and no form is inverted in the slot ints of another ring
    with pytest.raises(DomainError):
        gram_inverse(forms[0], forms[1].coeff_ring.packing)


# n = 0: the field F_q itself
NONDEGENERACY_RINGS = [(2, 1, 0), (3, 1, 0), (2, 2, 0), (5, 1, 0), (3, 2, 0),
                       (2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 1, 3)]


@pytest.mark.parametrize("p,m,n", NONDEGENERACY_RINGS)
def test_nondegeneracy_matches_the_residue_rank(p, m, n):
    # is_nondegenerate, and the refusal of quadric_class, against the rank
    # of the Gram matrix mod p, on forms whose coefficients lie in random
    # powers of p; at p = 2 a form in an odd number of variables is
    # degenerate (an alternating form mod 2 has even rank)
    ring = FiniteField(p, m) if n == 0 else ring_W(p, m, n)
    rng = random.Random(f"nondegenerate:{p}:{m}:{n}")
    top = max(n, 1) + 1  # a coefficient lies in (p^k), k < top; p^n is zero
    verdicts = set()
    for nvars in (1, 2, 3, 4):
        for _ in range(12):
            upper = {(i, j): ring.random_element(rng) * ring.from_int(p ** rng.randrange(top))
                     for i in range(nvars) for j in range(i, nvars) if rng.random() < 0.7}
            Q = QuadraticForm(ring, nvars, upper)
            want = residue_rank_nondegenerate(Q)
            assert is_nondegenerate(Q) == want
            assert not (want and p == 2 and nvars % 2)
            verdicts.add(want)
            if nvars % 2:
                continue
            if want:
                assert quadric_class(Q) in ("split", "nonsplit")
            else:
                with pytest.raises(PreconditionError) as err:
                    quadric_class(Q)
                assert err.value.part == "quadratic"
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degenerate_mod_p_but_not_mod_p2(p):
    # x1 x2 + p x3 x4 over W_3(F_p): det G = p^2 times a unit, nonzero in
    # the ring, but G has rank 2 mod p
    ring = ring_W(p, 1, 3)
    one = ring.one()
    Q = QuadraticForm(ring, 4, {(0, 1): one, (2, 3): ring.p_element()})
    assert ring.valuation(linalg.det(ring, bilinear_gram(Q))) == 2
    assert not residue_rank_nondegenerate(Q) and not is_nondegenerate(Q)
    with pytest.raises(PreconditionError) as err:
        gram_inverse(Q, ring.packing)
    assert err.value.part == "quadratic"
    with pytest.raises(PreconditionError):
        quadric_class(Q)
