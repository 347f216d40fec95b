import random

import pytest

from sll import linalg
from sll.base_rings import FiniteField, WittRing
from sll.errors import DomainError
from .oracles import naive_mat_mul, naive_mat_vec


def _invertible_matrices(ring, rng, count):
    """Seeded random square matrices of sizes 1..4 that are invertible mod p."""
    if isinstance(ring, WittRing):
        field, res = ring.field, ring.residue
    else:
        field, res = ring, (lambda x: x)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        A = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        if linalg.rank_field(field, linalg.mat_map(A, res)) == n:
            out.append(A)
    return out


@pytest.mark.parametrize("ring", [
    WittRing(FiniteField(3), 2),
    WittRing(FiniteField(2, 2), 3),
    FiniteField(3, 2),
], ids=["W2(F3)", "W3(F4)", "F9"])
def test_invert_is_a_two_sided_inverse(ring):
    rng = random.Random(11)
    for A in _invertible_matrices(ring, rng, 25):
        Ainv = linalg.invert(ring, A)
        I = linalg.identity(ring, len(A))
        assert linalg.mat_eq(linalg.mat_mul(A, Ainv), I)
        assert linalg.mat_eq(linalg.mat_mul(Ainv, A), I)


def test_invert_rejects_matrices_singular_mod_p():
    ring = WittRing(FiniteField(3), 2)
    with pytest.raises(DomainError):
        linalg.invert(ring, [[ring.element(3), ring.zero()], [ring.zero(), ring.one()]])
    # determinant -3: nonzero in W_2(F_3), but not a unit
    with pytest.raises(DomainError):
        linalg.invert(ring, [[ring.one(), ring.element(2)], [ring.element(2), ring.one()]])
    field = FiniteField(3, 2)
    with pytest.raises(DomainError):
        linalg.invert(field, [[field.one(), field.element(2)], [field.element(2), field.element(4)]])


@pytest.mark.parametrize("ring", [WittRing(FiniteField(2, 2), 2), FiniteField(5)], ids=["W2(F4)", "F5"])
def test_bilinear_is_v_transpose_g_w(ring):
    rng = random.Random(3)
    for _ in range(20):
        G = [[ring.random_element(rng) if rng.random() < 0.6 else ring.zero() for _ in range(4)]
             for _ in range(4)]
        v = [ring.random_element(rng) for _ in range(4)]
        w = [ring.random_element(rng) if rng.random() < 0.6 else ring.zero() for _ in range(4)]
        want = ring.zero()
        for vi, gw in zip(v, naive_mat_vec(G, w)):
            want = want + vi * gw
        assert linalg.bilinear(G, v, w, ring.zero()) == want


# every F_q (n = 1) and W_n(F_q) of desk size, q = 2, 3, 4, 5, 7, 8, 9, and
# the two rings with the widest slots: m = MAX_DEGREE = 8 at q^n = 2^256,
# and the largest p at m = 1
PRODUCT_RINGS = [(p, m, n) for n in (1, 2, 3, 4)
                 for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
PRODUCT_RINGS += [(2, 8, 32), (65521, 1, 16)]
# (rows, inner, cols): A is rows x inner and B is inner x cols
PRODUCT_SHAPES = [(1, 1, 1), (1, 4, 4), (4, 1, 4), (4, 4, 4), (4, 8, 4), (4, 4, 8)]


def _sparse_matrix(ring, rng, rows, cols):
    """Seeded entries, about a third of them zero, and sometimes a zero row."""
    A = [[ring.random_element(rng) if rng.random() < 0.7 else ring.zero() for _ in range(cols)]
         for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        A[rng.randrange(rows)] = [ring.zero()] * cols
    return A


def _full_matrix(ring, rows, cols):
    # every coefficient at p^n - 1: the largest slot sums the kernel meets
    top = ring.element([ring.pn - 1] * (len(ring.lifted_modulus) - 1))
    return [[top] * cols for _ in range(rows)]


@pytest.mark.parametrize("p,m,n", PRODUCT_RINGS,
                         ids=[f"F{p ** m}" if n == 1 else f"W{n}(F{p ** m})" for p, m, n in PRODUCT_RINGS])
def test_packed_products_match_residue_products(p, m, n):
    ring = FiniteField(p, m) if n == 1 else WittRing(FiniteField(p, m), n)
    rng = random.Random(f"products:{p}:{m}:{n}")
    for rows, inner, cols in PRODUCT_SHAPES:
        cases = [(_full_matrix(ring, rows, inner), _full_matrix(ring, inner, cols))]
        cases += [(_sparse_matrix(ring, rng, rows, inner), _sparse_matrix(ring, rng, inner, cols))
                  for _ in range(3)]
        for A, B in cases:
            assert linalg.mat_mul(A, B) == naive_mat_mul(A, B)
            v = [row[0] for row in B]
            assert linalg.mat_vec(A, v) == naive_mat_vec(A, v)


def test_products_accept_equal_rings_and_refuse_mixed_ones():
    ring, twin = WittRing(FiniteField(3), 2), WittRing(FiniteField(3), 2)
    A = [[ring.element(k + 2 * j) for j in range(2)] for k in range(2)]
    B = [[twin.element(k + j) for j in range(2)] for k in range(2)]
    assert linalg.mat_mul(A, B) == naive_mat_mul(A, B)
    assert linalg.mat_vec(A, B[0]) == naive_mat_vec(A, B[0])
    other = WittRing(FiniteField(3), 3)
    field = FiniteField(3)
    for bad in ([other.one(), other.one()], [field.one(), field.one()],
                [ring.one(), 1], [ring.one(), B]):
        with pytest.raises(DomainError):
            linalg.mat_mul(A, [bad, B[1]])
        with pytest.raises(DomainError):
            linalg.mat_mul([bad, A[1]], B)
        with pytest.raises(DomainError):
            linalg.mat_vec(A, bad)
        with pytest.raises(DomainError):
            linalg.mat_vec([A[0], bad], B[0])
