import random

import pytest

from sll import linalg
from sll.base_rings import FiniteField, WittRing
from sll.errors import DomainError


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
        for vi, gw in zip(v, linalg.mat_vec(G, w)):
            want = want + vi * gw
        assert linalg.bilinear(G, v, w, ring.zero()) == want
