import random

import pytest

from sll import linalg
from sll.base_rings import CoeffPacking, FiniteField, WittRing, field_for_q
from sll.dieudonne import base_change, make_standard
from sll.errors import DomainError
from sll.series import SeriesRing
from .oracles import (independent_rank, int_poly_reduce, loop_divide_exact_p, loop_invert,
                      loop_is_unit, loop_rref, loop_smith_form, loop_valuation, naive_mat_mul,
                      naive_mat_vec, power_frobenius, power_inverse)


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
        assert linalg.mat_mul(A, Ainv) == I
        assert linalg.mat_mul(Ainv, A) == I


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


def _counts_below_powers_of_two(slot_bound, keep=4):
    """Counts c with c * slot_bound just below a power of two 2^w: of the
    64 widths w above slot_bound's, the `keep` with the smallest gap
    2^w - c * slot_bound, where the fewest added units carry out of a slot."""
    low = slot_bound.bit_length() + 1
    counts = [((1 << w) - 1) // slot_bound for w in range(low, low + 64)]
    counts.sort(key=lambda c: (1 << (c * slot_bound).bit_length()) - c * slot_bound)
    return counts[:keep]


FOLD_RINGS = [(p, m, n) for p, m, n in PRODUCT_RINGS if m > 1]


@pytest.mark.parametrize("p,m,n", FOLD_RINGS,
                         ids=[f"F{p ** m}" if n == 1 else f"W{n}(F{p ** m})" for p, m, n in FOLD_RINGS])
def test_fold_holds_at_its_headroom(p, m, n):
    # the in-int fold of a packed sum, against the 2m - 1 slots reduced one
    # degree at a time, on `CoeffPacking(ring, count)`, whose slots hold
    # `count` products, with every slot at its maximum: count * m (N-1)^2
    # in each slot, or, in the top m - 1 slots that the fold multiplies in,
    # the largest value below that which is N - 1 mod N; and a real sum of
    # count products of the coefficient with every residue N - 1
    ring = FiniteField(p, m) if n == 1 else WittRing(FiniteField(p, m), n)
    g, N = ring.lifted_modulus, ring.pn
    for count in [1, 2, 3] + _counts_below_powers_of_two(ring.packing.slot_bound):
        packing = CoeffPacking(ring, count)
        full = count * packing.slot_bound
        high = full - (full + 1) % N
        width = packing.slot_width
        cases = [[full] * (2 * m - 1), [full] * m + [high] * (m - 1)]
        top = packing.reduced(ring.element([N - 1] * m))
        assert top == sum((N - 1) << (width * k) for k in range(m))
        real = count * top * top
        mask = (1 << width) - 1
        cases.append([real >> (width * k) & mask for k in range(2 * m - 1)])
        for slots in cases:
            value = sum(s << (width * k) for k, s in enumerate(slots))
            want = sum(r << (width * k) for k, r in enumerate(int_poly_reduce(slots, g, N)))
            assert packing.fold(value) == want, (count, slots)


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


@pytest.mark.parametrize("foreign", [WittRing(FiniteField(3), 3), FiniteField(3)], ids=["W3(F3)", "F3"])
def test_row_reductions_and_base_change_refuse_an_entry_from_another_ring(foreign):
    ring = WittRing(FiniteField(3), 2)
    one, two, bad = ring.one(), ring.element(2), foreign.element(2)
    # column 0 of row 1 is cleared by row 0, so every route meets the foreign entry
    A = [[two, one], [one, bad]]
    with pytest.raises(DomainError):
        linalg.rref_field(ring, A)
    with pytest.raises(DomainError):
        linalg.smith_form_local(ring, A)
    with pytest.raises(DomainError):
        linalg.invert(ring, A)
    g = linalg.identity(ring, 4)
    g[1][0], g[1][1] = one, bad
    with pytest.raises(DomainError):
        base_change(make_standard(ring, "iia"), g)
    # every entry is checked, also one that no row operation meets
    for reduce in (linalg.rref_field, linalg.rank_field, linalg.smith_form_local):
        with pytest.raises(DomainError):
            reduce(ring, [[one, bad]])


# the row-reduction grid: F_q (n = 0 below) and W_n(F_q), n = 1..4
GRID_RINGS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 25) for n in range(5)]
GRID_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 4), (4, 2), (3, 3), (4, 4), (4, 8)]


def _grid_ring(q, n):
    return field_for_q(q) if n == 0 else WittRing(field_for_q(q), n)


def _grid_matrices(ring, rng, rows, cols):
    """Seeded matrices of one shape: random entries; entries divisible by
    random powers of p, with a zero column and a column with no unit entry
    (both zero over a field); a rank-one matrix, whose entries after the
    first Smith step all have valuation n; and the zero matrix."""
    top = ring.n if isinstance(ring, WittRing) else 1

    def entry(k):  # an element divisible by p^k
        return ring.random_element(rng) * ring.from_int(ring.p ** k)

    full = [[ring.random_element(rng) for _ in range(cols)] for _ in range(rows)]
    mixed = [[entry(rng.randrange(top + 1)) for _ in range(cols)] for _ in range(rows)]
    no_unit, zero = rng.randrange(cols), rng.randrange(cols)
    for row in mixed:
        row[no_unit], row[zero] = entry(1), ring.zero()
    u = [entry(rng.randrange(top)) for _ in range(rows)]
    w = [ring.random_element(rng) for _ in range(cols)]
    rank_one = [[a * b for b in w] for a in u]
    return [full, mixed, rank_one, [[ring.zero()] * cols for _ in range(rows)]]


@pytest.mark.parametrize("q,n", GRID_RINGS,
                         ids=[f"F{q}" if n == 0 else f"W{n}(F{q})" for q, n in GRID_RINGS])
def test_row_reductions_match_the_residue_loops(q, n):
    # each reduction also leaves its input unchanged, and the rank over
    # W_n(F_q) is the rank of the residues over F_q
    ring = _grid_ring(q, n)
    rng = random.Random(f"rref:{q}:{n}")
    for rows, cols in GRID_SHAPES:
        for A in _grid_matrices(ring, rng, rows, cols):
            before = [row[:] for row in A]
            want = loop_rref(ring, A)
            assert linalg.rref_field(ring, A) == want
            assert linalg.rank_field(ring, A) == len(want[1])
            assert len(want[1]) == linalg.rank_field(ring.field, linalg.mat_map(A, ring.residue))
            if n:
                assert linalg.smith_form_local(ring, A) == loop_smith_form(ring, A)
            if rows == cols:
                try:
                    inverse = loop_invert(ring, A)
                except DomainError:
                    with pytest.raises(DomainError):
                        linalg.invert(ring, A)
                else:
                    assert linalg.invert(ring, A) == inverse
            assert A == before


# invertibility decided three ways: the grid's fields at n = 1..3 and two large rings
UNIT_RINGS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 25) for n in (1, 2, 3)]
UNIT_RINGS += [(65521, 16), (256, 30)]


@pytest.mark.parametrize("q,n", UNIT_RINGS, ids=[f"W{n}(F{q})" for q, n in UNIT_RINGS])
def test_full_rank_mod_p_is_invertibility_and_a_unit_determinant(q, n):
    # rank_field == 4 <=> invert succeeds <=> det is a unit, on random 4x4
    # matrices and on matrices singular mod p (one row repeated plus p times
    # noise); and is_unit(x) <=> x is nonzero mod p
    ring = WittRing(field_for_q(q), n)
    rng = random.Random(f"invertibility:{q}:{n}")
    p = ring.p_element()
    outcomes = set()
    for _ in range(20):
        A = [[ring.random_element(rng) for _ in range(4)] for _ in range(4)]
        i, j = rng.sample(range(4), 2)
        singular = [row[:] for row in A]
        singular[j] = [x + p * ring.random_element(rng) for x in A[i]]
        for M in (A, singular):
            full = linalg.rank_field(ring, M) == 4
            try:
                linalg.invert(ring, M)
            except DomainError:
                inverted = False
            else:
                inverted = True
            assert full == inverted == ring.is_unit(linalg.det(ring, M)), (q, n)
            outcomes.add(full)
    assert outcomes == {True, False}
    xs = [ring.random_element(rng) for _ in range(40)] + [p * ring.random_element(rng)
                                                          for _ in range(10)]
    assert {ring.is_unit(x) for x in xs} == {True, False}
    for x in xs:
        assert ring.is_unit(x) == bool(ring.residue(x)), (q, n)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 4), (3, 2), (4, 3), (5, 2), (9, 3), (25, 2)])
def test_smith_form_diagonalizes(q, n):
    # U A V = diag(p^v), v non-decreasing, with U and V invertible mod p
    ring = WittRing(field_for_q(q), n)
    rng = random.Random(f"smith:{q}:{n}")
    zero_blocks = 0
    for rows, cols in GRID_SHAPES:
        for A in _grid_matrices(ring, rng, rows, cols):
            vals, U, V = linalg.smith_form_local(ring, A)
            assert len(vals) == min(rows, cols) and vals == sorted(vals) and vals[-1] <= n
            diag = [[ring.from_int(ring.p ** vals[i]) if i == j else ring.zero()
                     for j in range(cols)] for i in range(rows)]
            assert naive_mat_mul(naive_mat_mul(U, A), V) == diag
            for T in (U, V):
                assert independent_rank(ring.field, linalg.mat_map(T, ring.residue)) == len(T)
            zero_blocks += n in vals
    assert zero_blocks >= len(GRID_SHAPES)


def test_products_and_inverses_refuse_mismatched_dimensions():
    # a product whose inner dimensions differ or whose operand is ragged,
    # and the inverse of a matrix that is not square, are refused rather
    # than computed on the rows that happen to zip
    ring = WittRing(FiniteField(3), 2)
    e = ring.element
    for A, B in (([[e(1), e(2)]], [[e(1)], [e(2)], [e(3)]]),
                 ([[e(1), e(2), e(3)]], [[e(1)], [e(2)]]),
                 ([[e(1), e(2)]], [[e(1), e(2)], [e(3)]]),
                 ([[e(1), e(2)], [e(1)]], [[e(1)], [e(2)]])):
        with pytest.raises(DomainError):
            linalg.mat_mul(A, B)
    for A, v in (([[e(1), e(2)]], [e(1), e(2), e(3)]), ([[e(1), e(2), e(3)]], [e(1), e(2)]),
                 ([[e(1), e(2)], [e(1)]], [e(1), e(2)])):
        with pytest.raises(DomainError):
            linalg.mat_vec(A, v)
    rng = random.Random("not-square")
    for rows, cols in ((3, 4), (4, 3), (1, 2)):
        with pytest.raises(DomainError):
            linalg.invert(ring, [[ring.random_element(rng) for _ in range(cols)] for _ in range(rows)])
    with pytest.raises(DomainError):
        linalg.invert(ring, [[e(1), e(0)], [e(0)]])


_RAGGED_RING = WittRing(FiniteField(3), 2)
_e = _RAGGED_RING.element


@pytest.mark.parametrize("call", [
    lambda: linalg.rank_field(_RAGGED_RING, [[_e(1)], [_e(0), _e(1)]]),
    lambda: linalg.rref_field(_RAGGED_RING, [[_e(1)], [_e(0), _e(1)]]),
    lambda: linalg.smith_form_local(_RAGGED_RING, [[_e(1)], [_e(0), _e(1)]]),
    lambda: linalg.rank_field(_RAGGED_RING, [[_e(1), _e(0)], [_e(0)]]),
    lambda: linalg.rref_field(_RAGGED_RING, [[_e(1), _e(0)], [_e(0)]]),
    lambda: linalg.smith_form_local(_RAGGED_RING, [[_e(1), _e(0)], [_e(0)]]),
    lambda: linalg.smith_form_local(_RAGGED_RING, []),
    lambda: linalg.rank_field(_RAGGED_RING, [[]]),
    lambda: linalg.invert(_RAGGED_RING, []),
    lambda: linalg.mat_mul([], []),
    lambda: linalg.mat_vec([[_e(1)]], []),
], ids=["rank-short-first", "rref-short-first", "smith-short-first", "rank-short-last",
        "rref-short-last", "smith-short-last", "smith-empty", "rank-no-columns",
        "invert-empty", "mul-empty", "vec-empty"])
def test_ragged_and_empty_matrices_are_refused(call):
    # a matrix with no entry, or rows of unequal length, is a DomainError,
    # not a rank read off the rows that happen to zip, nor an IndexError
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("p,m,n", [(2, 2, 1), (3, 2, 1), (2, 2, 3), (2, 8, 32)],
                         ids=["F4", "F9", "W3(F4)", "W32(F256)"])
def test_products_are_exact_up_to_the_width_bound_and_refused_beyond(p, m, n):
    # at m > 1 the ring's packing holds a sum of 64 products: every entry
    # at N - 1 at inner dimension 64 matches the Residue sums, and 65 is
    # refused; a series ring's packing holds its own count of products,
    # comb(D - 1 + nvars, nvars) = 10 at D = 3 in three variables, and
    # refuses an inner dimension above it
    ring = FiniteField(p, m) if n == 1 else WittRing(FiniteField(p, m), n)
    for inner in (63, 64):
        A, B = _full_matrix(ring, 2, inner), _full_matrix(ring, inner, 2)
        assert linalg.mat_mul(A, B) == naive_mat_mul(A, B)
        assert linalg.mat_vec(A, [row[0] for row in B]) == naive_mat_vec(A, [row[0] for row in B])
    with pytest.raises(DomainError):
        linalg.mat_mul(_full_matrix(ring, 2, 65), _full_matrix(ring, 65, 2))
    with pytest.raises(DomainError):
        linalg.mat_vec(_full_matrix(ring, 1, 65), [ring.one()] * 65)
    packing = SeriesRing(ring, 3, 3)._packing.coeff
    assert packing.count == 10
    A, B = _full_matrix(ring, 2, 10), _full_matrix(ring, 10, 2)
    got = packing.mat_mul(packing.reduced_matrix(A), packing.reduced_matrix(B))
    assert packing.element_matrix(got) == naive_mat_mul(A, B)
    with pytest.raises(DomainError, match="above the limit 10"):
        packing.mat_mul(packing.reduced_matrix(_full_matrix(ring, 2, 11)),
                        packing.reduced_matrix(_full_matrix(ring, 11, 2)))



@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (65521, 1), (65521, 16)],
                         ids=["F2", "W2(F3)", "F65521", "W16(F65521)"])
def test_products_at_m_1_are_exact_at_any_inner_dimension(p, n):
    # at m = 1 the fold is the sum mod N, so no width bound applies: every
    # entry at N - 1 and seeded entries beyond inner dimension 64 match the
    # Residue sums
    ring = FiniteField(p) if n == 1 else WittRing(FiniteField(p), n)
    rng = random.Random(f"m1-products:{p}:{n}")
    for inner in (65, 200):
        for A, B in ((_full_matrix(ring, 2, inner), _full_matrix(ring, inner, 2)),
                     (_sparse_matrix(ring, rng, 3, inner), _sparse_matrix(ring, rng, inner, 2))):
            assert linalg.mat_mul(A, B) == naive_mat_mul(A, B)
            v = [row[0] for row in B]
            assert linalg.mat_vec(A, v) == naive_mat_vec(A, v)

# the slot-int grid: m = 1, 2, 3 and 8; p = 2, where a slot mod N is a mask,
# and odd p; fields (N = p, the least headroom) and Witt rings up to W_32(F_256)
SLOT_RINGS = [(5, 1, 3), (3, 1, 1), (2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 2), (2, 8, 32)]


def _slot_elements(ring, rng):
    """Every residue at N - 1 (the largest products, which the subtraction
    offset and the fold headroom must hold), N - 1, zero, one, elements
    divisible by random powers of p, and random elements."""
    top = ring.element([ring.pn - 1] * (len(ring.lifted_modulus) - 1))
    xs = [top, ring.element(ring.pn - 1), ring.zero(), ring.one()]
    xs += [ring.random_element(rng) * ring.from_int(ring.p ** rng.randrange(ring.n)) for _ in range(4)]
    return xs + [ring.random_element(rng) for _ in range(8)]


@pytest.mark.parametrize("p,m,n", SLOT_RINGS,
                         ids=[f"F{p ** m}" if n == 1 else f"W{n}(F{p ** m})" for p, m, n in SLOT_RINGS])
def test_slot_int_ops_match_the_residue_routes(p, m, n):
    # each CoeffPacking op on slot ints against its Residue route: the
    # entry ops against the loop and power oracles, the row operations
    # and products against Residue sums and products, and the row
    # reductions built on them against the Residue loops
    ring = FiniteField(p, m) if n == 1 else WittRing(FiniteField(p, m), n)
    packing = ring.packing
    red = packing.reduced
    xs = _slot_elements(ring, random.Random(f"slots:{p}:{m}:{n}"))
    rs = [red(x) for x in xs]
    assert [packing.element(r) for r in rs] == xs
    for x, r in zip(xs, rs):
        v = loop_valuation(ring, x)
        assert packing.valuation(r) == v and packing.is_unit(r) == loop_is_unit(ring, x), x
        for k in range(v + 1):
            assert packing.divide(r, k) == red(loop_divide_exact_p(ring, x, k)), (x, k)
        if v == 0:
            assert packing.inverse(r) == red(power_inverse(ring, x)), x
        assert packing.frobenius([[r]]) == [[red(power_frobenius(ring, x))]], x
        assert packing.frobenius([[r]], inverse=True) == [[red(power_frobenius(ring, x, m - 1))]], x
    for f, x in zip(rs, xs):
        assert packing.scale(f, rs) == [red(y) for y in naive_mat_mul([[x]], [xs])[0]], x
        assert packing.submul(rs, f, rs[::-1]) == [red(a - x * b) for a, b in zip(xs, xs[::-1])], x
    A, B = [xs[:4], xs[4:8], xs[8:12], xs[12:]], [xs[::-4], xs[1::4], xs[2::4], xs[3::4]]
    full = [[xs[0]] * 4 for _ in range(4)]
    for P, Q in ((A, B), (full, full), (full, A)):
        assert packing.mat_mul(packing.reduced_matrix(P), packing.reduced_matrix(Q)) == \
            packing.reduced_matrix(naive_mat_mul(P, Q))
    for M in (A, B, full, [xs[:3] + [xs[0]], xs[4:8], [xs[0]] * 4, xs[12:]]):
        assert linalg.rref_field(ring, M) == loop_rref(ring, M)
        if n > 1:
            assert linalg.smith_form_local(ring, M) == loop_smith_form(ring, M)
        try:
            inverse = loop_invert(ring, M)
        except DomainError:
            with pytest.raises(DomainError):
                linalg.invert(ring, M)
        else:
            assert linalg.invert(ring, M) == inverse
