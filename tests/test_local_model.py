import itertools
from collections import Counter

import pytest

from sll import linalg
from sll.base_rings import FiniteField, WittRing
from sll.deformation import nonordinary_locus, standard_display
from sll.errors import PreconditionError, ValidationError
from sll.local_model import (
    IsotropicPlane,
    chart_equation,
    enumerate_special_fiber,
    field_for_q,
    pairing_matrix,
    pairing_value,
    radical_plane,
    tangent_dimension,
)
from sll.singularity import classify_local_ring

from .oracles import (
    filter_special_fiber,
    grassmannian_isotropic_count,
    independent_rank,
    matrix_pairing,
    rank_tangent_dimension,
    reduce_mod_p,
    series_pairing_relation,
)


def test_pairing_matrix_invariants():
    ring = WittRing(FiniteField(3), 2)
    J = pairing_matrix(ring)
    for i in range(4):
        assert not J[i][i]
        for j in range(4):
            assert J[i][j] == -J[j][i]
    assert ring.valuation(linalg.det(ring, J)) == 2
    fld = ring.field
    Jbar = [[ring.residue(x) for x in row] for row in J]
    assert linalg.rank_field(fld, Jbar) == 2
    # the mod-p radical is <e1, e4>
    for k in (0, 3):
        e = [fld.one() if i == k else fld.zero() for i in range(4)]
        assert not any(linalg.mat_vec(Jbar, e))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pairing_value_matches_the_matrix_pairing_on_every_pair(q):
    field = field_for_q(q)
    vectors = list(itertools.product(field.elements(), repeat=4))
    basis = [[field.one() if i == k else field.zero() for i in range(4)] for k in range(4)]
    for w in vectors:
        # the oracle's J w, entry by entry, then v^T (J w)
        jw = [matrix_pairing(field, e, w) for e in basis]
        for v in vectors:
            want = field.zero()
            for vi, c in zip(v, jw):
                want = want + vi * c
            assert pairing_value(v, w) == want, (v, w)


def test_fiber_q2_contains_the_radical_plane():
    fiber = enumerate_special_fiber(2)
    assert radical_plane(field_for_q(2)) in fiber


@pytest.mark.parametrize("q", [2, 3])
def test_fiber_planes_are_isotropic_by_reevaluation(q):
    for plane in enumerate_special_fiber(q):
        v, w = plane.vectors()
        assert not pairing_value(v, w)
        # and every vector pair from the plane pairs to zero
        for a in (v, w):
            for b in (v, w):
                assert not pairing_value(a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fiber_count_matches_grassmannian_filter_oracle(q):
    fiber = enumerate_special_fiber(q)
    assert len(set(fiber)) == len(fiber)  # canonical forms, no duplicates
    assert len(fiber) == grassmannian_isotropic_count(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_schubert_fiber_matches_filter_and_rank_oracles(q):
    fiber = enumerate_special_fiber(q)
    assert fiber == filter_special_fiber(q)
    radical = radical_plane(field_for_q(q)).vectors()
    strata = Counter()
    for plane in fiber:
        assert tangent_dimension(plane) == rank_tangent_dimension(plane)
        # dim(L meet R) = 4 - dim(L + R)
        strata[4 - independent_rank(plane.field, plane.vectors() + radical)] += 1
    assert strata == {1: q ** 3 + 2 * q ** 2 + q, 2: 1}


def test_tangent_dimension_does_not_depend_on_the_basis():
    field = field_for_q(3)
    one, zero, two = field.one(), field.zero(), field.from_int(2)
    # the radical <e1, e4> and span(e1, e2), neither basis in echelon form
    radical = IsotropicPlane(field, ((zero, zero, zero, one), (two, zero, zero, one)))
    smooth = IsotropicPlane(field, ((one, one, zero, zero), (one, two, zero, zero)))
    assert tangent_dimension(radical) == rank_tangent_dimension(radical) == 4
    assert tangent_dimension(smooth) == rank_tangent_dimension(smooth) == 3


def test_fiber_deterministic_order():
    assert enumerate_special_fiber(3) == enumerate_special_fiber(3)


def test_tangent_dimension_of_radical_is_4():
    for q in (2, 3):
        assert tangent_dimension(radical_plane(field_for_q(q))) == 4


def test_tangent_dimension_of_a_smooth_point():
    field = field_for_q(2)
    one, zero = field.one(), field.zero()
    # span(e1, e2) is isotropic and not the radical
    plane = IsotropicPlane(field, [[one, zero, zero, zero], [zero, one, zero, zero]])
    assert tangent_dimension(plane) == 3


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_dimensions_are_3_or_4(q):
    dims = {tangent_dimension(P) for P in enumerate_special_fiber(q)}
    assert dims == {3, 4}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_singular_points_are_exactly_the_radical(q):
    singular = [P for P in enumerate_special_fiber(q) if tangent_dimension(P) == 4]
    assert singular == [radical_plane(field_for_q(q))]


def test_tangent_rejects_non_isotropic_plane():
    field = field_for_q(2)
    one, zero = field.one(), field.zero()
    plane = IsotropicPlane(field, [[zero, one, zero, zero], [zero, zero, one, zero]])
    with pytest.raises(PreconditionError):
        tangent_dimension(plane)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chart_equation_is_the_standard_quadric(p):
    ring = WittRing(FiniteField(p), 3)
    eq = chart_equation(ring)
    S = eq.parent
    t = S.variables()
    want = S.constant(ring.p_element()) + t[0] * t[3] - t[1] * t[2]
    assert eq == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_chart_equation_matches_the_series_pairing(q):
    for n in (1, 2, 3):
        ring = WittRing(field_for_q(q), n)
        want = series_pairing_relation(pairing_matrix(ring), 0, 3, (1, 2))
        assert chart_equation(ring) == want


def test_chart_mod_p_equals_the_nonordinary_determinant():
    for p in (2, 3):
        ring = WittRing(FiniteField(p), 2)
        eq = chart_equation(ring)
        reduced = reduce_mod_p(eq).truncate(3)
        assert reduced == nonordinary_locus(standard_display(ring.field))


def test_chart_classifies_as_ordinary_double_point_all_p():
    for p in (2, 3, 5):
        ring = WittRing(FiniteField(p), 3)
        cls = classify_local_ring(chart_equation(ring))
        assert cls.tag == "OrdinaryDoublePoint"
        assert cls.a_prime == ring.p_element()


def test_chart_quadratic_part_nondegenerate_including_p2():
    from sll.quadforms import QuadraticForm, is_nondegenerate

    for p in (2, 3, 5):
        ring = WittRing(FiniteField(p), 2)
        assert is_nondegenerate(QuadraticForm.from_series(chart_equation(ring)))


def test_plane_basis_is_reduced_to_echelon_form():
    field = FiniteField(3)
    one, zero, two = field.one(), field.zero(), field.element(2)
    # R = <e1, e4> spanned by e4 and 2 e1 + e4
    plane = IsotropicPlane(field, ((zero, zero, zero, one), (two, zero, zero, one)))
    assert plane == radical_plane(field)
    assert hash(plane) == hash(radical_plane(field))
    with pytest.raises(ValidationError):
        IsotropicPlane(field, ((one, zero, zero, one), (two, zero, zero, two)))


@pytest.mark.parametrize("q", [2, 3])
def test_fiber_stable_under_pairing_similitudes(q):
    field = field_for_q(q)
    one, zero = field.one(), field.zero()
    two = one + one

    def mat(rows):
        # columns are images of basis vectors
        return [[{0: zero, 1: one, 2: two, -1: -one}[x] for x in row] for row in rows]

    # ten matrices whose reductions scale the mod-p pairing by a unit and
    # preserve the radical <e1, e4>: symplectic moves on the (e2, e3)
    # block, GL2 moves inside the radical, and radical additions
    gs = [
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]]),  # e2 -> -e3, e3 -> e2
        mat([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),   # e3 -> e2 + e3
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),   # e2 -> e2 + e3
        mat([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]),   # e1 <-> e4
        mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),   # e4 -> e1 + e4
        mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),   # e2 -> e1 + e2
        mat([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),   # e3 -> e1 + e3
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]]),   # e2 -> e2 + e4
        # e2 scaled by a unit (similitude) where q > 2; a radical addition at q = 2
        mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        if q > 2 else
        mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]),   # e3 -> e3 + e4
    ]
    Jbar = [[pairing_value([one if a == i else zero for a in range(4)],
                           [one if b == j else zero for b in range(4)])
             for j in range(4)] for i in range(4)]
    fiber = set(enumerate_special_fiber(q))
    for g in gs:
        conj = linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(Jbar, g))
        lam = conj[1][2]  # psi(g e2, g e3)
        assert lam and all(
            conj[i][j] == lam * Jbar[i][j] for i in range(4) for j in range(4)
        )
        moved = {
            IsotropicPlane(field, [linalg.mat_vec(g, r) for r in plane.vectors()])
            for plane in fiber
        }
        assert moved == fiber


@pytest.mark.parametrize("q, pm", [(2, (2, 1)), (11, (11, 1)), (16, (2, 4)), (25, (5, 2)), (27, (3, 3)), (49, (7, 2))])
def test_field_for_q_factors_q(q, pm):
    field = field_for_q(q)
    assert (field.p, field.m, field.q) == (*pm, q)


# the last two have no prime factor up to the characteristic limit
@pytest.mark.parametrize("q", [0, 1, 6, 12, 100, 10 ** 14 + 31, 65537 * 65539])
def test_field_for_q_rejects_non_prime_powers(q):
    with pytest.raises(ValidationError):
        field_for_q(q)


def test_fiber_enumeration_keeps_its_size_limit():
    with pytest.raises(PreconditionError):
        enumerate_special_fiber(11)
