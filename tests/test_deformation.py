import itertools
import random

import pytest

from sll import linalg
from sll.base_rings import FiniteField, WittRing
from sll.deformation import (
    HodgeFrame,
    classify_point,
    deformation_equation,
    nonordinary_locus,
    pairing_relation,
    relation_ring,
    standard_display,
    standard_frame,
)
from sll.dieudonne import DieudonneModule, base_change, make_standard
from sll.errors import PreconditionError
from sll.local_model import chart_equation
from sll.series import SeriesRing

from .oracles import reduce_mod_p, series_pairing_relation, stacked_rank_frame_error
from .test_dieudonne import _fixtures_at, _seeded_base_changes


def ring_W(p, m, n):
    return WittRing(FiniteField(p, m), n)


def expected_iib_relation(ring):
    S = relation_ring(ring)
    t = S.variables()
    return S.constant(ring.p_element()) + t[0] * t[3] - t[1] * t[2]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_iib_relation_is_exact(p, n, m):
    # q = p^m runs over 2, 3, 4, 5, 9 and 25; the local-model chart at
    # <e1, e4> is the same relation
    ring = ring_W(p, m, n)
    module = make_standard(ring, "iib")
    rel = deformation_equation(standard_frame(module))
    assert rel == expected_iib_relation(ring)
    assert chart_equation(ring) == rel


def test_lagrangian_relation():
    ring = ring_W(3, 1, 3)
    module = make_standard(ring, "lagrangian_generic")
    rel = deformation_equation(standard_frame(module))
    S = rel.parent
    t = S.variables()
    want = t[1] * S.constant(ring.p_element()) - t[2]  # -t21 + p t12
    assert rel == want
    assert classify_point(standard_frame(module)).tag == "Smooth"


def test_iia_relation_has_unit_linear_coefficient():
    ring = ring_W(3, 1, 3)
    module = make_standard(ring, "iia")
    rel = deformation_equation(standard_frame(module))
    lin = rel.linear_coefficients()
    assert any(ring.is_unit(c) for c in lin)
    assert classify_point(standard_frame(module)).tag == "Smooth"


@pytest.mark.parametrize("p", [3, 5])
def test_iib_classification_digit_exact(p):
    ring = ring_W(p, 1, 3)
    module = make_standard(ring, "iib")
    cls = classify_point(standard_frame(module))
    assert cls.tag == "OrdinaryDoublePoint"
    assert cls.valuation == 1
    assert ring.digits(cls.a_prime)[:3] == ring.digits(ring.p_element())[:3]


def test_alternating_consistency():
    # <Y1~, Y1~> with the same variable row on both sides is identically 0
    ring = ring_W(3, 1, 2)
    for case in ("iia", "iib", "ordinary", "lagrangian_generic"):
        module = make_standard(ring, case)
        frame = standard_frame(module)
        sring = relation_ring(ring)
        t = sring.variables()
        # Y1~ = e_Y1 + t11 X1 + t12 X2, paired with itself term by term
        y1 = [sring.zero()] * 4
        y1[frame.Y_indices[0]] = sring.one()
        for x, tk in zip(frame.X_indices, t[:2]):
            y1[x] = y1[x] + tk
        rel = sring.zero()
        for i, row in enumerate(module.J):
            for j, c in enumerate(row):
                rel = rel + sring.constant(c) * y1[i] * y1[j]
        assert not rel


def test_x_swap_permutes_variables():
    ring = ring_W(3, 1, 2)
    module = make_standard(ring, "iib")
    frame = HodgeFrame(module, (2, 3), (0, 1))
    swapped = HodgeFrame(module, (2, 3), (1, 0))
    rel = deformation_equation(frame)
    rel_swapped = deformation_equation(swapped)
    # swapping (X1, X2) exchanges t11 <-> t12 and t21 <-> t22
    assert rel_swapped.parent == rel.parent
    assert rel_swapped.coeffs == {(e[1], e[0], e[3], e[2]): c for e, c in rel.coeffs.items()}


def test_classification_stable_under_X_complement_changes():
    ring = ring_W(3, 1, 3)
    module = make_standard(ring, "iib")
    rng = random.Random(0)
    for _ in range(25):
        # new X's = unimodular mix of old X's plus arbitrary Y-components
        while True:
            U = [[ring.random_element(rng) for _ in range(2)] for _ in range(2)]
            ubar = [[ring.residue(x) for x in row] for row in U]
            if linalg.rank_field(ring.field, ubar) == 2:
                break
        C = [[ring.random_element(rng) for _ in range(2)] for _ in range(2)]
        g = [
            [U[0][0], U[0][1], ring.zero(), ring.zero()],
            [U[1][0], U[1][1], ring.zero(), ring.zero()],
            [C[0][0], C[0][1], ring.one(), ring.zero()],
            [C[1][0], C[1][1], ring.zero(), ring.one()],
        ]
        # columns are the new basis vectors: X's mix, Y's stay
        other = base_change(module, g)
        cls = classify_point(standard_frame(other))
        assert cls.tag == "OrdinaryDoublePoint"
        assert cls.valuation == 1


def test_frame_invariant_rejects_wrong_hodge_indices():
    ring = ring_W(2, 1, 2)
    module = make_standard(ring, "iib")
    with pytest.raises(PreconditionError):
        HodgeFrame(module, (0, 1), (2, 3))  # X's do not span VM/pM
    with pytest.raises(PreconditionError):
        HodgeFrame(module, (0, 0), (2, 3))


# the 12 ordered Y pairs, each with both orders of its X complement
FRAMES = [((y1, y2), x) for y1, y2 in itertools.permutations(range(4), 2)
          for x in itertools.permutations(sorted({0, 1, 2, 3} - {y1, y2}))]


def _frame_modules(q, n):
    """Every fixture over W_n(F_q), its two seeded base changes, and a
    seeded permutation of its basis, which moves the valid Y slots."""
    out = []
    for case, fixture in _fixtures_at(q, n):
        ring = fixture.ring
        rng = random.Random(f"frames-{case}-{q}-{n}")
        order = list(range(4))
        rng.shuffle(order)
        perm = [[ring.from_int(int(i == order[j])) for j in range(4)] for i in range(4)]
        out += [fixture, base_change(fixture, perm)]
        out += [base_change(fixture, g) for g in _seeded_base_changes(ring, rng)]
    return out


GRID = [(q, n) for q in (2, 3, 4) for n in (2, 3)]


@pytest.mark.parametrize("q,n", GRID)
def test_pairing_relation_matches_the_series_pairing(q, n):
    valid = 0
    for module in _frame_modules(q, n):
        for (y1, y2), x in FRAMES:
            want = series_pairing_relation(module.J, y1, y2, x)
            assert pairing_relation(module.J, y1, y2, x) == want, (y1, y2, x)
            if stacked_rank_frame_error(module, (y1, y2), x) is None:
                assert deformation_equation(HodgeFrame(module, (y1, y2), x)) == want
                valid += 1
    assert valid


def _low_rank_modules(ring, rng):
    """Modules with F = J = 1 and V of rank <= 2 mod p, their image spanned by
    coordinate vectors, random vectors, or a mix; V = 1 and V = p."""
    p = ring.p_element()
    one = [[ring.from_int(int(i == j)) for j in range(4)] for i in range(4)]
    out = [DieudonneModule(ring, one, one, one),
           DieudonneModule(ring, one, [[p * x for x in row] for row in one], one)]
    for _ in range(12):
        cols = [one[rng.randrange(4)] if rng.random() < 0.6
                else [ring.random_element(rng) for _ in range(4)] for _ in range(2)]
        mix = [[ring.random_element(rng) for _ in range(4)] for _ in range(2)]
        V = [[cols[0][i] * mix[0][j] + cols[1][i] * mix[1][j] for j in range(4)]
             for i in range(4)]
        out.append(DieudonneModule(ring, one, V, one))
    return out


@pytest.mark.parametrize("q,n", GRID)
def test_hodge_frame_verdict_matches_the_stacked_rank(q, n):
    modules = _frame_modules(q, n)
    modules += _low_rank_modules(modules[0].ring, random.Random(f"low-rank-{q}-{n}"))
    verdicts = set()
    for module in modules:
        for Y, X in FRAMES:
            want = stacked_rank_frame_error(module, Y, X)
            verdicts.add(want)
            if want is None:
                HodgeFrame(module, Y, X)
            else:
                with pytest.raises(PreconditionError) as err:
                    HodgeFrame(module, Y, X)
                assert str(err.value) == want
    assert len(verdicts) == 3  # accepted, wrong rank, wrong Y slots


def test_display_tangent_frobenius_and_determinant():
    field = FiniteField(3)
    disp = standard_display(field)
    T = disp.entries
    S = disp.ring
    t = S.variables()
    assert T[0][0] == t[0] and T[0][1] == t[1]
    assert T[1][0] == t[2] and T[1][1] == t[3]
    det = nonordinary_locus(disp)
    assert det == t[0] * t[3] - t[1] * t[2]


def test_display_zero_and_specializations():
    field = FiniteField(2)
    S = SeriesRing(field, 4, 3, ("t11", "t12", "t21", "t22"))
    from sll.deformation import DisplayRelations

    zero_disp = DisplayRelations(S, [[S.zero(), S.zero()], [S.zero(), S.zero()]])
    assert not nonordinary_locus(zero_disp)  # supersingular base point
    det = nonordinary_locus(standard_display(field))
    # t11*t22 - t12*t21: 1 in the ordinary direction t11 = t22 = 1, 0 at
    # t12 = 1, and the coefficients pin every other value
    assert det.coeffs == {(1, 0, 0, 1): field.one(), (0, 1, 1, 0): -field.one()}


def test_malformed_display_rejected():
    field = FiniteField(2)
    S = SeriesRing(field, 4, 3, ("t11", "t12", "t21", "t22"))
    from sll.deformation import DisplayRelations

    with pytest.raises(PreconditionError):
        DisplayRelations(S, [[S.one(), S.zero()], [S.zero(), S.zero()]])
    with pytest.raises(PreconditionError):
        t = S.variables()
        DisplayRelations(S, [[t[0] * t[1], S.zero()], [S.zero(), S.zero()]])
    with pytest.raises(PreconditionError):
        DisplayRelations(S, [[S.zero(), S.zero()]])


def test_relation_mod_p_matches_the_tangent_determinant():
    # the crystalline relation reduced mod p and truncated matches the
    # equicharacteristic non-ordinary determinant
    for p in (2, 3, 5):
        ring = ring_W(p, 1, 2)
        module = make_standard(ring, "iib")
        rel = deformation_equation(standard_frame(module))
        reduced = reduce_mod_p(rel).truncate(3)
        det = nonordinary_locus(standard_display(ring.field))
        assert reduced == det
