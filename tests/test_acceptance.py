"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance is exact equality over the stated rings.
"""

import random
from contextlib import contextmanager

from sll.base_rings import FiniteField, WittRing
from sll.deformation import (
    classify_point,
    deformation_equation,
    nonordinary_locus,
    relation_ring,
    standard_display,
    standard_frame,
)
from sll.dieudonne import a_number, kernel_type, make_standard, p_rank
from sll.local_model import (
    chart_equation,
    enumerate_special_fiber,
    field_for_q,
    radical_plane,
    tangent_dimension,
)
from sll.quadforms import QuadraticForm, is_nondegenerate
from sll.series import SeriesRing
from sll.singularity import classify_local_ring, kill_linear_term, normal_form

from .oracles import (
    ghost_product_digits,
    ghost_sum_digits,
    grassmannian_isotropic_count,
    reduce_mod_p,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({title}): PASS")


def ring_grid():
    for p in (2, 3, 5):
        for n in (2, 3):
            for m in (1, 2):
                yield WittRing(FiniteField(p, m), n)


def test_criterion_01_deformation_relation_exact():
    with criterion(1, "superspecial deformation relation, exact"):
        for ring in ring_grid():
            module = make_standard(ring, "iib")
            rel = deformation_equation(standard_frame(module))
            S = relation_ring(ring)
            t = S.variables()
            want = S.constant(ring.p_element()) + t[0] * t[3] - t[1] * t[2]
            assert rel == want, ring


def test_criterion_02_lagrangian_relation_and_smoothness():
    with criterion(2, "Lagrangian relation -t21 + p t12, Smooth"):
        for ring in ring_grid():
            module = make_standard(ring, "lagrangian_generic")
            rel = deformation_equation(standard_frame(module))
            S = rel.parent
            t = S.variables()
            want = t[1] * S.constant(ring.p_element()) - t[2]
            assert rel == want, ring
            assert classify_point(standard_frame(module)).tag == "Smooth"


def test_criterion_03_double_point_type_with_digit_equality():
    with criterion(3, "ordinary double point type, digits exact"):
        for p in (3, 5):
            ring = WittRing(FiniteField(p), 3)
            cls = classify_point(standard_frame(make_standard(ring, "iib")))
            assert cls.tag == "OrdinaryDoublePoint"
            assert ring.digits(cls.a_prime)[:3] == ring.digits(ring.p_element())[:3]
        # p = 2 goes through the chart route
        ring2 = WittRing(FiniteField(2), 3)
        cls2 = classify_local_ring(chart_equation(ring2))
        assert cls2.tag == "OrdinaryDoublePoint"
        assert cls2.a_prime == ring2.p_element()


def test_criterion_04_kernel_dichotomy():
    with criterion(4, "kernel dichotomy AlphaSquare / NonAlphaSquare"):
        for ring in ring_grid():
            assert kernel_type(make_standard(ring, "iib")) == "AlphaSquare", ring
            assert kernel_type(make_standard(ring, "iia")) == "NonAlphaSquare", ring


def test_criterion_05_invariant_table():
    with criterion(5, "(a-number, p-rank) table"):
        for ring in ring_grid():
            table = {
                "iia": (2, 0),
                "iib": (2, 0),
                "ordinary": (0, 2),
                "mixed": (1, 1),
            }
            for case, (a, f) in table.items():
                module = make_standard(ring, case)
                assert (a_number(module), p_rank(module)) == (a, f), (ring, case)


def _random_eq21_input(S, rng):
    ring = S.coeff_ring
    n = S.nvars
    pe = ring.p_element()
    p2 = pe * pe
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
        quad = S.from_terms(terms)
        if is_nondegenerate(QuadraticForm.from_series(quad)):
            break
    f = S.constant(pe * ring.random_element(rng)) + quad
    for i in range(n):
        f = f + S.variable(i) * S.constant(p2 * ring.random_element(rng))
    for _ in range(8):
        e = tuple(rng.randrange(0, S.degree) for _ in range(n))
        if 3 <= sum(e) < S.degree:
            f = f + S.from_terms([(e, ring.random_element(rng))])
    return f


def test_criterion_06_normal_form_certificates():
    with criterion(6, "normal-form certificates, 50 per ring, zero failures"):
        for ring in (WittRing(FiniteField(2), 3), WittRing(FiniteField(3, 2), 2)):
            S = SeriesRing(ring, 4, 6)
            rng = random.Random(ring.p * 31 + ring.n)
            for _ in range(50):
                f = _random_eq21_input(S, rng)
                nf = normal_form(f)
                lhs = f.substitute(nf.phi)
                rhs = nf.unit * (S.constant(nf.a_prime) + nf.q_prime.to_series(S))
                assert lhs == rhs
                k = min(3, ring.n)
                assert ring.digits(nf.a_prime)[:k] == ring.digits(f.constant_term())[:k]


def test_criterion_07_bootstrap_refinement():
    with criterion(7, "constant-term bootstrap mod p^2r"):
        ring = WittRing(FiniteField(3), 3)
        S = SeriesRing(ring, 4, 6)
        rng = random.Random(7)
        pe = ring.p_element()
        for r in (1, 2):
            scale = pe if r == 1 else pe * pe
            for _ in range(25):
                x = S.variables()
                f = S.constant(pe * ring.random_element(rng))
                f = f + x[0] * x[3] - x[1] * x[2]
                for i in range(4):
                    f = f + x[i] * S.constant(scale * ring.random_element(rng))
                b, shifted = kill_linear_term(f)
                diff = shifted.constant_term() - f.constant_term()
                assert ring.valuation(diff) >= min(2 * r, ring.n)
                if 2 * r >= ring.n:
                    assert shifted.constant_term() == f.constant_term()


def test_criterion_08_nonordinary_determinant():
    with criterion(8, "tangent determinant equals chart mod p"):
        for p in (2, 3, 5):
            field = FiniteField(p)
            det = nonordinary_locus(standard_display(field))
            S = det.parent
            t = S.variables()
            assert det == t[0] * t[3] - t[1] * t[2]
            ring = WittRing(field, 2)
            chart = chart_equation(ring)
            assert reduce_mod_p(chart).truncate(3) == det


def test_criterion_09_local_model_geometry():
    with criterion(9, "special fiber: counts, tangents, singular locus"):
        for q in (2, 3, 4):
            fiber = enumerate_special_fiber(q)
            assert len(fiber) == grassmannian_isotropic_count(q)
            rad = radical_plane(field_for_q(q))
            assert [P for P in fiber if tangent_dimension(P) == 4] == [rad]
            for plane in fiber:
                want = 4 if plane == rad else 3
                assert tangent_dimension(plane) == want


def test_criterion_10_ghost_oracle_agreement():
    with criterion(10, "ghost-component oracle agreement"):
        for p in (2, 3):
            ring = WittRing(FiniteField(p), 2)
            elements = list(ring.elements())
            for a in elements:
                for b in elements:
                    assert ring.digits(a + b) == ghost_sum_digits(a, b)
                    assert ring.digits(a * b) == ghost_product_digits(a, b)
        for ring in (WittRing(FiniteField(5), 3), WittRing(FiniteField(3, 2), 2)):
            rng = random.Random(10 + ring.p)
            for _ in range(10_000):
                a, b = ring.random_element(rng), ring.random_element(rng)
                assert ring.digits(a + b) == ghost_sum_digits(a, b)
                assert ring.digits(a * b) == ghost_product_digits(a, b)
