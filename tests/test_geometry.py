import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mcycle.arith import QuadVal, as_quadval
from mcycle.errors import DegenerateConfiguration, LineOnConic
from mcycle.geometry import (
    Conic,
    ProjLine,
    ProjPoint,
    conic_line_meet,
    conic_through_5,
    incident,
    is_tangent,
    line_through,
    restriction_discriminant,
)

CIRCLE = Conic((1, 1, -1, 0, 0, 0))

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_hash_agrees_with_projective_equality():
    assert len({ProjLine((1, 2, 3)), ProjLine((2, 4, 6))}) == 1
    assert len({ProjLine((1, 2, 3)), ProjLine((1, 2, 4))}) == 2
    s = QuadVal.sqrt_rat(2)
    assert len({Conic((1, 2, 3, 0, 0, -1)), Conic((s, 2 * s, 3 * s, 0, 0, -s)),
                Conic((0, 0, 0, 1, 0, 0))}) == 2
    assert len({ProjPoint((0, 2, 4)), ProjPoint((0, F(-1, 3), F(-2, 3)))}) == 1


def test_projective_equality_up_to_scale():
    assert ProjPoint((1, 2, 3)) == ProjPoint((F(1, 2), 1, F(3, 2)))
    assert ProjPoint((1, 0, 0)) != ProjPoint((0, 1, 0))
    assert ProjLine((2, 4, 6)) == ProjLine((1, 2, 3))


def test_conic_through_5_circle():
    pts = [
        ProjPoint((1, 0, 1)),
        ProjPoint((-1, 0, 1)),
        ProjPoint((0, 1, 1)),
        ProjPoint((0, -1, 1)),
        ProjPoint((F(3, 5), F(4, 5), 1)),
    ]
    c = conic_through_5(pts)
    assert c == CIRCLE
    for p in pts:
        assert c.eval_at(p).is_zero()


def test_conic_through_5_degenerate():
    pts = [ProjPoint((i, 0, 1)) for i in range(4)] + [ProjPoint((0, 1, 1))]
    with pytest.raises(DegenerateConfiguration):
        conic_through_5(pts)


def test_conic_through_5_repeated_point():
    pts = [
        ProjPoint((1, 0, 1)), ProjPoint((2, 0, 1)), ProjPoint((2, 0, 1)),
        ProjPoint((0, 1, 1)), ProjPoint((0, 2, 1)),
    ]
    with pytest.raises(DegenerateConfiguration):
        conic_through_5(pts)


@given(
    data=st.lists(st.tuples(rationals, rationals), min_size=5, max_size=5,
                  unique=True),
    scale=rationals.filter(lambda x: x != 0),
)
@settings(max_examples=60, deadline=None)
def test_conic_incidence_forced_and_scale_covariant(data, scale):
    pts = [ProjPoint((x, y, 1)) for x, y in data]
    try:
        c = conic_through_5(pts)
    except DegenerateConfiguration:
        return
    for p in pts:
        assert c.eval_at(p).is_zero()
    scaled = [ProjPoint((x * scale, y * scale, scale)) for x, y in data[:1]] + pts[1:]
    assert conic_through_5(scaled) == c


class TestConicLineMeet:
    def test_no_real_intersection_flags_complex(self):
        p1, p2 = conic_line_meet(CIRCLE, ProjLine((0, 0, 1)))
        assert p1.is_complex and p2.is_complex
        expected = {ProjPoint((1, QuadVal(0, 1, -1), 0)),
                    ProjPoint((1, QuadVal(0, -1, -1), 0))}
        assert {p1, p2} == expected

    def test_direct_solve(self):
        p1, p2 = conic_line_meet(CIRCLE, ProjLine((0, 1, 0)))
        assert {p1, p2} == {ProjPoint((1, 0, 1)), ProjPoint((-1, 0, 1))}

    def test_tangent_coincident(self):
        # x^2 - yz tangent to y = 0 at [0,0,1]
        par = Conic((1, 0, 0, 0, 0, -1))
        p1, p2 = conic_line_meet(par, ProjLine((0, 1, 0)))
        assert p1 == p2 == ProjPoint((0, 0, 1))

    def test_line_on_conic(self):
        degenerate = Conic((0, 0, 0, 1, 0, 0))  # xy = 0
        with pytest.raises(LineOnConic):
            conic_line_meet(degenerate, ProjLine((1, 0, 0)))
        with pytest.raises(LineOnConic):
            is_tangent(degenerate, ProjLine((1, 0, 0)))

    @given(
        cs=st.tuples(*(rationals for _ in range(6))),
        ls=st.tuples(rationals, rationals, rationals),
    )
    @settings(max_examples=500, deadline=None)
    def test_tangency_iff_coincident_and_conjugacy(self, cs, ls):
        if all(c == 0 for c in cs) or all(c == 0 for c in ls):
            return
        c = Conic(cs)
        l = ProjLine(ls)
        try:
            p1, p2 = conic_line_meet(c, l)
            disc = restriction_discriminant(c, l)
        except LineOnConic:
            return
        assert is_tangent(c, l) == (p1 == p2)
        assert disc.is_zero() == (p1 == p2)
        for p in (p1, p2):
            assert c.eval_at(p).is_zero()
            assert incident(p, l)
        # Galois conjugacy when the discriminant is not a rational square
        if not p1.is_complex and not disc.is_zero() and not p1.coords[0].is_rational:
            u = p1.canonical().coords
            v = p2.canonical().coords
            assert all(a == b.conjugate() for a, b in zip(u, v))


class TestIsTangent:
    def test_parabola_tangent(self):
        assert is_tangent(Conic((1, 0, 0, 0, 0, -1)), ProjLine((0, 1, 0)))

    def test_secant(self):
        assert not is_tangent(CIRCLE, ProjLine((1, 0, -2)))

    def test_restriction_disc_matches_l6(self):
        # for z = 0 the restriction discriminant is p4^2 - 4 p1 p2
        c = Conic((2, 3, 5, 7, 11, 13))
        d = restriction_discriminant(c, ProjLine((0, 0, 1)))
        assert d == as_quadval(7 * 7 - 4 * 2 * 3)


class TestIncident:
    def test_q13_on_h4_line_any_params(self):
        rng = random.Random(3)
        for _ in range(50):
            a1 = F(rng.randint(2, 40), rng.randint(1, 7))
            a3 = F(rng.randint(2, 40), rng.randint(1, 7))
            q13 = ProjPoint((-(a1 + a3), 2 * a1 * a3, 2))
            line = ProjLine((0, 1, -a1 * a3))
            assert incident(q13, line)

    def test_not_incident(self):
        assert not incident(ProjPoint((1, 1, 1)), ProjLine((1, 1, 1)))

    def test_q46_on_h4_line(self):
        assert incident(ProjPoint((-1, 0, 0)), ProjLine((0, 1, -6)))

    def test_conic_incidence(self):
        assert incident(ProjPoint((1, 0, 1)), CIRCLE)
        assert not incident(ProjPoint((2, 0, 1)), CIRCLE)


def test_meet_over_quadratic_field_tangent_case():
    # circle scaled into Q(sqrt 2): tangency detection must stay exact
    s = QuadVal(0, 1, 2)
    c = Conic((s, s, -s, 0, 0, 0))
    l = ProjLine((0, 1, -1))  # y = z touches at [0,1,1]
    assert is_tangent(c, l)
    p1, p2 = conic_line_meet(c, l)
    assert p1 == p2 == ProjPoint((0, 1, 1))


def test_meet_over_quadratic_field_square_discriminant():
    from mcycle.geometry import _sqrt_in_field

    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2 is a square inside Q(sqrt 2)
    assert _sqrt_in_field(QuadVal(3, 2, 2)) in (QuadVal(1, 1, 2), QuadVal(-1, -1, 2))
    assert _sqrt_in_field(QuadVal(5, 1, 2)) is None
    # x^2 + y^2 = (3 + 2 sqrt 2) z^2 meets y = 0 at x = +-(1 + sqrt 2)
    c = Conic((1, 1, -QuadVal(3, 2, 2), 0, 0, 0))
    p1, p2 = conic_line_meet(c, ProjLine((0, 1, 0)))
    expected = {ProjPoint((QuadVal(1, 1, 2), 0, 1)),
                ProjPoint((QuadVal(-1, -1, 2), 0, 1))}
    assert {p1, p2} == expected


def test_meet_outside_quadratic_field_raises():
    from mcycle.errors import IncompatibleRadicands

    # x^2 + y^2 = sqrt(2) z^2 meets y = 0 at x = +-2^(1/4): biquadratic
    c = Conic((1, 1, -QuadVal(0, 1, 2), 0, 0, 0))
    with pytest.raises(IncompatibleRadicands):
        conic_line_meet(c, ProjLine((0, 1, 0)))


def test_line_through_meet_and_canonical():
    from mcycle.geometry import line_meet

    p, q = ProjPoint((1, 0, 1)), ProjPoint((0, 1, 1))
    l = line_through(p, q)
    assert incident(p, l) and incident(q, l)
    m = line_meet(l, ProjLine((0, 1, 0)))  # intersect with y = 0
    assert m == p
    r = ProjPoint((-2, 0, -4)).canonical()
    assert r.coords[0].rat == 1 and r.coords[2].rat == 2
