import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from mpmath import mpf, workdps

from mcycle.arith import QuadVal, as_quadval, rat_from_mpf
from mcycle.errors import InvalidModuli, NotOnH4
from mcycle.geometry import (
    ProjLine,
    conic_line_meet,
    conic_through_5,
    incident,
    is_tangent,
    line_through,
)
from mcycle.kummer import (
    BWCase,
    ModuliParams,
    _qpoint,
    build_config,
    bw_cases,
    h4_h8_factors,
    h4_line,
    h5_points,
    h5_roots_in_a3,
    hecke_components,
    humbert5_coeffs,
    humbert5_conic,
    humbert5_discriminant,
    is_numerically_tangent,
    sextic_eval,
)


def rand_params(rng, lo=-20, hi=20):
    while True:
        vals = []
        while len(vals) < 3:
            f = F(rng.randint(lo, hi), rng.randint(1, 8))
            if f not in (0, 1) and f not in vals:
                vals.append(f)
        try:
            return ModuliParams(*vals)
        except InvalidModuli:
            continue


class TestModuli:
    def test_rejects_fixed_branch_values(self):
        with pytest.raises(InvalidModuli):
            ModuliParams(0, 2, 3)
        with pytest.raises(InvalidModuli):
            ModuliParams(2, 1, 3)

    def test_rejects_coincident(self):
        with pytest.raises(InvalidModuli):
            ModuliParams(2, 2, 3)

    def test_quadval_entries_allowed(self):
        a3 = QuadVal(F(11, 9), F(2, 9), 10)
        p = ModuliParams(2, 2 * a3, a3)
        assert p.a2 == 2 * a3


class TestBuildConfig:
    def test_q12_at_235(self):
        cfg = build_config(ModuliParams(2, 3, 5))
        from mcycle.geometry import ProjPoint

        assert cfg.point(1, 2) == ProjPoint((-5, 12, 2))

    def test_q45_universal(self):
        from mcycle.geometry import ProjPoint

        for params in ((2, 3, 5), (7, F(1, 2), -3)):
            cfg = build_config(ModuliParams(*params))
            assert cfg.point(4, 5) == ProjPoint((-1, 0, 2))
            assert cfg.point(4, 5) == ProjPoint((F(-1, 2), 0, 1))

    def test_qi6_form(self):
        from mcycle.geometry import ProjPoint

        cfg = build_config(ModuliParams(2, 3, 5))
        assert cfg.point(1, 6) == ProjPoint((-1, 4, 0))
        assert cfg.point(4, 6) == ProjPoint((-1, 0, 0))

    def test_l4_l6_fixed(self):
        cfg = build_config(ModuliParams(2, 3, 5))
        assert cfg.line(4) == ProjLine((0, 1, 0))
        assert cfg.line(6) == ProjLine((0, 0, 1))

    def test_incidence_structure(self):
        rng = random.Random(11)
        for _ in range(25):
            cfg = build_config(rand_params(rng))
            for i, j in combinations(range(1, 7), 2):
                q = cfg.point(i, j)
                on = {k for k in range(1, 7) if incident(q, cfg.line(k))}
                assert on == {i, j}

    def test_all_points_distinct(self):
        rng = random.Random(12)
        for _ in range(10):
            cfg = build_config(rand_params(rng))
            pts = list(cfg.torsion_points.values())
            for a, b in combinations(pts, 2):
                assert a != b

    def test_sextic_is_line_product(self):
        rng = random.Random(13)
        p = rand_params(rng)
        cfg = build_config(p)
        for x, y in ((F(1, 3), F(2, 5)), (F(-7, 2), F(4))):
            direct = sextic_eval(p, x, y)
            table = sum(
                (c * as_quadval(x) ** e[0] * as_quadval(y) ** e[1]
                 for e, c in cfg.sextic.items()),
                as_quadval(0),
            )
            assert direct == table

    def test_json_shape(self):
        doc = build_config(ModuliParams(2, 3, 5)).to_json()
        assert set(doc) == {"lines", "points", "sextic", "curve"}
        assert len(doc["lines"]) == 6 and len(doc["points"]) == 15
        assert "q45" in doc["points"]


class TestHumbert5:
    def test_p1_example(self):
        p1 = humbert5_coeffs(ModuliParams(2, 3, 5))[0]
        assert p1 == as_quadval(4 * 2 * 3 * 5 * (2 - 3))

    def test_closed_form_matches_determinant(self):
        rng = random.Random(17)
        for _ in range(40):
            p = rand_params(rng)
            assert humbert5_conic(p) == conic_through_5(h5_points(p))

    def test_closed_form_proved_on_grid(self, h5_grid_axes):
        # Grid argument (Alon, Combinatorial Nullstellensatz, 1999): a
        # polynomial over Q of degree <= d in each variable that vanishes on
        # S1 x S2 x S3 with every |Si| > d is identically zero. Each
        # coordinate of h5_points has degree <= 1 in each a_i, and each a_i
        # enters at most two of the five points (a1: q12, q51; a2: q12, q23;
        # a3: q23, q34), so a monomial row has degree <= 2 and each signed
        # minor M_j of conic_through_5 degree <= 4 in each a_i. lam has
        # degree 2 and every p_j degree <= 2 in each a_i, so M_j - lam*p_j
        # has degree <= 4 and the three factorizations below degree <= 2.
        # Five values per variable therefore prove them as polynomial
        # identities, for every accepted input (QuadVal moduli included).
        # lam is a product of factors ModuliParams excludes, so
        # humbert5_conic is the determinant conic on every valid moduli
        # point; p1 and the two slope numerators of blowup_data never
        # vanish, which keeps the node transversal and the regulator
        # quadratic (leading coefficient p1) of degree two.
        assert all(len(set(axis)) >= 5 for axis in h5_grid_axes)
        for moduli in product(*h5_grid_axes):
            p = ModuliParams(*moduli)
            a1, a2, a3 = p.a1, p.a2, p.a3
            p1, p2, p3, p4, p5, p6 = coeffs = humbert5_coeffs(p)
            lam = -64 * a1 * a2 * (a1 - a3) * (a2 - 1) * (a3 - 1)
            minors = conic_through_5(h5_points(p)).p
            assert all(m == lam * c for m, c in zip(minors, coeffs))
            assert p1 == 4 * a1 * a2 * a3 * (a1 - a2)
            assert p1 - p5 == -2 * a1 * a2 * a3 * (a1 - a2) * (a3 - 1)
            assert (p1 - p5 + 2 * p6 - p4
                    == 2 * a1 * (a1 - 1) * (a2 - 1) * (a2 - a3) * (a3 - 1))

    def test_passes_through_q45(self):
        rng = random.Random(19)
        for _ in range(20):
            p = rand_params(rng)
            conic = humbert5_conic(p)
            assert incident(_qpoint(as_quadval(0), as_quadval(1)), conic)

    def test_discriminant_nonzero_generic(self):
        p = ModuliParams(2, 3, 5)
        d = humbert5_discriminant(p)
        assert not d.is_zero()
        assert d == as_quadval((-124) ** 2 - 4 * (-120) * (-16))  # 7696
        s1, s2 = conic_line_meet(humbert5_conic(p), ProjLine((0, 0, 1)))
        assert s1 != s2

    def test_discriminant_equals_restriction_disc(self):
        from mcycle.geometry import restriction_discriminant

        rng = random.Random(23)
        for _ in range(10):
            p = rand_params(rng)
            conic = humbert5_conic(p)
            assert humbert5_discriminant(p) == restriction_discriminant(
                conic, ProjLine((0, 0, 1))
            )

    def test_numeric_root_gives_near_tangency(self):
        roots = h5_roots_in_a3(2, 3, precision=60)
        assert roots
        a3 = rat_from_mpf(roots[0])
        p = ModuliParams(2, 3, a3)
        assert is_numerically_tangent(p, 1e-40)
        with workdps(70):
            d = humbert5_discriminant(p).to_mpf(70)
            assert abs(d) < mpf(10) ** -40 * abs(
                (humbert5_coeffs(p)[3] ** 2).to_mpf(70)
            )

    def test_exact_h5_point_fully_tangent(self):
        # on a2 = a1 a3 with a1 = 2 the tangency locus is 9 a3^2 - 22 a3 + 9 = 0
        a3 = QuadVal(F(11, 9), F(2, 9), 10)
        p = ModuliParams(2, 2 * a3, a3)
        assert humbert5_discriminant(p).is_zero()
        conic = humbert5_conic(p)
        assert is_tangent(conic, ProjLine((0, 0, 1)))
        s1, s2 = conic_line_meet(conic, ProjLine((0, 0, 1)))
        assert s1 == s2


def _resultant_quadratics(p, q):
    """Sylvester resultant of two quadratics (coeff lists low->high)."""
    a0, a1, a2 = p
    b0, b1, b2 = q
    # | a2 a1 a0 0  |
    # | 0  a2 a1 a0 |
    # | b2 b1 b0 0  |
    # | 0  b2 b1 b0 |
    m = [
        [a2, a1, a0, F(0)],
        [F(0), a2, a1, a0],
        [b2, b1, b0, F(0)],
        [F(0), b2, b1, b0],
    ]

    def det4(m):
        import itertools

        total = F(0)
        for perm in itertools.permutations(range(4)):
            sign = 1
            seen = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = F(1)
            for i in range(4):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total

    return det4(m)


def _pencil_tangency_resultant(a1, a2, a3):
    """Independent H4/H8 oracle: conics through q12,q23,q35,q51 form a pencil;
    eliminate the pencil parameter from the two tangency conditions (to l4 and
    l6). Exact rational arithmetic throughout."""
    q12 = _qpoint(as_quadval(a1), as_quadval(a2))
    q23 = _qpoint(as_quadval(a2), as_quadval(a3))
    q35 = _qpoint(as_quadval(a3), as_quadval(1))
    q51 = _qpoint(as_quadval(1), as_quadval(a1))

    def lines_to_conic(l, m):
        la, lb, lc = l.coeffs
        ma, mb, mc = m.coeffs
        return (
            la * ma, lb * mb, lc * mc,
            la * mb + lb * ma, la * mc + lc * ma, lb * mc + lc * mb,
        )

    c1 = lines_to_conic(line_through(q12, q23), line_through(q35, q51))
    c2 = lines_to_conic(line_through(q12, q51), line_through(q23, q35))

    def disc_lambda(i_a, i_b, i_c):
        # restriction discriminant coefficients as a quadratic in the pencil
        # parameter: (B0 + t B1)^2 - 4 (A0 + t A1)(C0 + t C1)
        A0, B0, C0 = c1[i_a].rat, c1[i_b].rat, c1[i_c].rat
        A1, B1, C1 = c2[i_a].rat, c2[i_b].rat, c2[i_c].rat
        return (
            B0 * B0 - 4 * A0 * C0,
            2 * B0 * B1 - 4 * (A0 * C1 + A1 * C0),
            B1 * B1 - 4 * A1 * C1,
        )

    d4 = disc_lambda(0, 4, 2)  # l4: y=0 restriction p1 x^2 + p5 xz + p3 z^2
    d6 = disc_lambda(0, 3, 1)  # l6: z=0 restriction p1 x^2 + p4 xy + p2 y^2
    return _resultant_quadratics(d4, d6)


class TestH4H8:
    def test_first_factor_vanishes_on_h4(self):
        f4, f8 = h4_h8_factors(ModuliParams(2, 6, 3))
        assert f4.is_zero() and not f8.is_zero()

    def test_both_nonzero_generic(self):
        f4, f8 = h4_h8_factors(ModuliParams(2, 3, 5))
        assert not f4.is_zero() and not f8.is_zero()

    def test_collinearity_iff_h4(self):
        rng = random.Random(29)
        for _ in range(20):
            a1 = F(rng.randint(2, 15), rng.randint(1, 4))
            a3 = F(rng.randint(2, 15), rng.randint(1, 4))
            try:
                p_on = ModuliParams(a1, a1 * a3, a3)
            except InvalidModuli:
                continue
            cfg = build_config(p_on)
            l = h4_line(p_on)
            assert incident(cfg.point(1, 3), l)
            assert incident(cfg.point(2, 5), l)
            assert incident(cfg.point(4, 6), l)
            f4, _ = h4_h8_factors(p_on)
            assert f4.is_zero()
        # off the locus: q25 fails the line through q13, q46
        p_off = ModuliParams(2, 3, 5)
        cfg = build_config(p_off)
        l_geom = line_through(cfg.point(1, 3), cfg.point(4, 6))
        assert not incident(cfg.point(2, 5), l_geom)
        assert not h4_h8_factors(p_off)[0].is_zero()

    def test_h4_line_form_and_error(self):
        l = h4_line(ModuliParams(2, 6, 3))
        assert l == ProjLine((0, 1, -6))
        with pytest.raises(NotOnH4):
            h4_line(ModuliParams(2, 3, 5))

    def test_h8_factor_against_pencil_resultant(self):
        # Res(d4, d6) = -16777216 (a1-a3)^10 (a2-1)^10 (a1 a3 - a2)^2 * f8
        rng = random.Random(31)
        for _ in range(8):
            p = rand_params(rng, lo=-6, hi=6)
            a1, a2, a3 = p.a1.rat, p.a2.rat, p.a3.rat
            res = _pencil_tangency_resultant(a1, a2, a3)
            f4, f8 = h4_h8_factors(p)
            predicted = (
                F(-16777216)
                * (a1 - a3) ** 10
                * (a2 - 1) ** 10
                * f4.rat ** 2
                * f8.rat
            )
            assert res == predicted


class TestBWCases:
    def test_delta5_conic_row(self):
        rows = bw_cases(5)
        assert BWCase("I", 1, 6, 5, 2, 5) in rows

    def test_delta4_line_row(self):
        rows = bw_cases(4)
        assert BWCase("V", 2, None, 4, 1, 3) in rows

    def test_delta9_both_rows(self):
        rows = bw_cases(9)
        assert BWCase("V", 3, None, 9, 2, 3) in rows
        assert BWCase("I", 1, 4, 9, 2, 3) in rows

    def test_rows_satisfy_formulas_and_stable(self):
        formulas = {
            "I": (lambda m, k: 8 * m * m + 9 - 2 * k, lambda m: 2 * m,
                  lambda k: k - 1),
            "II": (lambda m, k: 8 * m * (m + 1) + 9 - 2 * k, lambda m: 2 * m + 1,
                   lambda k: k),
            "III": (lambda m, k: 8 * m * m + 8 - 2 * k, lambda m: 2 * m,
                    lambda k: k),
            "IV": (lambda m, k: 8 * m * (m + 1) + 12 - 2 * k, lambda m: 2 * m + 1,
                   lambda k: k - 1),
        }
        for delta in range(1, 201):
            rows = bw_cases(delta)
            assert rows == bw_cases(delta)  # reproducible
            for r in rows:
                assert r.degree >= 1
                if r.case_label == "V":
                    assert r.m * r.m == delta and r.degree == r.m - 1
                    assert r.num_torsion_points == 3
                else:
                    dfun, degfun, ptsfun = formulas[r.case_label]
                    assert dfun(r.m, r.k) == delta
                    assert degfun(r.m) == r.degree
                    assert ptsfun(r.k) == r.num_torsion_points

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            bw_cases(0)


class TestHeckeComponents:
    def test_examples(self):
        assert hecke_components(5) == [1]
        assert hecke_components(9) == [2]
        assert hecke_components(4) == [1]

    def test_empty_for_bad_residue(self):
        assert hecke_components(6) == []
        assert hecke_components(7) == []

    def test_exhaustive_scan_oracle(self):
        for delta in range(1, 101):
            brute = []
            for x in range(0, delta + 1):
                num = delta - x * x
                if num > 0 and num % 4 == 0:
                    brute.append(num // 4)
            assert hecke_components(delta) == brute
