import json
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from mpmath import mp, mpc, mpf, workdps

from mcycle.arith import BigComplex, BigReal, QuadVal, as_quadval
from mcycle.cycle import (
    blowup_data,
    build_cycle,
    conjugate_swap,
    f_p_eval,
    regulator_h4,
)
from mcycle.errors import (
    BranchAtRamification,
    InvalidModuli,
    OnH5Locus,
    PoleEvaluation,
    RepeatedRoot,
    ZeroDenominator,
)
from mcycle.kummer import ModuliParams, humbert5_coeffs, sextic_eval

# exact H5 point on the H4 locus a2 = a1 a3, a1 = 2: 9 a3^2 - 22 a3 + 9 = 0
H5_A3 = QuadVal(F(11, 9), F(2, 9), 10)

# frozen reference for (a1, a3) = (2, 3), independently derived by a direct
# mpmath computation outside the package
R_REFERENCE = "18.1135479611065727320493852231542912376050660990413259448687"


class TestBlowupData:
    def test_slope_exact_at_235(self):
        d = blowup_data(ModuliParams(2, 3, 5))
        p1, _, _, p4, p5, p6 = humbert5_coeffs(ModuliParams(2, 3, 5))
        assert d.slope == (p1 - p5) / (p6 - p4 / 2)

    def test_slope_matches_implicit_differentiation(self):
        # independent oracle: differentiate y(x) on the conic at q45
        params = ModuliParams(2, 3, 5)
        d = blowup_data(params)
        p1, p2, p3, p4, p5, p6 = (c.rat for c in humbert5_coeffs(params))
        with workdps(40):
            def y_of_x(x):
                # branch of the conic through (x=-1/2, y=0)
                A = mpf(p2.numerator) / p2.denominator
                B = (mpf(p4.numerator) / p4.denominator) * x + mpf(p6.numerator) / p6.denominator
                C = ((mpf(p1.numerator) / p1.denominator) * x * x
                     + (mpf(p5.numerator) / p5.denominator) * x
                     + mpf(p3.numerator) / p3.denominator)
                r = mp.sqrt(B * B - 4 * A * C)
                y1, y2 = (-B + r) / (2 * A), (-B - r) / (2 * A)
                return y1 if abs(y1) < abs(y2) else y2

            slope_num = mp.diff(y_of_x, mpf(-0.5))
            assert abs(slope_num - d.slope.to_mpf(40)) < mpf(10) ** -30

    def test_h_value(self):
        d = blowup_data(ModuliParams(2, 3, 5))
        assert d.h_value == as_quadval(F(2 * 1) * F(6) * F(20))  # (4-2)(9-3)(25-5)

    def test_v0_sign_symmetric(self):
        d = blowup_data(ModuliParams(2, 3, 5))
        assert (d.v0_plus + d.v0_minus).is_zero()
        assert d.v0_plus * d.v0_plus == d.v0_sq

    def test_on_h5_locus_raises(self):
        with pytest.raises(OnH5Locus):
            blowup_data(ModuliParams(2, 2 * H5_A3, H5_A3))

    def test_s6_points_on_line_at_infinity(self):
        d = blowup_data(ModuliParams(2, 3, 5))
        for s in d.s6_points:
            assert s.coords[2].is_zero()

    def test_zero_denominator_rational_point(self):
        with pytest.raises(ZeroDenominator):
            blowup_data(ModuliParams(2, F(3, 2), -3))

    def test_transversality_automatic(self, h5_grid_axes):
        # slope never hits {0, -2} on valid moduli: both numerators factor
        # into expressions excluded by the moduli invariants (proved on this
        # grid by test_kummer's test_closed_form_proved_on_grid)
        for moduli in product(*h5_grid_axes):
            d = blowup_data(ModuliParams(*moduli))
            assert not d.slope.is_zero() and not (d.slope + 2).is_zero()


class TestFPEval:
    def test_zero_at_v0_plus(self):
        d = blowup_data(ModuliParams(2, 3, 5), dps=60)
        out = f_p_eval(d, d.v0_plus.to_bigcomplex(60))
        assert abs(out.val) < mpf(10) ** -55

    def test_pole_at_v0_minus(self):
        d = blowup_data(ModuliParams(2, 3, 5), dps=60)
        with pytest.raises(PoleEvaluation):
            f_p_eval(d, d.v0_minus)

    def test_reciprocal_vanishes_at_pole(self):
        # 1/f_P(v0-) = 0 in the limit
        d = blowup_data(ModuliParams(2, 3, 5), dps=60)
        with workdps(60):
            for k in (6, 12, 24):
                v = d.v0_minus.to_bigcomplex(60) + BigComplex(mpf(10) ** -k, 0, 60)
                inv = BigComplex(1, 0, 60) / f_p_eval(d, v)
                assert abs(inv.val) < mpf(10) ** (-k + 3)

    def test_value_tends_to_one_toward_s6(self):
        # f_P(s6_1) = 1 shows up as the limit along the curve: v grows without
        # bound approaching the z=0 points, so f -> norm_const = 1
        params = ModuliParams(2, 3, 5)
        d = blowup_data(params, dps=50)
        p1, p2, p3, p4, p5, p6 = (c.rat for c in humbert5_coeffs(params))
        with workdps(50):
            prev_gap = None
            for xnum in (10 ** 3, 10 ** 6, 10 ** 9):
                x = F(xnum)
                # y on the conic over x (exact quadratic solve)
                from mcycle.arith import quad_solve

                y1, y2 = quad_solve(p2, p4 * x + p6, p1 * x * x + p5 * x + p3)
                s = sextic_eval(params, x, y1)
                w = s.to_bigcomplex(50).sqrt()
                v = w / (as_quadval(x + F(1, 2))).to_bigcomplex(50)
                gap = abs((f_p_eval(d, v) - 1).val)
                if prev_gap is not None:
                    assert gap < prev_gap
                prev_gap = gap
            assert prev_gap < mpf(10) ** -5

    def test_product_with_negated_argument_is_constant(self):
        d = blowup_data(ModuliParams(2, 3, 5), dps=50)
        rng = random.Random(5)
        with workdps(50):
            for _ in range(5):
                v = BigComplex(mpc(rng.uniform(-9, 9), rng.uniform(-9, 9)), 0, 50)
                prod = f_p_eval(d, v) * f_p_eval(d, -v)
                c2 = (d.norm_const * d.norm_const).val
                assert abs(prod.val - c2) < mpf(10) ** -40


class TestBuildCycle:
    def test_two_components_zero_boundary(self):
        pres = build_cycle(ModuliParams(2, 3, 5))
        assert len(pres.components) == 2
        assert pres.boundary_divisor() == {}
        assert pres.components[0].curve == "strict_transform"
        assert pres.components[1].function == {"kind": "reciprocal", "of": "f_P"}

    def test_degenerates_on_h5(self):
        with pytest.raises(OnH5Locus):
            build_cycle(ModuliParams(2, 2 * H5_A3, H5_A3))

    def test_serialization_round_trip(self):
        pres = build_cycle(ModuliParams(2, 3, 5))
        doc = json.loads(json.dumps(pres.to_json()))
        assert doc == pres.to_json()
        zero = QuadVal.from_json(doc["components"][0]["function"]["zero"])
        assert zero == pres.local_data.v0_plus


class TestRegulator:
    def test_quadratic_coefficients_match_both_p1_forms(self):
        a1, a3 = F(2), F(3)
        params = ModuliParams(a1, a1 * a3, a3)
        p = humbert5_coeffs(params)
        # printed general form at a2 = a1 a3, and the specialized display
        assert p[0] == as_quadval(4 * a1 * (a1 * a3) * a3 * (a1 - a1 * a3))
        assert p[0] == as_quadval(4 * (a1 * a3) ** 2 * (a1 - a1 * a3))
        assert p[0].rat == -576

    def test_roots_solve_quadratic_exactly(self):
        res = regulator_h4(2, 3, precision=50)
        params = ModuliParams(2, 6, 3)
        p1, p2, p3, p4, p5, p6 = (c.rat for c in humbert5_coeffs(params))
        A, B, C = p1, p4 * 6 + p5, p2 * 36 + p3 + p6 * 6
        x1, x2 = res.roots
        for x in (x1, x2):
            assert (A * x * x + B * x + C).is_zero()
        assert x1 + x2 == as_quadval(F(-B, 1) / A)
        assert x1 * x2 == as_quadval(F(C, 1) / A)

    def test_reference_value(self):
        res = regulator_h4(2, 3, precision=60)
        with workdps(70):
            ref = mpf(R_REFERENCE)
            assert abs(res.ratio.val.real - ref) < mpf(10) ** -55
            assert abs(res.ratio.val.imag) < mpf(10) ** -55
            assert abs(res.log_abs.val - mp.log(ref)) < mpf(10) ** -55

    def test_precision_agreement_50_vs_100(self):
        r50 = regulator_h4(2, 3, precision=50)
        r100 = regulator_h4(2, 3, precision=100)
        with workdps(120):
            diff = abs(r50.ratio.val - r100.ratio.val)
            assert diff < mpf(10) ** -45
            assert diff < r50.ratio.err

    def test_norm_const_invariance(self):
        res = regulator_h4(2, 3, precision=50)
        d7 = replace(res.local_data, norm_const=BigReal.from_rat(7, res.local_data.dps))
        f = [f_p_eval(d7, v) for v in res.v_values]
        ratio7 = (f[0] * f[2]) / (f[1] * f[3])
        with workdps(70):
            assert abs(ratio7.val - res.ratio.val) < mpf(10) ** -45

    def test_conjugate_swap(self):
        res = regulator_h4(2, 3, precision=50)
        sw = conjugate_swap(res)
        with workdps(70):
            assert abs((res.ratio * sw.ratio).val - 1) < mpf(10) ** -45
            assert abs((res.log_abs + sw.log_abs).val) < mpf(10) ** -45
        back = conjugate_swap(sw)
        assert back.ratio.val == res.ratio.val
        assert back.swapped is False and sw.swapped is True

    def test_on_h5_locus_raises(self):
        with pytest.raises(OnH5Locus):
            regulator_h4(2, H5_A3, precision=30)

    def test_invalid_moduli(self):
        with pytest.raises(InvalidModuli):
            regulator_h4(1, 3)  # a1 = 1 collides with a branch value
        with pytest.raises(InvalidModuli):
            regulator_h4(2, 1)

    def test_repeated_root_point(self):
        # the H4-line tangency locus 4 a1^2 a3 - 4 a1 a3^2 - 4 a1 + (a3+1)^2
        # has the rational point (a1, a3) = (-2, -1)
        with pytest.raises(RepeatedRoot):
            regulator_h4(-2, -1, precision=30)

    def test_branch_at_ramification_point(self):
        # x = -1/2 solves the pipeline quadratic at (a1, a3) = (-2, -3)
        with pytest.raises(BranchAtRamification):
            regulator_h4(-2, -3, precision=30)

    def test_zero_denominator_on_h4_slice(self):
        # at a1 = 2 the denominator vanishes for a3 = (3 +- sqrt 5)/4
        a3 = QuadVal(F(3, 4), F(1, 4), 5)
        with pytest.raises(ZeroDenominator):
            regulator_h4(2, a3, precision=30)

    def test_precision_doubling_honest_on_samples(self):
        rng = random.Random(41)
        done = 0
        while done < 20:
            a1 = F(rng.randint(-10, 10), rng.randint(1, 3))
            a3 = F(rng.randint(-10, 10), rng.randint(1, 3))
            try:
                lo = regulator_h4(a1, a3, precision=40)
                hi = regulator_h4(a1, a3, precision=80)
            except Exception:
                continue
            with workdps(100):
                assert abs(lo.ratio.val - hi.ratio.val) <= lo.ratio.err
            done += 1

    def test_result_json(self):
        res = regulator_h4(2, 3, precision=40)
        doc = res.to_json()
        assert doc["meta"]["branch_convention"] == "principal-sqrt-plus-first"
        assert len(doc["c_points"]) == 4 and len(doc["v_values"]) == 4
        json.dumps(doc)  # serializable

    def test_recognize_runs(self):
        res = regulator_h4(2, 3, precision=70, recognize=True)
        # R at this point is not low-degree algebraic with small coefficients
        assert res.recognized is None

    def test_branch_consistency_across_regimes(self):
        # sweep a small grid covering real and complex v0 / roots; the sheet
        # swap must reciprocate the ratio in every regime
        from mcycle.errors import McycleError

        seen_complex_v0 = seen_complex_roots = 0
        for n1 in range(-4, 5):
            for n3 in range(-4, 5):
                a1, a3 = F(n1, 2), F(n3, 3)
                try:
                    res = regulator_h4(a1, a3, precision=30)
                except (McycleError, ValueError):
                    continue
                if res.local_data.v0_sq.rat < 0:
                    seen_complex_v0 += 1
                if res.roots[0].is_complex:
                    seen_complex_roots += 1
                sw = conjugate_swap(res)
                with workdps(50):
                    assert abs((res.ratio * sw.ratio).val - 1) < mpf(10) ** -25
        assert seen_complex_v0 > 0 and seen_complex_roots > 0
