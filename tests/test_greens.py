import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from mcycle.errors import BudgetExceeded, OnSingularLocus, SingularArgument
from mcycle.greens import (
    GreensValue,
    PrincipalPart,
    TruncationPolicy,
    UHPoint,
    _det_m_arrays,
    apply_matrix,
    cross_check,
    green_det_m_direct,
    green_k,
    greens_combo,
    hecke_coset_reps,
    hecke_green,
    legendre_q,
    legendre_q_closed_q1,
    reduce_fd,
)

POL = TruncationPolicy(matrix_bound=150)


def val(g: GreensValue) -> float:
    return float(g.value.val)


def err(g: GreensValue) -> float:
    return float(g.value.err)


class TestLegendreQ:
    def test_against_closed_form(self):
        for t in ("1.5", 2, 3, 10):
            q = legendre_q(2, mpf(t), precision=40)
            qc = legendre_q_closed_q1(mpf(t), precision=40)
            with workdps(60):
                assert abs(q.val - qc.val) < mpf(10) ** -30
                assert abs(q.val - qc.val) <= q.err + qc.err

    def test_reference_value(self):
        q = legendre_q(2, 3, precision=30)
        with workdps(40):
            ref = mpf(3) / 2 * mp.log(2) - 1
            assert abs(q.val - ref) < mpf(10) ** -28

    def test_three_term_recurrence(self):
        with workdps(45):
            t = mpf(2)
            q0 = mp.log((t + 1) / (t - 1)) / 2  # closed-form order 0
            q1 = legendre_q(2, t, 30).val
            q2 = legendre_q(3, t, 30).val
            q3 = legendre_q(4, t, 30).val
            assert abs(2 * q2 - 3 * t * q1 + q0) < mpf(10) ** -28
            assert abs(3 * q3 - 5 * t * q2 + 2 * q1) < mpf(10) ** -28

    def test_singular_argument(self):
        with pytest.raises(SingularArgument):
            legendre_q(2, 1, 30)
        with pytest.raises(SingularArgument):
            legendre_q(2, mpf("0.5"), 30)
        with pytest.raises(ValueError):
            legendre_q(1, 2, 30)

    def test_positive_and_decreasing(self):
        with workdps(40):
            prev = None
            for t in (mpf("1.1"), mpf("1.7"), 2, 4, 9, 50):
                q = legendre_q(2, t, 25)
                assert q.val > 0
                if prev is not None:
                    assert q.val < prev
                prev = q.val

    def test_decay_to_zero(self):
        q = legendre_q(2, mpf(10) ** 6, 20)
        assert q.val < mpf(10) ** -11


class TestReduceFd:
    def test_translation(self):
        z, m = reduce_fd(UHPoint(5, 1))
        assert m == ((1, -5), (0, 1))
        assert float(z.re.val) == 0 and float(z.im.val) == 1

    def test_inversion_round_trip(self):
        z0 = UHPoint(F(1, 10), F(1, 10))
        z, m = reduce_fd(z0)
        img = apply_matrix(m, z0)
        with workdps(30):
            assert abs(img.as_mpc() - z.as_mpc()) < mpf(10) ** -20
        assert float(z.im.val) >= math.sqrt(3) / 2 - 1e-12

    def test_corner_fixed(self):
        with workdps(30):
            w = mp.mpc(mp.cos(mp.pi / 3), mp.sin(mp.pi / 3))
        from mcycle.arith import BigReal

        z0 = UHPoint(BigReal(w.real, 0, 30), BigReal(w.imag, 0, 30))
        z, _ = reduce_fd(z0)
        with workdps(30):
            assert abs(z.as_mpc() - w) < mpf(10) ** -20

    def test_plus_half_prefers_minus_half(self):
        z, _ = reduce_fd(UHPoint(F(1, 2), 3))
        assert float(z.re.val) == -0.5

    def test_random_round_trips_land_in_domain(self):
        rng = random.Random(21)
        for _ in range(40):
            z0 = UHPoint(F(rng.randint(-500, 500), 97),
                         F(rng.randint(1, 300), 131))
            z, m = reduce_fd(z0)
            re, im = float(z.re.val), float(z.im.val)
            assert abs(re) <= 0.5 + 1e-12
            assert re * re + im * im >= 1 - 1e-12
            img = apply_matrix(m, z0)
            with workdps(30):
                assert abs(img.as_mpc() - z.as_mpc()) < mpf(10) ** -18


Z1 = UHPoint(0, 2)
Z2 = UHPoint(F(1, 2), 2)
ZA = UHPoint(F(3, 10), F(17, 10))
ZB = UHPoint(F(52, 10), F(7, 10))


class TestGreenK:
    def test_deterministic(self):
        g1 = green_k(2, ZA, ZB, POL)
        g2 = green_k(2, ZA, ZB, POL)
        assert g1.value.val == g2.value.val
        assert g1.terms_summed == g2.terms_summed

    def test_symmetry_within_tails(self):
        g12 = green_k(2, ZA, ZB, POL)
        g21 = green_k(2, ZB, ZA, POL)
        assert abs(val(g12) - val(g21)) <= err(g12) + err(g21)

    def test_gamma_invariance(self):
        base = green_k(2, ZA, ZB, POL)
        t_moved = green_k(2, UHPoint(ZA.re + 1, ZA.im), ZB, POL)
        assert abs(val(t_moved) - val(base)) <= err(t_moved) + err(base)
        with workdps(30):
            w = -1 / ZA.as_mpc()
        from mcycle.arith import BigReal

        s_z1 = UHPoint(BigReal(w.real, 0, 30), BigReal(w.imag, 0, 30))
        s_moved = green_k(2, s_z1, ZB, POL)
        assert abs(val(s_moved) - val(base)) <= err(s_moved) + err(base)

    def test_tail_honesty(self):
        # |value(N) - value(4N)| within tail(N) on 10 random point pairs
        rng = random.Random(33)
        for _ in range(10):
            z1 = UHPoint(F(rng.randint(-30, 30), 61), F(rng.randint(11, 40), 13))
            z2 = UHPoint(F(rng.randint(-30, 30), 59), F(rng.randint(13, 45), 17))
            lo = green_k(2, z1, z2, TruncationPolicy(matrix_bound=60))
            hi = green_k(2, z1, z2, TruncationPolicy(matrix_bound=240))
            assert abs(val(lo) - val(hi)) <= float(lo.tail_estimate.val) + err(hi)

    def test_doubling_moves_less_than_tail(self):
        lo = green_k(2, Z1, Z2, TruncationPolicy(matrix_bound=100))
        hi = green_k(2, Z1, Z2, TruncationPolicy(matrix_bound=200))
        assert abs(val(lo) - val(hi)) <= float(lo.tail_estimate.val)

    def test_doubling_at_2i_i(self):
        z1, zi = UHPoint(0, 2), UHPoint(0, 1)
        lo = green_k(2, z1, zi, TruncationPolicy(matrix_bound=100))
        hi = green_k(2, z1, zi, TruncationPolicy(matrix_bound=200))
        assert abs(val(lo) - val(hi)) <= float(lo.tail_estimate.val)

    def test_symmetry_at_2i_half_plus_2i(self):
        g12 = green_k(2, Z1, Z2, POL)
        g21 = green_k(2, Z2, Z1, POL)
        assert abs(val(g12) - val(g21)) <= err(g12) + err(g21)

    def test_singular_locus(self):
        with pytest.raises(OnSingularLocus):
            green_k(2, Z1, Z1, POL)
        # gamma-translate of z2 also collides
        with pytest.raises(OnSingularLocus):
            green_k(2, UHPoint(3, 2), Z1, POL)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            green_k(1, Z1, Z2, POL)

    def test_q_order_flag_changes_value(self):
        g_default = green_k(2, Z1, Z2, POL)
        g_alt = green_k(2, Z1, Z2, POL, q_order=2)
        assert val(g_default) != val(g_alt)

    def test_higher_weight_smaller_magnitude(self):
        g2 = green_k(2, Z1, Z2, POL)
        g3 = green_k(3, Z1, Z2, POL)
        assert abs(val(g3)) < abs(val(g2))

    @pytest.mark.parametrize("k", [3, 4])
    def test_higher_weight_invariance(self, k):
        base = green_k(k, ZA, ZB, POL)
        moved = green_k(k, UHPoint(ZA.re + 1, ZA.im), ZB, POL)
        assert abs(val(moved) - val(base)) <= err(moved) + err(base)

    def test_adaptive_converges(self):
        pol = TruncationPolicy(matrix_bound=20, target_tol=2e-3, adaptive=True,
                               max_bound=800)
        g = green_k(2, Z1, Z2, pol)
        ref = green_k(2, Z1, Z2, TruncationPolicy(matrix_bound=400))
        assert abs(val(g) - val(ref)) < 1e-2

    def test_adaptive_budget_exceeded(self):
        pol = TruncationPolicy(matrix_bound=16, target_tol=1e-30, adaptive=True,
                               max_bound=64)
        with pytest.raises(BudgetExceeded):
            green_k(2, Z1, Z2, pol)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(matrix_bound=5)
        with pytest.raises(ValueError):
            TruncationPolicy(target_tol=0)


class TestHecke:
    def test_coset_reps_m2(self):
        assert hecke_coset_reps(2) == [(1, 0, 2), (1, 1, 2), (2, 0, 1)]

    def test_coset_count_sigma1(self):
        for m in range(1, 13):
            expect = sum(d for d in range(1, m + 1) if m % d == 0)
            assert len(hecke_coset_reps(m)) == expect

    def test_m1_identical_to_green(self):
        g = green_k(2, ZA, ZB, POL)
        h = hecke_green(2, 1, ZA, ZB, POL)
        assert val(h) == val(g)

    @pytest.mark.parametrize("m", [2, 3])
    def test_coset_equals_direct(self, m):
        h = hecke_green(2, m, Z1, Z2, POL)
        d = green_det_m_direct(2, m, Z1, Z2, 150)
        assert abs(val(h) - val(d)) <= err(h) + err(d)

    def test_self_adjoint(self):
        h12 = hecke_green(2, 2, ZA, ZB, POL)
        h21 = hecke_green(2, 2, ZB, ZA, POL)
        assert abs(val(h12) - val(h21)) <= err(h12) + err(h21)

    def test_singular_locus_on_tm(self):
        # z1 = 2*z2 lies on T_2
        z2 = UHPoint(F(13, 10), F(13, 10))
        z1 = UHPoint(F(26, 10), F(26, 10))
        with pytest.raises(OnSingularLocus):
            hecke_green(2, 2, z1, z2, POL)


class TestCombo:
    def test_single_term_equals_g2(self):
        f = PrincipalPart({1: 1})
        c = greens_combo(f, 1, ZA, ZB, POL)
        g = green_k(2, ZA, ZB, POL)
        assert val(c) == val(g)

    def test_linearity_in_coefficients(self):
        f1 = PrincipalPart({1: F(1, 3), 2: F(-2, 5)})
        f3 = PrincipalPart({1: F(1), 2: F(-6, 5)})
        c1 = greens_combo(f1, 1, ZA, ZB, POL)
        c3 = greens_combo(f3, 1, ZA, ZB, POL)
        assert abs(3 * val(c1) - val(c3)) < 1e-12

    def test_additivity_over_terms(self):
        f = PrincipalPart({1: 1, 2: F(3, 2)})
        c = greens_combo(f, 1, ZA, ZB, POL)
        g1 = green_k(2, ZA, ZB, POL)
        g2 = hecke_green(2, 2, ZA, ZB, POL)
        assert abs(val(c) - (val(g1) + 1.5 * 2 * val(g2))) < 1e-12

    def test_tail_is_weighted_sum(self):
        f = PrincipalPart({1: 2, 2: 1})
        c = greens_combo(f, 1, ZA, ZB, POL)
        g1 = hecke_green(2, 1, ZA, ZB, POL)
        g2 = hecke_green(2, 2, ZA, ZB, POL)
        expect = 2 * 1 * float(g1.tail_estimate.val) + 1 * 2 * float(g2.tail_estimate.val)
        assert abs(float(c.tail_estimate.val) - expect) < 1e-15

    def test_j_validation(self):
        with pytest.raises(ValueError):
            greens_combo(PrincipalPart({1: 1}), 0, ZA, ZB, POL)

    def test_singular_identifies_m(self):
        z2 = UHPoint(F(13, 10), F(13, 10))
        z1 = UHPoint(F(26, 10), F(26, 10))
        f = PrincipalPart({2: 1})
        with pytest.raises(OnSingularLocus) as exc:
            greens_combo(f, 1, z1, z2, POL)
        assert exc.value.m == 2

    def test_principal_part_validation_and_json(self):
        with pytest.raises(ValueError):
            PrincipalPart({})
        with pytest.raises(ValueError):
            PrincipalPart({0: 1})
        f = PrincipalPart({1: "1", 4: F(-3, 2)})
        doc = f.to_json()
        assert doc == {"coeffs": {"1": "1", "4": "-3/2"}}
        assert PrincipalPart.from_json(doc) == f


class TestCrossCheck:
    def _reg(self):
        from mcycle.cycle import regulator_h4

        return regulator_h4(2, 3, precision=30)

    def test_empty_boundary(self):
        rep = cross_check(self._reg(), [], Z1, POL)
        assert rep["greens_sum"] == 0
        assert rep["difference"] == rep["log_abs_regulator"]

    def test_duplicate_points_cancel(self):
        tau = UHPoint(F(1, 3), F(8, 5))
        rep = cross_check(self._reg(), [(tau, F(1)), (tau, F(-1))], Z1, POL)
        assert rep["greens_sum"] == 0

    def test_budget_fields_present(self):
        tau = UHPoint(F(1, 3), F(8, 5))
        rep = cross_check(self._reg(), [(tau, F(2))], Z1, POL)
        for key in ("log_abs_regulator", "greens_sum", "difference",
                    "regulator_err", "greens_err"):
            assert key in rep

    def test_truncation_self_consistency(self):
        tau = UHPoint(F(1, 3), F(8, 5))
        reg = self._reg()
        lo = cross_check(reg, [(tau, F(1))], Z1, TruncationPolicy(matrix_bound=80))
        hi = cross_check(reg, [(tau, F(1))], Z1, TruncationPolicy(matrix_bound=160))
        assert abs(lo["greens_sum"] - hi["greens_sum"]) <= lo["greens_err"] + hi["greens_err"]


def test_enumeration_counts_small_bound():
    # PSL2(Z) reps with entries <= 1: identity, T, T^-1, S, and the six
    # products with |entries| <= 1 (classic count: 10)
    a, b, c, d, _ = _det_m_arrays(1, 10)
    mask = (abs(a) <= 1) & (abs(b) <= 1) & (abs(c) <= 1) & (abs(d) <= 1)
    assert int(mask.sum()) == 10
    det = a * d - b * c
    assert (det == 1).all()
    # against brute force: every determinant-m matrix with |entries| <= B,
    # one per +-pair (c > 0, or c = 0 and d > 0), in canonical order
    # (c, then d, then a ascending)
    for m in (1, 2, 3, 4, 6):
        for bound in (1, 2, 3, 5, 7, 10):
            rng = range(-bound, bound + 1)
            brute = sorted(
                (c, d, a, b)
                for a in rng for b in rng for c in rng for d in rng
                if a * d - b * c == m and (c > 0 or (c == 0 and d > 0))
            )
            a, b, c, d, maxe = _det_m_arrays(m, bound)
            got = list(zip(c.tolist(), d.tolist(), a.tolist(), b.tolist()))
            assert got == brute, (m, bound)
            assert (maxe == np.maximum(np.maximum(abs(a), abs(b)),
                                       np.maximum(abs(c), abs(d)))).all()
