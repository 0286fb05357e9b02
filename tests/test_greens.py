import itertools
import math
import random
import warnings
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workdps

from mcycle.arith import BigReal
from mcycle.errors import BudgetExceeded, OnSingularLocus, SingularArgument
from mcycle.greens import (
    _EVAL_CHUNK,
    _PER_TERM_REL,
    GreensValue,
    PrincipalPart,
    TruncationPolicy,
    UHPoint,
    _det_m_arrays,
    _ExactSum,
    _green_levels,
    _q_tables,
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


def apply_matrix(m: tuple, z: UHPoint) -> UHPoint:
    (a, b), (c, d) = m
    with workdps(max(z.re.dps, 30)):
        w = (a * z.as_mpc() + b) / (c * z.as_mpc() + d)
        return UHPoint(BigReal(w.real, 0, z.re.dps), BigReal(w.imag, 0, z.re.dps))


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

    @pytest.mark.parametrize("moved", ["none", "T", "S"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_mellit_cm_value(self, moved, swap):
        # G_2((-1 + sqrt(-7))/2, i) = (8/sqrt 7) log(8 - 3 sqrt 7) (Mellit);
        # T and S move z1 to 1/2 + i sqrt(7)/2 and 1/4 + i sqrt(7)/4
        with workdps(30):
            r7 = mp.sqrt(7)
            exact = 8 / r7 * mp.log(8 - 3 * r7)
            re, im = {"none": (F(-1, 2), r7 / 2), "T": (F(1, 2), r7 / 2),
                      "S": (F(1, 4), r7 / 4)}[moved]
            z1 = UHPoint(re, im)
        zi = UHPoint(0, 1)
        g = green_k(2, *((zi, z1) if swap else (z1, zi)),
                    TruncationPolicy(matrix_bound=250))
        assert abs(val(g) - float(exact)) <= err(g)


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
    a, b, c, d = _det_m_arrays(1, 10)
    mask = (abs(a) <= 1) & (abs(b) <= 1) & (abs(c) <= 1) & (abs(d) <= 1)
    assert int(mask.sum()) == 10
    det = a * d - b * c
    assert (det == 1).all()
    # against brute force: every determinant-m matrix with |entries| <= B,
    # one per +-pair (c > 0, or c = 0 and d > 0), in shell order (max
    # |entry| ascending, by a stable sort of the canonical order: c, then d,
    # then a ascending)
    for m in (1, 2, 3, 4, 6):
        for bound in (1, 2, 3, 5, 7, 10):
            rng = range(-bound, bound + 1)
            brute = sorted(sorted(
                (c, d, a, b)
                for a in rng for b in rng for c in rng for d in rng
                if a * d - b * c == m and (c > 0 or (c == 0 and d > 0))
            ), key=lambda row: max(map(abs, row)))
            a, b, c, d = _det_m_arrays(m, bound)
            got = list(zip(c.tolist(), d.tolist(), a.tolist(), b.tolist()))
            assert got == brute, (m, bound)


def _reference_det_m_arrays(m, bound):
    """The scalar enumerator the vectorised builder replaced: one
    pow(ds, -1, cs) per (c, d), blocks expanded by numpy; int64 arrays
    (a, b, c, d) in shell order, by a stable sort of the canonical order."""
    def t_range(x0, step):
        if step < 0:
            x0, step = -x0, -step
        return -((bound + x0) // step), (bound - x0) // step

    rows = []
    for d in range(1, bound + 1):
        if m % d == 0 and m // d <= bound:
            rows.append((m // d, -bound, 0, 1, 2 * bound + 1, 0, d))
    for c in range(1, bound + 1):
        for d in range(-bound, bound + 1):
            g = math.gcd(c, d)
            if m % g:
                continue
            cs, ds = c // g, d // g
            x = pow(ds, -1, cs)
            a0, b0 = x * (m // g), (x * ds - 1) // cs * (m // g)
            lo, hi = t_range(a0, cs)
            if ds:
                blo, bhi = t_range(b0, ds)
                lo, hi = max(lo, blo), min(hi, bhi)
            elif abs(b0) > bound:
                continue
            if lo <= hi:
                rows.append((a0 + lo * cs, b0 + lo * ds, cs, ds, hi - lo + 1, c, d))
    a0, b0, sa, sb, n, c, d = np.array(rows, dtype=np.int64).reshape(-1, 7).T
    k = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    a = np.repeat(a0, n) + k * np.repeat(sa, n)
    b = np.repeat(b0, n) + k * np.repeat(sb, n)
    c, d = np.repeat(c, n), np.repeat(d, n)
    maxe = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    order = np.argsort(maxe, kind="stable")
    return a[order], b[order], c[order], d[order]


def _assert_same_arrays(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == np.int32
        assert np.array_equal(g, w)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_enumerator_matches_scalar_reference(m, monkeypatch):
    import mcycle.greens as greens

    for bound in (1, 2, 3, 5, 7, 10, 31, 60):
        monkeypatch.setattr(greens, "_box", None)
        _assert_same_arrays(_det_m_arrays(m, bound), _reference_det_m_arrays(m, bound))


def test_enumerator_cache_order(monkeypatch):
    # each request equals a fresh build: a bound after a larger one is a
    # prefix view of the cached box and keeps it; another m or a larger bound
    # replaces it
    import mcycle.greens as greens

    monkeypatch.setattr(greens, "_box", None)
    for m, bound, box in ((1, 60, (1, 60)), (1, 17, (1, 60)), (1, 60, (1, 60)),
                          (2, 40, (2, 40)), (1, 33, (1, 33)), (1, 50, (1, 50)),
                          (1, 49, (1, 50)), (2, 25, (2, 25)), (3, 45, (3, 45)),
                          (3, 1, (3, 45)), (1, 1, (1, 1))):
        got = _det_m_arrays(m, bound)
        _assert_same_arrays(got, _reference_det_m_arrays(m, bound))
        assert greens._box[:2] == box
        assert all(g.base is x for g, x in zip(got, greens._box[2]))  # no copy


def test_box_over_memory_budget_refused(monkeypatch):
    # the refusal compares the exact term count of the box with the budget
    import mcycle.greens as greens

    terms = len(_reference_det_m_arrays(1, 50)[0])
    monkeypatch.setattr(greens, "_box", None)
    monkeypatch.setattr(greens, "_memory_budget_bytes",
                        lambda: (terms - 1) * greens._BYTES_PER_TERM)
    with pytest.raises(BudgetExceeded):
        green_k(2, Z1, Z2, TruncationPolicy(matrix_bound=50))
    assert greens._box is None
    monkeypatch.setattr(greens, "_memory_budget_bytes",
                        lambda: terms * greens._BYTES_PER_TERM)
    assert green_k(2, Z1, Z2, TruncationPolicy(matrix_bound=50)).terms_summed == terms


def _reference_horner(coeffs_low_to_high, x):
    acc = np.zeros_like(x)
    for c in coeffs_low_to_high[::-1]:
        acc = acc * x + c
    return acc


def _reference_q_eval(order, t):
    """greens._q_eval_array over the out-of-place Horner it replaced."""
    pcoef, wcoef, series, pref = _q_tables(order)
    out = np.empty_like(t)
    lo = t < 2.0
    if np.any(lo):
        tl = t[lo]
        artanh = 0.5 * np.log((tl + 1.0) / (tl - 1.0))
        out[lo] = _reference_horner(pcoef, tl) * artanh - _reference_horner(wcoef, tl)
    hi = ~lo
    if np.any(hi):
        th = t[hi]
        u = 1.0 / (th * th)
        out[hi] = pref / (2.0 * th) ** (order + 1) * _reference_horner(series, u)
    return out


def _reference_green_single(order, m, z1, z2, bound, q_eval=_reference_q_eval):
    """The whole-box evaluation the chunked ladder replaced: every term at
    once, the singular test on |z1 - gamma z2| alone, then three math.fsum
    passes (full, half box, absolute)."""
    a, b, c, d = _det_m_arrays(m, bound)
    maxe = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    gz2 = (a * z2 + b) / (c * z2 + d)
    diff2 = np.abs(z1 - gz2) ** 2
    if np.min(diff2) < 1e-8 ** 2:
        raise OnSingularLocus("z1 lies on (or too near) the orbit of z2")
    vals = q_eval(order, 1.0 + diff2 / (2.0 * z1.imag * gz2.imag))
    full = math.fsum(vals)
    half = math.fsum(vals[maxe <= bound // 2])
    value = -2.0 * full
    shell = 2.0 * abs(full - half)
    round_err = 2.0 * _PER_TERM_REL * math.fsum(np.abs(vals)) + 1e-15 * abs(value)
    tail = shell + round_err
    return GreensValue(
        value=BigReal(mpf(value), mpf(tail), 16),
        tail_estimate=BigReal(mpf(tail), 0, 16),
        terms_summed=len(vals),
    )


def _green_single(order, m, z1, z2, bound):
    """The first level of _green_levels: the box at bound on its own."""
    return next(_green_levels(order, m, z1, z2, bound))


def _bits(g: GreensValue) -> tuple:
    return (float(g.value.val).hex(), float(g.value.err).hex(),
            float(g.tail_estimate.val).hex(), g.terms_summed)


def _t_values(m, z1, z2, bound):
    a, b, c, d = _det_m_arrays(m, bound)
    gz2 = (a * z2 + b) / (c * z2 + d)
    return 1.0 + np.abs(z1 - gz2) ** 2 / (2.0 * z1.imag * gz2.imag)


# per m, a point pair with some t < 2 (the closed-form branch of Q_n)
REF_POINTS = {1: (0.3 + 1.7j, -0.3 + 1.3j), 2: (0.1 + 2j, 1 / 3 + 1.6j),
              3: (2j, 1 / 3 + 1.6j), 6: (0.25 + 2.5j, -0.2 + 1.1j)}


@pytest.mark.parametrize("m", sorted(REF_POINTS))
def test_green_single_matches_whole_box_reference(m):
    # bound 300 spans many evaluation chunks
    z1, z2 = REF_POINTS[m]
    assert len(_det_m_arrays(m, 300)[0]) > 10 * _EVAL_CHUNK
    assert _t_values(m, z1, z2, 10).min() < 2.0
    for bound in (10, 50, 150, 300):
        for order in range(1, 6):
            want = _reference_green_single(order, m, z1, z2, bound)
            assert _bits(_green_single(order, m, z1, z2, bound)) == _bits(want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_green_levels_equal_fresh_levels(m, monkeypatch):
    # each level adds only its new shell to one running sum, and equals a
    # fresh one-level evaluation of its box bit for bit, whether every level
    # builds its box (the old one released first) or is a prefix of a
    # cached larger box
    import mcycle.greens as greens

    z1, z2 = REF_POINTS[m]
    bounds = (20, 40, 80, 160)
    build, built, alive = greens._build_box, [], []

    def checked_build(mm, bound):
        assert all(ref() is None for ref in alive)  # no view keeps the old box
        arrays, ends = build(mm, bound)
        built.append(bound)
        alive[:] = [weakref.ref(x) for x in arrays]
        return arrays, ends

    def ladder():
        return [_bits(g) for g in itertools.islice(_green_levels(2, m, z1, z2, 20), 4)]

    monkeypatch.setattr(greens, "_box", None)
    monkeypatch.setattr(greens, "_build_box", checked_build)
    cold = ladder()
    assert built == list(bounds)
    assert ladder() == cold and built == list(bounds)  # warm: prefixes of the 160 box
    for bound, got in zip(bounds, cold):
        greens._box = None
        assert _bits(_green_single(2, m, z1, z2, bound)) == got


def test_green_single_negative_term_in_later_chunk(monkeypatch):
    # the absolute-value sum differs from the signed one only if some term
    # is negative; negate the terms at one t that first occurs past chunk 0
    import mcycle.greens as greens

    z1, z2 = REF_POINTS[1]
    t = _t_values(1, z1, z2, 300)
    target = t[3 * _EVAL_CHUNK + 17]
    assert np.flatnonzero(t == target).min() >= _EVAL_CHUNK

    def negated(q_eval):
        def q(order, tt):
            out = q_eval(order, tt)
            out[tt == target] *= -1.0
            return out
        return q

    want = _reference_green_single(2, 1, z1, z2, 300, negated(_reference_q_eval))
    monkeypatch.setattr(greens, "_q_eval_array", negated(greens._q_eval_array))
    got = _green_single(2, 1, z1, z2, 300)
    assert _bits(got) == _bits(want)
    monkeypatch.undo()
    assert _bits(_green_single(2, 1, z1, z2, 300)) != _bits(got)


def test_singular_term_in_later_chunk_refused_before_q():
    # z1 is exactly gamma z2 for gamma = ((1, 0), (200, 1)), far past chunk
    # 0; the chunk that holds it is refused before Q_n (infinite at t = 1)
    z2 = 1 / 3 + 1.6j
    one, c200 = np.array([1]), np.array([200])
    z1 = complex(((one * z2 + 0 * one) / (c200 * z2 + one))[0])
    _, _, c, d = _det_m_arrays(1, 300)
    assert np.flatnonzero((c == 200) & (d == 1))[0] >= _EVAL_CHUNK
    with pytest.raises(OnSingularLocus):
        _reference_green_single(1, 1, z1, z2, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OnSingularLocus, match="orbit of z2"):
            _green_single(1, 1, z1, z2, 300)


def test_green_single_refuses_t_rounded_to_one():
    # 1.2e-8 from z2 passes the distance test, but t rounds to 1, where Q_1
    # is infinite: the whole-box reference sums inf, the ladder refuses the
    # point before evaluating Q
    z1, z2 = 1.2e-8 + 2j, 2j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isinf(float(_reference_green_single(1, 1, z1, z2, 50).value.val))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OnSingularLocus, match="orbit of z2"):
            _green_single(1, 1, z1, z2, 50)


def _assert_exact_sum_is_fsum(vals, cuts):
    # the running totals, read after each add, are fsum of the prefix so far
    acc = _ExactSum()
    for lo, hi in zip([0, *cuts], [*cuts, len(vals)]):
        acc.add(vals[lo:hi])
        assert acc.total().hex() == math.fsum(vals[:hi].tolist()).hex()
        assert acc.total(absolute=True).hex() == math.fsum(np.abs(vals[:hi]).tolist()).hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example([], False, 0)
@example([5e-324], False, 0)
@example([-2.5e-310, 1e300, 3.0], True, 1)
def test_exact_sum_matches_fsum(xs, cancel, seed):
    # mixed signs, subnormals and exponents up to 1e300; cancel appends the
    # negations, so the exact sum is zero
    if cancel:
        xs = xs + [-x for x in reversed(xs)]
    vals = np.array(xs, dtype=np.float64)
    cuts = np.random.default_rng(seed).integers(0, len(vals) + 1, 3)
    _assert_exact_sum_is_fsum(vals, sorted(cuts.tolist()))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([_EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1, 2 * _EVAL_CHUNK + 7]),
       st.sampled_from(["wide", "subnormal", "cancel", "positive"]),
       st.integers(0, 2 ** 32 - 1))
def test_exact_sum_matches_fsum_across_chunks(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "wide":  # |x| from 1e-300 to 1e300, mixed signs
        vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    elif kind == "subnormal":
        vals = np.ldexp(rng.integers(-2 ** 52, 2 ** 52, n).astype(np.float64), -1074)
    elif kind == "cancel":
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-20, 20, n // 2)
        vals = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    else:  # the shape of Q_n values
        vals = rng.uniform(0.0, 40.0, n) * 10.0 ** rng.integers(-30, 2, n)
    _assert_exact_sum_is_fsum(vals, list(range(_EVAL_CHUNK, n, _EVAL_CHUNK)))


@pytest.mark.parametrize("vals", [[math.inf, 1.0], [1.0, -math.inf], [math.nan, 2.0],
                                  [math.inf, -math.inf], [math.inf, math.inf, -3.0]])
def test_exact_sum_non_finite_like_fsum(vals):
    def outcome(f):
        try:
            return repr(f())
        except ValueError as exc:
            return str(exc)

    acc = _ExactSum()
    acc.add(np.array(vals))
    assert outcome(acc.total) == outcome(lambda: math.fsum(vals))
    assert outcome(lambda: acc.total(absolute=True)) == repr(math.fsum(np.abs(vals)))
