import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, workdps

from mcycle.arith import (
    BigComplex,
    BigReal,
    QuadVal,
    UniPoly,
    as_quadval,
    quad_solve,
    rat_from_str,
    rat_to_str,
    recognize_algebraic,
)
from mcycle.errors import (
    DegenerateQuadratic,
    IncompatibleRadicands,
    InsufficientPrecision,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestQuadVal:
    def test_canonicalization_example(self):
        # 0 + 2*sqrt(8) normalizes to 0 + 4*sqrt(2)
        v = QuadVal(0, 2, 8)
        assert v.coef == 4 and v.rad == 2

    def test_perfect_square_folds(self):
        v = QuadVal(1, 3, 4)
        assert v.is_rational and v.rat == 7

    def test_denominator_cleared(self):
        v = QuadVal(0, 1, F(1, 2))  # sqrt(1/2) = (1/2) sqrt 2
        assert v.coef == F(1, 2) and v.rad == 2

    def test_negative_radicand(self):
        v = QuadVal(0, 1, -4)
        assert v.is_complex and v.coef == 2 and v.rad == -1

    def test_large_square_factor(self):
        p = 1000003
        v = QuadVal(0, 1, 2 * p * p)
        assert v.coef == p and v.rad == 2

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    @settings(max_examples=150, deadline=None)
    def test_field_axioms_in_sqrt5(self, a, b, c, d):
        x = QuadVal(a, b, 5)
        y = QuadVal(c, d, 5)
        z = QuadVal(F(1, 3), F(-2, 7), 5)
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert (x * x.inverse()).rat == 1
        assert (x - x).is_zero()

    def test_mixed_radicands_raise(self):
        with pytest.raises(IncompatibleRadicands):
            QuadVal(0, 1, 2) + QuadVal(0, 1, 3)

    def test_rational_mixes_with_anything(self):
        v = QuadVal(0, 1, 7) + F(1, 2)
        assert v.rat == F(1, 2) and v.rad == 7

    def test_exact_sign(self):
        # 7 - 4*sqrt(3) > 0 (since 49 > 48), 7 - 5*sqrt(2) < 0 (49 < 50)
        assert QuadVal(7, -4, 3).sign() == 1
        assert QuadVal(7, -5, 2).sign() == -1
        assert QuadVal(0, 0, 0).sign() == 0
        assert QuadVal(1, 1, 2) > QuadVal(2, 0, 0)

    def test_equality_matches_numeric_on_random_samples(self):
        rng = random.Random(7)
        with workdps(100):
            for _ in range(1000):
                a = F(rng.randint(-20, 20), rng.randint(1, 9))
                b = F(rng.randint(-20, 20), rng.randint(1, 9))
                r = rng.randint(0, 30)
                k = rng.randint(1, 5)
                x = QuadVal(a, b, r)
                # same value in a deliberately non-canonical presentation
                y = QuadVal(a, F(b, k), r * k * k)
                assert x == y
                z = QuadVal(a + F(1, 997), b, r)
                num_eq = abs(x.to_mpf(100) - z.to_mpf(100)) < mpf(10) ** -80
                assert (x == z) == num_eq

    def test_pow_and_norm(self):
        x = QuadVal(1, 1, 2)
        assert x ** 2 == QuadVal(3, 2, 2)
        assert x.norm() == -1
        assert (x ** 3) * x.inverse() == x ** 2

    def test_json_round_trip(self):
        x = QuadVal(F(-3, 7), F(2, 5), 10)
        assert QuadVal.from_json(x.to_json()) == x


class TestQuadSolve:
    def test_sqrt2(self):
        r1, r2 = quad_solve(1, 0, -2)
        assert r1 == QuadVal(0, 1, 2) and r2 == QuadVal(0, -1, 2)

    def test_rational_roots(self):
        r1, r2 = quad_solve(1, -3, 2)
        assert {r1, r2} == {as_quadval(2), as_quadval(1)}
        assert r1.coef == 0 and r2.coef == 0

    def test_degenerate(self):
        with pytest.raises(DegenerateQuadratic):
            quad_solve(0, 1, 1)

    @given(a=rationals.filter(lambda x: x != 0), b=rationals, c=rationals)
    @settings(max_examples=200, deadline=None)
    def test_vieta_and_evaluation(self, a, b, c):
        r1, r2 = quad_solve(a, b, c)
        assert r1 + r2 == as_quadval(F(-b) / a)
        assert r1 * r2 == as_quadval(F(c) / a)
        for r in (r1, r2):
            assert (a * r * r + b * r + c).is_zero()

    def test_complex_roots_exact(self):
        r1, r2 = quad_solve(1, 0, 1)
        assert r1.is_complex and r1 == QuadVal(0, 1, -1)
        assert (r1 * r1 + 1).is_zero()


class TestBigReal:
    def test_digits_and_json(self):
        x = BigReal.from_rat(F(1, 3), 50)
        assert x.digits >= 45
        d = x.to_json()
        assert d["digits"] == x.digits and d["value"].startswith("0.333")

    def test_min_precision_enforced(self):
        with pytest.raises(ValueError):
            BigReal(1, 0, 10)

    def test_error_bound_honest_on_chains(self):
        # a mixed chain of length 10^4 re-run at doubled precision must move
        # less than the first run's claimed error
        def chain(dps):
            x = BigReal.from_rat(F(1, 3), dps)
            y = BigReal.from_rat(F(7, 11), dps)
            for i in range(1, 10000):
                x = x * y + BigReal.from_rat(F(1, i + 3), dps)
                if i % 17 == 0:
                    x = x / y
                if i % 29 == 0:
                    x = abs(x).sqrt()
            return x

        lo = chain(40)
        hi = chain(80)
        with workdps(90):
            assert abs(lo.val - hi.val) < lo.err

    def test_sqrt_log_exp(self):
        x = BigReal.from_rat(2, 60)
        s = x.sqrt()
        with workdps(60):
            assert abs(s.val - mp.sqrt(2)) < mpf(10) ** -55
        l = x.log()
        with workdps(60):
            assert abs(l.val - mp.log(2)) < mpf(10) ** -55
        e = BigReal.from_rat(1, 40).exp()
        with workdps(40):
            assert abs(e.val - mp.e) < mpf(10) ** -35

    def test_division_guard(self):
        tiny = BigReal(mpf(10) ** -30, mpf(10) ** -29, 40)
        with pytest.raises(InsufficientPrecision):
            BigReal.from_rat(1, 40) / tiny

    def test_log_guard(self):
        straddles_zero = BigReal(mpf(10) ** -30, mpf(10) ** -29, 40)
        with pytest.raises(InsufficientPrecision):
            straddles_zero.log()


class TestBigComplex:
    def test_principal_sqrt(self):
        x = BigComplex(-4, 0, 40)
        s = x.sqrt()
        assert s.val.imag > 0 and abs(s.val.real) < mpf(10) ** -35

    def test_abs_and_conjugate(self):
        z = QuadVal(1, 1, -1).to_bigcomplex(50)  # 1 + i
        with workdps(50):
            assert abs(abs(z).val - mp.sqrt(2)) < mpf(10) ** -45
        assert z.conjugate().val.imag < 0

    def test_high_precision_survives_ops(self):
        # regression: unary minus / abs must not round at ambient precision
        z = QuadVal(0, 1, 3).to_bigcomplex(60)
        w = z - QuadVal(0, 1, 3).to_bigcomplex(60)
        assert abs(w.val) < mpf(10) ** -55

    def test_mixed_real_complex_promotes_exactly(self):
        # a BigReal operand meets a BigComplex exactly as if promoted by hand,
        # in either order: the shared core coerces to the wider type
        x = QuadVal(F(-3, 7), 2, 5).to_bigreal(45)
        z = QuadVal(F(1, 3), F(-2, 5), -7).to_bigcomplex(40)
        xz = BigComplex(x.val, x.err, x.dps)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for got, want in ((op(x, z), op(xz, z)), (op(z, x), op(z, xz))):
                assert isinstance(got, BigComplex)
                assert (got.val, got.err, got.dps) == (want.val, want.err, want.dps)
        assert type(abs(x)) is BigReal and type(abs(z)) is BigReal


class TestUniPoly:
    def test_normalizes_trailing_zeros(self):
        p = UniPoly((1, 2, 0, 0))
        assert p.degree == 1 and len(p.coeffs) == 2

    def test_str_and_eval(self):
        p = UniPoly((-1, -1, 1))
        assert p(2) == 1
        assert "x^2" in str(p)


class TestRecognizeAlgebraic:
    def test_rational_half(self):
        x = BigReal.from_rat(F(1, 2), 60)
        p = recognize_algebraic(x, 2, 10)
        assert p is not None and p.coeffs == (F(-1), F(2))

    def test_golden_ratio(self):
        with workdps(70):
            val = (1 + mp.sqrt(5)) / 2
        x = BigReal(val, mpf(10) ** -62, 70)
        p = recognize_algebraic(x, 2, 10)
        assert p is not None
        assert p.coeffs == (F(-1), F(-1), F(1))  # x^2 - x - 1
        # exact substitution: phi^2 = phi + 1, so p(phi) = (a0+a2) + (a1+a2) phi
        a0, a1, a2 = p.coeffs
        assert a0 + a2 == 0 and a1 + a2 == 0

    def test_pi_not_recognized(self):
        with workdps(70):
            x = BigReal(mp.pi, mpf(10) ** -62, 70)
        assert recognize_algebraic(x, 4, 100) is None

    def test_small_value_no_monomial_relation(self):
        # x^7 is below 10^-(digits-10) in absolute terms, but a monomial
        # relation is no evidence that x is algebraic
        with workdps(75):
            x = BigReal(mp.pi / 4 * mpf(10) ** -9, mpf(10) ** -80, 75)
        assert x.digits >= 70
        assert recognize_algebraic(x, 8, 10**6) is None
        # x^8 falls below the PSLQ tolerance: no relation, not an error
        with workdps(60):
            tiny = BigReal(mp.pi * mpf(10) ** -11, mpf(10) ** -72, 60)
        assert recognize_algebraic(tiny, 8, 10**6) is None

    def test_insufficient_precision(self):
        x = BigReal(mpf("0.5"), mpf(10) ** -20, 40)
        with pytest.raises(InsufficientPrecision):
            recognize_algebraic(x, 2, 10)

    def test_deterministic(self):
        with workdps(70):
            val = mp.sqrt(2) + 1
        x = BigReal(val, mpf(10) ** -60, 70)
        p1 = recognize_algebraic(x, 4, 50)
        p2 = recognize_algebraic(x, 4, 50)
        assert p1 == p2
        assert p1.coeffs == (F(-1), F(-2), F(1))  # x^2 - 2x - 1


def test_rat_str_helpers():
    assert rat_to_str(F(3, 7)) == "3/7"
    assert rat_to_str(F(5)) == "5"
    assert rat_from_str("3/7") == F(3, 7)
    assert rat_from_str("0.25") == F(1, 4)
