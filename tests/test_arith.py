import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf, workdps

from mcycle.arith import (
    _square_free_split,
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


def _reference_square_free_split(n: int) -> tuple[int, int]:
    """Trial division over 2, 3, 5, 7, 9, ... while p^3 <= r and p <= the
    bound (10^6, or 1000 above 192 bits), then a perfect-square test on the
    remainder: the definition `_square_free_split` must reproduce."""
    if n == 0:
        return 1, 0
    s, sf, r = 1, 1, abs(n)
    limit = 1_000_000 if r.bit_length() <= 192 else 1000
    p = 2
    while p * p * p <= r and p <= limit:
        if r % p == 0:
            k = 0
            while r % p == 0:
                r //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                sf *= p
        p += 1 if p == 2 else 2
    rt = math.isqrt(r)
    if rt * rt == r:
        s *= rt
    else:
        sf *= r
    return s, sf


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


# the primes on either side of the sieve's block edges (multiples of 2^14),
# of the trial bounds 1000 and 10^6, and past the bound
EDGE_PRIMES = (2, 3, 16381, 16411, 32749, 32771, 999389, 999431,
               997, 1009, 999983, 1000003, 10**9 + 7)


class TestSquareFreeSplit:
    def test_edge_primes_are_prime(self):
        assert all(_is_prime(p) for p in EDGE_PRIMES[:-1])

    def test_constructed_cases(self):
        cases = [0, 1, -1, 4, -4, 8, 12, -12, 2**40, 3**21, 6**10 * 7,
                 997**2 * 1009**3, 2 * 999983**2 * 1000003**2]
        for p in EDGE_PRIMES:
            cases += [p * p, p**3, -3 * p * p]
            cases += [p * p * q for q in (2, 997, 1000003)]
        for n in cases:
            assert _square_free_split(n) == _reference_square_free_split(n), n

    def test_192_and_193_bits(self):
        rng = random.Random(192)
        cases = []
        for bits in (192, 193):
            for sq in (997, 1009, 999983, 1000003):
                lo = -(-(1 << (bits - 1)) // (sq * sq))
                hi = ((1 << bits) - 1) // (sq * sq)
                cases.append(sq * sq * rng.randint(lo, hi))
            cases += [(1 << (bits - 1)) + 1, (1 << bits) - 1]
        assert {n.bit_length() for n in cases} == {192, 193}
        for n in cases:
            assert _square_free_split(n) == _reference_square_free_split(n), n
        # above 192 bits the square of a prime past 1000 stays in the radicand
        big = 1009**2 * ((1 << 180) + 7)
        s, m = _square_free_split(big)
        assert big.bit_length() > 192 and m % 1009**2 == 0 and s * s * m == big

    @given(base=st.integers(min_value=-(2**40), max_value=2**40),
           sq=st.sampled_from((1, 2, 997, 1009, 16381, 16411, 999983, 1000003)),
           k=st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division(self, base, sq, k):
        n = base * sq**k
        if n.bit_length() > 64:  # keep the slow reference to a few calls
            n = base
        assert _square_free_split(n) == _reference_square_free_split(n)
        s, m = _square_free_split(n)
        assert s * s * m == abs(n)



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


def _reference_digits(x) -> int:
    """`digits` as floor(log10(|val| / err)) taken at the full `dps`."""
    if x.err == 0:
        return x.dps
    if x.val == 0:
        return 0
    with workdps(x.dps):
        q = abs(x.val) / x.err
        return 0 if q <= 1 else int(mp.floor(mp.log10(q)))


class TestDigits:
    @pytest.mark.parametrize("dps, ks, js", [
        (16, (-5, 0, 1, 2, 15, 16, 17, 300), (1, 10, 30, 50, 53, 54, 60, 100)),
        (50, (-5, 0, 1, 2, 49, 50, 51, 1000), (1, 30, 100, 160, 166, 170, 200, 300)),
        (1015, (0, 1, 1014, 1015, 5000), (1, 100, 3000, 3370, 3375, 3400, 4000)),
    ])
    def test_matches_full_precision_log_near_powers_of_ten(self, dps, ks, js):
        # q = 10^k (1 +- 2^-j): the short log lands within 1e-9 of k for
        # large j, and q rounds to 10^k itself once 2^-j is below one ulp
        for k in ks:
            for j in js:
                for sgn in (1, -1):
                    with workdps(dps + 20):
                        q = mpf(10) ** k * (1 + sgn * mpf(2) ** -j)
                        err = mpf(3) ** -5
                        vals = (BigReal(q, 1, dps), BigReal(-q * err, err, dps),
                                BigComplex(mpc(q * err, q * err), err, dps))
                    for x in vals:
                        assert x.digits == _reference_digits(x), (dps, k, j, sgn)

    def test_zero_err_zero_val_and_small_ratio(self):
        for dps in (16, 50, 1015):
            assert BigReal(mp.pi, 0, dps).digits == dps
            assert BigReal(0, mpf(10) ** -5, dps).digits == 0
            assert BigComplex(0, 1, dps).digits == 0
            assert BigReal(1, 1, dps).digits == 0  # q = 1
            assert BigReal(-1, 3, dps).digits == 0  # q < 1
            assert BigReal(mpf("10.5"), 1, dps).digits == 1

    def test_random_ratios(self):
        rng = random.Random(16)
        for dps in (16, 50, 1015):
            for _ in range(60):
                with workdps(dps):
                    x = BigReal(mpf(rng.random()) * mpf(10) ** rng.randint(-40, 40),
                                mpf(rng.random()) * mpf(10) ** rng.randint(-60, 5), dps)
                assert x.digits == _reference_digits(x)


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
