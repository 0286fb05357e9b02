"""Exact rational and quadratic-extension arithmetic, plus arbitrary-precision
reals/complexes with conservative error accounting.

Values stay exact (Rat / QuadVal) until an operation leaves the quadratic
closure (nested radicals, logs); from there on BigReal / BigComplex carry an
absolute error bound alongside the mpmath value, so reported digits are
trustworthy. The two share one midpoint-radius core (`_Ball`): the same
error-propagation rule for + - * /, with the complex ball's radius bounding
the modulus of its error. A BigReal meeting a BigComplex is promoted to the
complex type, so mixed expressions need no hand conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Optional

from mpmath import mp, mpf, mpc, workdps

from .errors import (
    DegenerateQuadratic,
    IncompatibleRadicands,
    InsufficientPrecision,
)

Rat = Fraction

_TRIAL_LIMIT = 1_000_000


def rat_from_str(s: str) -> Rat:
    """Parse "p/q" or a decimal string into an exact rational."""
    return Fraction(s.strip())


def rat_to_str(r: Rat) -> str:
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


def rat_from_mpf(x) -> Rat:
    """Exact rational value of an mpf (mpf values are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # gmpy2 backend hands out mpz; keep Fractions pure
    if man == 0:
        return Fraction(0)
    val = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -val if sign else val


_BLOCK = 1 << 14  # width of one range of primes in _prime_block


@lru_cache(maxsize=None)
def _prime_block(j: int, limit: int) -> tuple[int, int]:
    """(least prime, product of the primes) in [j*_BLOCK, (j+1)*_BLOCK) up
    to limit, by a segmented sieve."""
    lo, hi = j * _BLOCK, min((j + 1) * _BLOCK, limit + 1)
    sieve = bytearray([1]) * (hi - lo)
    if lo == 0:
        sieve[:2] = b"\0\0"  # 0 and 1
    for p in range(2, math.isqrt(hi - 1) + 1):
        start = max(p * p, -(-lo // p) * p)
        sieve[start - lo::p] = bytes(len(range(start - lo, hi - lo, p)))
    primes = list(compress(range(lo, hi), sieve))
    return primes[0], math.prod(primes)


@lru_cache(maxsize=4096)
def _square_free_split(n: int) -> tuple[int, int]:
    """|n| = s^2 * m with m square-free (best effort beyond the trial bound).

    The primes up to the trial bound (10^6, or 1000 for radicands over 192
    bits: square factors of large primes may then survive in the radicand,
    which keeps values exact but non-minimal, a documented engineering
    bound) are removed block by block: g = gcd(r, product of the block's
    primes) holds the block's primes dividing r, and repeating r //= g,
    g' = gcd(r, g) leaves in g the primes of multiplicity at least 1, 2, 3,
    ...; s takes g at even levels and m takes g // g' at odd ones. The
    blocks stop early once the next block's least prime P has P^3 > r: every
    prime factor of the remainder r is then at least P, so it has at most
    two. A perfect-square test on the remainder finishes the job.

    This is the result of plain trial division over 2, 3, 5, 7, 9, ... while
    p^3 <= r and p <= bound, then the same square test (an odd composite
    never divides r, its primes are gone by then). Both remove primes in
    increasing order and end in one of two ways:
    - with every prime up to the bound removed, so the remainder is the
      bound-rough part of |n|, the same for both;
    - early, with a remainder of at most two prime factors, so the square
      test splits it exactly; an exact split is unique (m square-free fixes
      s), so two exact results agree.
    Trial division stops early at or before the P where the blocks stop
    (its test at P sees the same r), and if only trial division stops early,
    the blocks' remainder divides its remainder, so is exact too. Only when
    both remove every prime up to the bound can the result be non-minimal,
    and then both test the same remainder.
    """
    if n == 0:
        return 1, 0
    s, sf, r = 1, 1, abs(n)
    limit = _TRIAL_LIMIT if r.bit_length() <= 192 else 1000
    for j in range(limit // _BLOCK + 1):
        first, prod = _prime_block(j, limit)
        if first ** 3 > r:
            break
        g, odd = math.gcd(r, prod), True
        while g > 1:
            r //= g
            nxt = math.gcd(r, g)
            if odd:
                sf *= g // nxt
            else:
                s *= g
            g, odd = nxt, not odd
    rt = math.isqrt(r)
    if rt * rt == r:
        s *= rt
    else:
        sf *= r
    return s, sf


@dataclass(frozen=True)
class QuadVal:
    """Exact value rat + coef*sqrt(rad) with rat, coef, rad rational.

    Canonical form: rad is a square-free integer (negative allowed: the value
    is then rat + coef*i*sqrt(|rad|)); coef = 0 forces rad = 0. Equality is
    decidable exactly. Use the module helpers / operators; all operations
    require operands in the same quadratic field (or a rational side).
    """

    rat: Rat
    coef: Rat
    rad: Rat

    def __post_init__(self):
        rat = Fraction(self.rat)
        coef = Fraction(self.coef)
        rad = Fraction(self.rad)
        if coef == 0 or rad == 0:
            coef, rad = Fraction(0), Fraction(0)
        elif rad != 0:
            # clear the denominator: p/q = p*q / q^2
            n = rad.numerator * rad.denominator
            coef /= rad.denominator
            sgn = 1 if n > 0 else -1
            s, m = _square_free_split(n)
            coef *= s
            rad = Fraction(sgn * m)
            if m == 1:
                # perfect square: fold into the rational part
                rat += coef if sgn > 0 else 0
                if sgn > 0:
                    coef, rad = Fraction(0), Fraction(0)
                else:
                    rad = Fraction(-1)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rat(r) -> "QuadVal":
        return QuadVal(Fraction(r), Fraction(0), Fraction(0))

    @staticmethod
    def sqrt_rat(r) -> "QuadVal":
        """Exact sqrt of a rational: QuadVal(0, 1, r)."""
        return QuadVal(Fraction(0), Fraction(1), Fraction(r))

    # -- predicates ---------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.coef == 0

    @property
    def is_complex(self) -> bool:
        return self.coef != 0 and self.rad < 0

    def is_zero(self) -> bool:
        return self.rat == 0 and self.coef == 0

    def radicand_key(self) -> Optional[Rat]:
        return None if self.coef == 0 else self.rad

    # -- field arithmetic ---------------------------------------------------
    @staticmethod
    def _coerce(x) -> "QuadVal":
        if isinstance(x, QuadVal):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadVal.from_rat(x)
        return NotImplemented

    def _common_rad(self, other: "QuadVal") -> Rat:
        a, b = self.radicand_key(), other.radicand_key()
        if a is None:
            return b if b is not None else Fraction(0)
        if b is None or a == b:
            return a
        raise IncompatibleRadicands(f"sqrt({a}) vs sqrt({b})")

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        rad = self._common_rad(o)
        return QuadVal(self.rat + o.rat, self.coef + o.coef, rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadVal(-self.rat, -self.coef, self.rad)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        rad = self._common_rad(o)
        rat = self.rat * o.rat + self.coef * o.coef * rad
        coef = self.rat * o.coef + self.coef * o.rat
        return QuadVal(rat, coef, rad)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadVal":
        return QuadVal(self.rat, -self.coef, self.rad)

    def norm(self) -> Rat:
        """Field norm rat^2 - coef^2 * rad."""
        return self.rat * self.rat - self.coef * self.coef * self.rad

    def inverse(self) -> "QuadVal":
        n = self.norm()
        if n == 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            # rat^2 = coef^2 * rad with rad square-free forces rat=coef=0
            raise ZeroDivisionError("inverse of zero-norm value")
        return QuadVal(self.rat / n, -self.coef / n, self.rad)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadVal.from_rat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order (real values only) --------------------------------------
    def sign(self) -> int:
        """Exact sign of a real QuadVal (-1, 0, 1)."""
        if self.is_complex:
            raise ValueError("sign of a complex QuadVal")
        a, b = self.rat, self.coef
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 * rad
        lhs, rhs = a * a, b * b * self.rad
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    # -- numeric conversion --------------------------------------------------
    def to_mpf(self, dps: int) -> mpf:
        if self.is_complex:
            raise ValueError("complex QuadVal has no mpf value")
        return self.to_mpc(dps).real

    def to_mpc(self, dps: int) -> mpc:
        with workdps(dps + 10):
            v = mpc(mpf(self.rat.numerator) / self.rat.denominator)
            if self.coef != 0:
                c = mpf(self.coef.numerator) / self.coef.denominator
                r = mpf(self.rad.numerator) / self.rad.denominator
                if self.rad > 0:
                    v += c * mp.sqrt(r)
                else:
                    v += mpc(0, c * mp.sqrt(-r))
            return +v

    def to_bigreal(self, dps: int) -> "BigReal":
        v = self.to_mpf(dps)
        return BigReal(v, abs(v) * _eps(dps) * 4, dps)

    def to_bigcomplex(self, dps: int) -> "BigComplex":
        v = self.to_mpc(dps)
        return BigComplex(v, abs(v) * _eps(dps) * 4, dps)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "rat": rat_to_str(self.rat),
            "coef": rat_to_str(self.coef),
            "rad": rat_to_str(self.rad),
        }

    @staticmethod
    def from_json(d: dict) -> "QuadVal":
        return QuadVal(rat_from_str(d["rat"]), rat_from_str(d["coef"]), rat_from_str(d["rad"]))

    def __str__(self):
        if self.coef == 0:
            return rat_to_str(self.rat)
        s = "" if self.rat == 0 else f"{rat_to_str(self.rat)} + "
        return f"{s}{rat_to_str(self.coef)}*sqrt({rat_to_str(self.rad)})"


def as_quadval(x) -> QuadVal:
    if isinstance(x, QuadVal):
        return x
    return QuadVal.from_rat(Fraction(x))


def _eps(dps: int) -> mpf:
    return mpf(10) ** (1 - dps)


class _Ball:
    """Error-tracked arbitrary-precision number, the one rule shared by
    BigReal (an mpf value) and BigComplex (an mpc value).

    `val` is computed at `dps` working digits; `err` bounds |true - val|
    (the modulus for complex values). Every operation propagates the operand
    errors and adds the rounding of its result, so guaranteed decimal digits
    are derived, never asserted. Mixed operands meet in the wider type.
    """

    __slots__ = ("val", "err", "dps")
    _mp_type = mpf

    def __init__(self, val, err=0, dps: int = 50):
        if dps < 16:
            raise ValueError("working precision must be at least 16 digits")
        self.dps = dps
        with workdps(dps):
            self.val = self._mp_type(val)
            self.err = mpf(err)
        if self.err < 0:
            raise ValueError("negative error bound")

    @property
    def digits(self) -> int:
        """Count of guaranteed significant decimal digits: floor(log10 q)
        for q = |val| / err, taken at `dps` digits.

        The log is taken at 20 digits, and at `dps` digits only when the short
        one lies within 1e-9 * max(1, log) of an integer. Both logs of the
        same q are within 1e-15 * max(1, log) of the true one (mpmath's log is
        accurate to a few units in the last place, and dps >= 16), so they
        differ by far less than that margin: when the short log is farther
        than the margin from every integer, no integer lies between the two
        logs and their floors agree.
        """
        if self.err == 0:
            return self.dps
        if self.val == 0:
            return 0
        with workdps(self.dps):
            q = abs(self.val) / self.err
            if q <= 1:
                return 0
            with workdps(20):
                lg = mp.log10(q)
                n = mp.floor(lg)
                if min(lg - n, n + 1 - lg) > 1e-9 * max(1, lg):
                    return int(n)
            return int(mp.floor(mp.log10(q)))

    def _binop_dps(self, other: "_Ball") -> int:
        return max(self.dps, other.dps)

    def __add__(self, other):
        o = self._coerce(other, self.dps)
        if o is NotImplemented:
            return o
        dps = self._binop_dps(o)
        with workdps(dps):
            v = self.val + o.val
            return type(self)(v, self.err + o.err + abs(v) * _eps(dps), dps)

    __radd__ = __add__

    def __neg__(self):
        with workdps(self.dps):
            return type(self)(-self.val, self.err, self.dps)

    def __sub__(self, other):
        o = self._coerce(other, self.dps)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other, self.dps)
        if o is NotImplemented:
            return o
        dps = self._binop_dps(o)
        with workdps(dps):
            v = self.val * o.val
            err = (
                abs(self.val) * o.err
                + abs(o.val) * self.err
                + self.err * o.err
                + abs(v) * _eps(dps)
            )
            return type(self)(v, err, dps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.dps)
        if o is NotImplemented:
            return o
        dps = self._binop_dps(o)
        with workdps(dps):
            if abs(o.val) <= 2 * o.err:
                raise InsufficientPrecision("divisor not bounded away from zero")
            v = self.val / o.val
            err = (self.err + abs(v) * o.err) / (abs(o.val) - o.err) + abs(v) * _eps(dps)
            return type(self)(v, err, dps)

    def __rtruediv__(self, other):
        o = self._coerce(other, self.dps)
        if o is NotImplemented:
            return o
        return o / self

    def __abs__(self) -> "BigReal":
        with workdps(self.dps):
            return BigReal(abs(self.val), self.err, self.dps)

    def __repr__(self):
        return f"{type(self).__name__}({self.val!r}, err={self.err!r}, dps={self.dps})"


class BigReal(_Ball):
    """Arbitrary-precision real with a tracked absolute error bound."""

    __slots__ = ()

    @staticmethod
    def from_rat(r, dps: int = 50) -> "BigReal":
        r = Fraction(r)
        with workdps(dps):
            v = mpf(r.numerator) / r.denominator
        return BigReal(v, abs(v) * _eps(dps), dps)

    @staticmethod
    def exact_float(x: float, dps: int = 50) -> "BigReal":
        """Wrap a float taken as exact (floats are dyadic rationals)."""
        return BigReal(mpf(x), 0, dps)

    @staticmethod
    def _coerce(x, dps) -> "BigReal":
        if isinstance(x, BigReal):
            return x
        if isinstance(x, (int, Fraction)):
            return BigReal.from_rat(Fraction(x), dps)
        if isinstance(x, QuadVal):
            return x.to_bigreal(dps)
        return NotImplemented

    def sqrt(self) -> "BigReal":
        with workdps(self.dps):
            lo = self.val - self.err
            if self.val < 0 and lo < 0 and self.val + self.err < 0:
                raise ValueError("sqrt of a negative BigReal; use BigComplex")
            if lo > 0:
                v = mp.sqrt(self.val)
                err = self.err / (2 * mp.sqrt(lo)) + abs(v) * _eps(self.dps)
            else:
                v = mp.sqrt(max(self.val, mpf(0)))
                err = mp.sqrt(self.err) + abs(v) * _eps(self.dps)
            return BigReal(v, err, self.dps)

    def log(self) -> "BigReal":
        with workdps(self.dps):
            lo = self.val - self.err
            if lo <= 0:
                raise InsufficientPrecision("log argument not bounded away from zero")
            v = mp.log(self.val)
            return BigReal(v, self.err / lo + abs(v) * _eps(self.dps), self.dps)

    def exp(self) -> "BigReal":
        with workdps(self.dps):
            v = mp.exp(self.val)
            if self.err < 1:
                prop = abs(v) * self.err * 2
            else:
                prop = abs(v) * (mp.exp(self.err) - 1)
            return BigReal(v, prop + abs(v) * _eps(self.dps), self.dps)

    def __float__(self):
        return float(self.val)

    def to_json(self) -> dict:
        with workdps(self.dps):
            return {"value": mp.nstr(self.val, max(self.digits, 1), strip_zeros=False),
                    "digits": self.digits}


class BigComplex(_Ball):
    """Arbitrary-precision complex with a tracked absolute (modulus) error bound."""

    __slots__ = ()
    _mp_type = mpc

    @staticmethod
    def _coerce(x, dps) -> "BigComplex":
        if isinstance(x, BigComplex):
            return x
        if isinstance(x, QuadVal):
            return x.to_bigcomplex(dps)
        r = BigReal._coerce(x, dps)
        return r if r is NotImplemented else BigComplex(r.val, r.err, r.dps)

    def sqrt(self) -> "BigComplex":
        """Principal branch."""
        with workdps(self.dps):
            v = mp.sqrt(self.val)
            m = abs(self.val)
            if m > 4 * self.err and m > 0:
                err = self.err / (2 * mp.sqrt(m - self.err)) + abs(v) * _eps(self.dps)
            else:
                err = mp.sqrt(self.err) + abs(v) * _eps(self.dps)
            return BigComplex(v, err, self.dps)

    def conjugate(self) -> "BigComplex":
        with workdps(self.dps):
            return BigComplex(self.val.conjugate(), self.err, self.dps)

    @property
    def real(self) -> BigReal:
        return BigReal(self.val.real, self.err, self.dps)

    @property
    def imag(self) -> BigReal:
        return BigReal(self.val.imag, self.err, self.dps)

    def to_json(self) -> dict:
        with workdps(self.dps):
            d = max(self.digits, 1)
            return {
                "re": mp.nstr(self.val.real, d, strip_zeros=False),
                "im": mp.nstr(self.val.imag, d, strip_zeros=False),
                "digits": self.digits,
            }


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial, coefficients lowest degree first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs != (Fraction(0),) else 0

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + (mpf(c.numerator) / c.denominator if isinstance(x, (mpf, mpc)) else c)
        return out

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_to_str(c))
            elif i == 1:
                terms.append(f"{rat_to_str(c)}*x")
            else:
                terms.append(f"{rat_to_str(c)}*x^{i}")
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> list:
        return [rat_to_str(c) for c in self.coeffs]


QuadPair = tuple[QuadVal, QuadVal]


def quad_solve(A, B, C) -> QuadPair:
    """Exact roots of A*X^2 + B*X + C = 0 with rational coefficients.

    Returns ((-B + sqrt(disc))/(2A), (-B - sqrt(disc))/(2A)) as QuadVals; the
    +sqrt branch comes first. A negative discriminant yields exact complex
    QuadVals (is_complex set); convert with .to_bigcomplex() for numerics.
    """
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    if A == 0:
        raise DegenerateQuadratic("leading coefficient is zero")
    disc = B * B - 4 * A * C
    half = Fraction(1, 2) / A
    root = QuadVal(-B * half, half, disc)
    root_m = QuadVal(-B * half, -half, disc)
    return root, root_m


def recognize_algebraic(x: BigReal, max_degree: int, coeff_bound: int) -> Optional[UniPoly]:
    """Search for a primitive integer polynomial p, deg <= max_degree and
    |coefficients| <= coeff_bound, with |p(x)| < 10^-(digits-10) times the
    largest term |c_i x^i|.

    Integer-relation (PSLQ) over the powers 1, x, ..., x^d, degree ascending,
    so ties break toward least degree. Deterministic for fixed inputs.
    Returns None when no certified candidate exists.
    """
    if max_degree < 1 or max_degree > 8:
        raise ValueError("max_degree must be in 1..8")
    digits = x.digits
    if digits < 50:
        raise InsufficientPrecision(
            f"need >= 50 guaranteed digits, have {digits}"
        )
    tol_exp = digits - 10
    with workdps(x.dps):
        threshold = mpf(10) ** (-tol_exp)
        # pslq acceptance aligned with the certification threshold: tighter
        # than junk relations, looser than the input's own error bound
        pslq_tol = mpf(10) ** (-(digits - 8))
        best = None
        for d in range(1, max_degree + 1):
            powers = [mpf(1)]
            for _ in range(d):
                powers.append(powers[-1] * x.val)
            # a power below the PSLQ tolerance reads as zero there (mpmath
            # refuses such a vector), and higher degrees only shrink it
            if min(abs(p) for p in powers) < pslq_tol:
                break
            rel = mp.pslq(powers, tol=pslq_tol, maxcoeff=coeff_bound,
                          maxsteps=20000)
            if rel is None:
                continue
            if all(c == 0 for c in rel) or max(abs(c) for c in rel) > coeff_bound:
                continue
            # relative to the largest term, so that a monomial relation
            # c*x^d (residual = its only term) never certifies a nonzero x
            terms = [c * p for c, p in zip(rel, powers)]
            if abs(mp.fsum(terms)) > threshold * max(abs(t) for t in terms):
                continue
            g = 0
            for c in rel:
                g = math.gcd(g, abs(c))
            rel = [c // g for c in rel]
            # normalize sign: leading coefficient positive
            lead = next(c for c in reversed(rel) if c != 0)
            if lead < 0:
                rel = [-c for c in rel]
            cand = UniPoly(tuple(Fraction(c) for c in rel))
            if best is None or cand.degree < best.degree:
                best = cand
            if best is not None:
                break
        return best
