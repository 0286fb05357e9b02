"""Numeric evaluation of Legendre Q, higher Green's functions over the
modular group, Hecke translates, and finite principal-part combinations.

The high-precision entry point is legendre_q (tanh-sinh quadrature on the
Laplace integral with an explicit truncation point). The lattice sums use a
float64 fast path: exact-coefficient closed forms of Q_n below t = 2 and the
all-positive hypergeometric series above (validated against the quadrature to
better than 1e-11 relative), accumulated with math.fsum over a canonical
enumeration order, so identical inputs give bit-identical output. green_k
(PSL2(Z), determinant 1) and green_det_m_direct share one cached enumerator of
integer matrices of determinant m and one evaluate-and-budget path; Hecke
translates, principal-part combinations and the regulator cross-check combine
GreensValues through one weighted sum. Truncation
dominates the error budget; the tail estimate is the outer-shell mass
|sum(N) - sum(N/2)|, which over-covers the true remainder under the observed
geometric shell decay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps

from .arith import BigReal, rat_from_str, rat_to_str
from .errors import BudgetExceeded, OnSingularLocus, SingularArgument

_PER_TERM_REL = 1e-11  # validated bound on the float64 Q_n evaluation error


@dataclass(frozen=True)
class UHPoint:
    """Point in the upper half plane; coordinates kept as BigReal."""

    re: BigReal
    im: BigReal

    def __init__(self, re, im, dps: int = 30):
        def big(x) -> BigReal:
            if isinstance(x, BigReal):
                return x
            if isinstance(x, (int, Fraction, str)):
                return BigReal.from_rat(Fraction(x), dps)
            return BigReal(mpf(x), 0, dps)

        re, im = big(re), big(im)
        if not (im.val > 0):
            raise ValueError("im must be positive")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def as_complex(self) -> complex:
        return complex(float(self.re.val), float(self.im.val))

    def as_mpc(self):
        with workdps(max(self.re.dps, self.im.dps)):
            return mp.mpc(self.re.val, self.im.val)

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}

    def __repr__(self):
        return f"UHPoint({self.re.val}, {self.im.val})"


@dataclass(frozen=True)
class PrincipalPart:
    """Finite map m -> c_f(-m), m > 0, rational coefficients."""

    coeffs: tuple  # sorted tuple of (m, Fraction)

    def __init__(self, coeffs):
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = list(coeffs)
        norm = []
        seen = set()
        for m, c in items:
            m = int(m)
            if m <= 0:
                raise ValueError("principal-part indices must be positive")
            if m in seen:
                raise ValueError(f"duplicate index {m}")
            seen.add(m)
            norm.append((m, Fraction(c)))
        if not norm:
            raise ValueError("principal part must be nonempty")
        object.__setattr__(self, "coeffs", tuple(sorted(norm)))

    def to_json(self) -> dict:
        return {"coeffs": {str(m): rat_to_str(c) for m, c in self.coeffs}}

    @staticmethod
    def from_json(d: dict) -> "PrincipalPart":
        return PrincipalPart({int(m): rat_from_str(str(c)) for m, c in d["coeffs"].items()})


@dataclass(frozen=True)
class TruncationPolicy:
    matrix_bound: int = 500
    target_tol: float = 1e-8
    adaptive: bool = False
    max_bound: int = 4000
    singular_threshold: float = 1e-8

    def __post_init__(self):
        if self.matrix_bound < 10:
            raise ValueError("matrix_bound must be >= 10")
        if not self.target_tol > 0:
            raise ValueError("target_tol must be positive")


@dataclass(frozen=True)
class GreensValue:
    value: BigReal
    tail_estimate: BigReal
    terms_summed: int

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "tail_estimate": mp.nstr(self.tail_estimate.val, 3),
            "terms": self.terms_summed,
        }


# ---------------------------------------------------------------------------
# Legendre Q
# ---------------------------------------------------------------------------

def legendre_q(s, t, precision: int = 30) -> BigReal:
    """Q_{s-1}(t) by tanh-sinh quadrature of the Laplace integral
    int_0^inf du / (t + sqrt(t^2-1) cosh u)^s, truncated where the integrand
    drops below 10^-(precision+5). Claimed error stays below 10^-precision."""
    wp = precision + 15
    with workdps(wp):
        t = mpf(t)
        s = mpf(s)
        if t <= 1:
            raise SingularArgument("t must exceed 1")
        if s <= 1:
            raise ValueError("s must exceed 1")
        r = mp.sqrt(t * t - 1)
        # (r e^u / 2)^-s < 10^-(precision+5)  gives the truncation point
        U = mp.log(10) * (precision + 5) / s - mp.log(r / 2) + 1
        U = max(U, mpf(1))
        f = lambda u: (t + r * mp.cosh(u)) ** (-s)
        val, quad_err = mp.quad(f, [0, U], error=True)
        tail = f(U) / s
        err = 4 * mpf(quad_err) + tail + abs(val) * mpf(10) ** (5 - wp)
        err = max(err, abs(val) * mpf(10) ** (-precision - 5))
        return BigReal(val, err, wp)


def legendre_q_closed_q1(t, precision: int = 30) -> BigReal:
    """Independent closed form Q_1(t) = (t/2) ln((t+1)/(t-1)) - 1."""
    with workdps(precision + 15):
        t = mpf(t)
        if t <= 1:
            raise SingularArgument("t must exceed 1")
        v = t / 2 * mp.log((t + 1) / (t - 1)) - 1
        return BigReal(v, abs(v) * mpf(10) ** (1 - precision - 15) * 4, precision + 15)


@lru_cache(maxsize=16)
def _q_tables(order: int) -> tuple:
    """Float tables for Q_order: (P coeffs low->high, W coeffs low->high,
    hypergeometric series coeffs, prefactor constant)."""
    P = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    W = [[Fraction(0)], [Fraction(1)]]
    for m in range(1, max(order, 1)):
        nxtP = [Fraction(0)] * (m + 2)
        for i, c in enumerate(P[m]):
            nxtP[i + 1] += Fraction(2 * m + 1, m + 1) * c
        for i, c in enumerate(P[m - 1]):
            nxtP[i] -= Fraction(m, m + 1) * c
        P.append(nxtP)
        nxtW = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            shifted = W[m][i - 1] if 1 <= i <= len(W[m]) else Fraction(0)
            base = W[m - 1][i] if i < len(W[m - 1]) else Fraction(0)
            nxtW[i] = Fraction(2 * m + 1, m + 1) * shifted - Fraction(m, m + 1) * base
        W.append(nxtW)
    n = order
    # Q_n(t) = pref * 2F1((n+2)/2, (n+1)/2; n+3/2; 1/t^2), pref = sqrt(pi) n! / (G(n+3/2) (2t)^(n+1))
    series = [1.0]
    a_, b_, c_ = (n + 2) / 2.0, (n + 1) / 2.0, n + 1.5
    term = 1.0
    for k in range(48):
        term *= (a_ + k) * (b_ + k) / ((c_ + k) * (k + 1.0))
        series.append(term)
    pref = math.sqrt(math.pi) * math.gamma(n + 1) / math.gamma(n + 1.5)
    return (
        np.array([float(c) for c in P[n]]),
        np.array([float(c) for c in W[n]]),
        np.array(series),
        pref,
    )


def _horner(coeffs_low_to_high: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in coeffs_low_to_high[::-1]:
        acc = acc * x + c
    return acc


def _q_eval_array(order: int, t: np.ndarray) -> np.ndarray:
    """Vectorized float64 Q_order on t > 1."""
    pcoef, wcoef, series, pref = _q_tables(order)
    out = np.empty_like(t)
    lo = t < 2.0
    if np.any(lo):
        tl = t[lo]
        artanh = 0.5 * np.log((tl + 1.0) / (tl - 1.0))
        out[lo] = _horner(pcoef, tl) * artanh - _horner(wcoef, tl)
    hi = ~lo
    if np.any(hi):
        th = t[hi]
        u = 1.0 / (th * th)
        out[hi] = pref / (2.0 * th) ** (order + 1) * _horner(series, u)
    return out


# ---------------------------------------------------------------------------
# fundamental domain reduction
# ---------------------------------------------------------------------------

def reduce_fd(z: UHPoint) -> tuple[UHPoint, tuple]:
    """Reduce to the standard fundamental domain |Re| <= 1/2, |z| >= 1.

    Tie-breaks: Re >= 0 on the unit circle; Re = -1/2 preferred over +1/2.
    Returns (z', M) with z' = M z, M an integer matrix ((a, b), (c, d))."""
    dps = max(z.re.dps, 30)
    with workdps(dps):
        w = mp.mpc(z.re.val, z.im.val)
        a, b, c, d = 1, 0, 0, 1
        eps = mpf(10) ** (8 - dps)
        for _ in range(10000):
            n = int(mp.floor(w.real + mpf(1) / 2))
            if n != 0:
                w -= n
                a, b = a - n * c, b - n * d
            m2 = w.real * w.real + w.imag * w.imag
            if m2 < 1 - eps:
                w = -1 / w
                a, b, c, d = -c, -d, a, b
            else:
                break
        else:
            raise RuntimeError("fundamental-domain reduction did not terminate")
        m2 = w.real * w.real + w.imag * w.imag
        on_circle = abs(m2 - 1) <= eps
        if on_circle and w.real < -eps:
            w = -1 / w
            a, b, c, d = -c, -d, a, b
        elif not on_circle and abs(w.real - mpf(1) / 2) <= eps:
            w -= 1
            a, b = a - c, b - d
        out = UHPoint(BigReal(w.real, 0, dps), BigReal(w.imag, 0, dps))
        return out, ((a, b), (c, d))


def apply_matrix(m: tuple, z: UHPoint) -> UHPoint:
    (a, b), (c, d) = m
    with workdps(max(z.re.dps, 30)):
        w = (a * z.as_mpc() + b) / (c * z.as_mpc() + d)
        return UHPoint(BigReal(w.real, 0, z.re.dps), BigReal(w.imag, 0, z.re.dps))


# ---------------------------------------------------------------------------
# determinant-m enumeration (PSL2(Z) is m = 1)
# ---------------------------------------------------------------------------

def _t_range(x0: int, step: int, bound: int) -> tuple[int, int]:
    """(lo, hi) such that |x0 + t*step| <= bound exactly for lo <= t <= hi;
    step != 0."""
    if step < 0:
        x0, step = -x0, -step
    return -((bound + x0) // step), (bound - x0) // step


def _det_m_blocks(m: int, bound: int):
    """Yield one row (first a, first b, a step, b step, count, c, d) per (c, d)
    block of integer matrices of determinant m with max |entry| <= bound, one
    per +-pair (c > 0, or c = 0 and d > 0); c, then d, then a ascending."""
    for d in range(1, bound + 1):
        if m % d == 0 and m // d <= bound:
            yield m // d, -bound, 0, 1, 2 * bound + 1, 0, d
    for c in range(1, bound + 1):
        for d in range(-bound, bound + 1):
            g = math.gcd(c, d)
            if m % g:
                continue
            cs, ds = c // g, d // g
            x = pow(ds, -1, cs)  # x*ds - y*cs = 1, scaled to determinant m
            a0, b0 = x * (m // g), (x * ds - 1) // cs * (m // g)
            lo, hi = _t_range(a0, cs, bound)
            if ds:
                blo, bhi = _t_range(b0, ds, bound)
                lo, hi = max(lo, blo), min(hi, bhi)
            elif abs(b0) > bound:
                continue
            if lo <= hi:
                yield a0 + lo * cs, b0 + lo * ds, cs, ds, hi - lo + 1, c, d


@lru_cache(maxsize=2)
def _det_m_arrays(m: int, bound: int) -> tuple:
    """The matrices of _det_m_blocks in canonical order as int64 arrays
    (a, b, c, d, maxe); m = 1 gives the PSL2(Z) representatives."""
    rows = np.fromiter(chain.from_iterable(_det_m_blocks(m, bound)), dtype=np.int64)
    a0, b0, sa, sb, n, c, d = rows.reshape(-1, 7).T
    # k: position of each matrix inside its (c, d) block
    k = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    a = np.repeat(a0, n) + k * np.repeat(sa, n)
    b = np.repeat(b0, n) + k * np.repeat(sb, n)
    c, d = np.repeat(c, n), np.repeat(d, n)
    maxe = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    return a, b, c, d, maxe


def _green_single(order: int, m: int, z1: complex, z2: complex, bound: int,
                  singular_threshold: float) -> GreensValue:
    """-2 * the sum of Q_order over the determinant-m box, in canonical order
    with exact accumulation; the tail is the outer-shell mass plus the float
    rounding budget. Raises OnSingularLocus if some enumerated gamma z2 comes
    within singular_threshold of z1."""
    a, b, c, d, maxe = _det_m_arrays(m, bound)
    gz2 = (a * z2 + b) / (c * z2 + d)
    diff2 = np.abs(z1 - gz2) ** 2
    if np.min(diff2) < singular_threshold ** 2:
        raise OnSingularLocus("z1 lies on (or too near) the orbit of z2")
    vals = _q_eval_array(order, 1.0 + diff2 / (2.0 * z1.imag * gz2.imag))
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


def _weighted_sum(parts) -> GreensValue:
    """sum of w * g over (w, g) pairs; tails and errors add with weight |w|."""
    parts = list(parts)
    return GreensValue(
        value=BigReal(mpf(math.fsum(w * float(g.value.val) for w, g in parts)),
                      mpf(math.fsum(abs(w) * float(g.value.err) for w, g in parts)), 16),
        tail_estimate=BigReal(
            mpf(math.fsum(abs(w) * float(g.tail_estimate.val) for w, g in parts)), 0, 16),
        terms_summed=sum(g.terms_summed for _, g in parts),
    )


def green_k(k: int, z1: UHPoint, z2: UHPoint, policy: TruncationPolicy,
            q_order: Optional[int] = None) -> GreensValue:
    """Higher Green's function of weight k for the full modular group:
    -2 * sum over PSL2(Z) representatives of Q_order(1 + |z1 - g z2|^2 /
    (2 Im z1 Im g z2)), entries bounded by the policy.

    q_order defaults to k-1 (the Laplace-integral normalization used by the
    degree-m translates); pass q_order=k for the alternative convention.
    z2 is fundamental-domain-reduced first; z1 is used as given."""
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    order = k - 1 if q_order is None else int(q_order)
    if order < 1:
        raise ValueError("Q order must be >= 1")
    z2r, _ = reduce_fd(z2)
    z1c, z2c = z1.as_complex(), z2r.as_complex()
    bound = policy.matrix_bound
    out = _green_single(order, 1, z1c, z2c, bound, policy.singular_threshold)
    if not policy.adaptive:
        return out
    while True:
        new_bound = bound * 2
        if new_bound > policy.max_bound:
            raise BudgetExceeded(
                f"adaptive refinement needs bound > {policy.max_bound}"
            )
        nxt = _green_single(order, 1, z1c, z2c, new_bound, policy.singular_threshold)
        if abs(float(nxt.value.val) - float(out.value.val)) < policy.target_tol:
            return nxt
        bound, out = new_bound, nxt


def hecke_coset_reps(m: int) -> list[tuple[int, int, int]]:
    """Upper-triangular representatives (a, b, d), a*d = m, 0 <= b < d;
    sigma_1(m) of them, ordered a ascending then b ascending."""
    if m < 1:
        raise ValueError("m must be >= 1")
    reps = []
    for a in range(1, m + 1):
        if m % a == 0:
            d = m // a
            for b in range(d):
                reps.append((a, b, d))
    return reps


def hecke_green(s: int, m: int, z1: UHPoint, z2: UHPoint, policy: TruncationPolicy,
                q_order: Optional[int] = None) -> GreensValue:
    """Translate of G_s under the degree-m Hecke correspondence: the sum of
    green_k over the upper-triangular coset representatives, equivalent to
    summing over all integer matrices of determinant m up to units."""
    parts = []
    for a, b, d in hecke_coset_reps(m):
        with workdps(max(z2.re.dps, 30)):
            w = (a * z2.as_mpc() + b) / d
            z2p = UHPoint(BigReal(w.real, 0, z2.re.dps), BigReal(w.imag, 0, z2.re.dps))
        parts.append((1.0, green_k(s, z1, z2p, policy, q_order=q_order)))
    return _weighted_sum(parts)


def green_det_m_direct(s: int, m: int, z1: UHPoint, z2: UHPoint, bound: int,
                       q_order: Optional[int] = None,
                       singular_threshold: float = 1e-8) -> GreensValue:
    """Direct summation over all integer matrices of determinant m with
    entries bounded by `bound`, one representative per +-pair. Independent
    oracle for the coset decomposition (no fundamental-domain reduction)."""
    if int(s) != s or s < 2:
        raise ValueError("s must be an integer >= 2")
    order = s - 1 if q_order is None else int(q_order)
    try:
        return _green_single(order, m, z1.as_complex(), z2.as_complex(), bound,
                             singular_threshold)
    except OnSingularLocus as exc:
        raise OnSingularLocus("z1 lies on (or too near) the divisor T_m", m=m) from exc


def greens_combo(f: PrincipalPart, j: int, z1: UHPoint, z2: UHPoint,
                 policy: TruncationPolicy) -> GreensValue:
    """G_{1+j,f} = sum_{m>0} c_f(-m) m^j G^m_{j+1}: a finite weighted sum of
    Hecke translates; the tail is the coefficient-weighted sum of the
    per-term tails."""
    if int(j) != j or j < 1:
        raise ValueError("j must be an integer >= 1 (weight-1 sums are not evaluable)")
    parts = []
    for m, cf in f.coeffs:
        try:
            g = hecke_green(j + 1, m, z1, z2, policy)
        except OnSingularLocus as exc:
            raise OnSingularLocus(f"(z1, z2) lies on T_{m}", m=m) from exc
        parts.append((float(cf) * m ** j, g))
    return _weighted_sum(parts)


def cross_check(reg, boundary: list, y: UHPoint, policy: TruncationPolicy) -> dict:
    """Exploratory comparison of log|R| from a regulator run against
    sum a_tau G_2(tau, y) for user-supplied boundary data. Emits both sides,
    their difference and both error budgets; no verdict is drawn."""
    total = _weighted_sum((float(coeff), green_k(2, tau, y, policy))
                          for tau, coeff in boundary)
    greens_side = float(total.value.val)
    log_abs = float(reg.log_abs.val)
    return {
        "log_abs_regulator": log_abs,
        "regulator_err": float(reg.log_abs.err),
        "greens_sum": greens_side,
        "greens_err": float(total.value.err),
        "difference": log_abs - greens_side,
        "terms_summed": total.terms_summed,
    }
