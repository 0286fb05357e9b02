"""Numeric evaluation of Legendre Q, higher Green's functions over the
modular group, Hecke translates, and finite principal-part combinations.

The high-precision entry point is legendre_q (tanh-sinh quadrature on the
Laplace integral with an explicit truncation point). The lattice sums use a
float64 fast path: exact-coefficient closed forms of Q_n below t = 2 and the
all-positive hypergeometric series above (validated against the quadrature to
better than 1e-11 relative), accumulated with math.fsum over a canonical
enumeration order, so identical inputs give bit-identical output. green_k
(PSL2(Z), determinant 1) and green_det_m_direct share one enumerator of
integer matrices of determinant m and one evaluate-and-budget path. The
enumerator is vectorised: it takes the rows of c in fixed-size chunks, finds
each (c, d) block's first matrix by gcd and extended Euclid over numpy
arrays, and expands the blocks into preallocated int64 arrays, after
refusing a box whose term count would not fit in memory. One box is cached;
a smaller bound for the same m is a mask over it. Hecke translates,
principal-part combinations and the regulator cross-check combine
GreensValues through one weighted sum. Truncation
dominates the error budget; the tail estimate is the outer-shell mass
|sum(N) - sum(N/2)|, which over-covers the true remainder under the observed
geometric shell decay.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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

_CHUNK_CELLS = 1 << 16  # (c, d) cells per chunk of rows of c
# peak RSS of building and evaluating the N = 1000 box (592 MB for 4.87M
# terms), per term, rounded up; the builder refuses a box whose terms would
# need more than _memory_budget_bytes() at this rate
_BYTES_PER_TERM = 128

# the one cached box: (m, bound, (a, b, c, d, maxe)) or None
_box = None


def _memory_budget_bytes() -> int:
    """Half of physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _inverse_mod(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """pow(u, -1, n) elementwise, for u coprime to n >= 1: the inverse in
    [0, n), 0 for n = 1; extended Euclid on the entries still running."""
    x = np.empty_like(n)
    idx = np.arange(len(n))
    r0, r1 = n, u % n  # r0 = s0*u and r1 = s1*u mod n
    s0, s1 = np.zeros_like(n), np.ones_like(n)
    while True:
        done = r1 == 0  # then r0 = gcd = 1 and s0 is the inverse
        x[idx[done]] = s0[done]
        live = ~done
        idx, r0, r1, s0, s1 = (y[live] for y in (idx, r0, r1, s0, s1))
        if not idx.size:
            return x % n
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1


def _t_range(x0, step, bound: int):
    """(lo, hi) such that |x0 + t*step| <= bound exactly for lo <= t <= hi;
    step > 0, elementwise."""
    return -((bound + x0) // step), (bound - x0) // step


def _det_m_blocks(m: int, c: int, c_end: int, bound: int) -> np.ndarray:
    """One row (first a, first b, a step, b step, count, c, d) per nonempty
    (c, d) block of integer matrices of determinant m with max |entry| <=
    bound, c <= c' < c_end, one per +-pair; c, then d ascending; within a
    block a ascends by the a step."""
    cc, dd = (x.ravel() for x in np.meshgrid(np.arange(c, c_end, dtype=np.int64),
                                              np.arange(-bound, bound + 1, dtype=np.int64),
                                              indexing="ij"))
    g = np.gcd(cc, dd)
    keep = m % g == 0
    cc, dd, g = cc[keep], dd[keep], g[keep]
    cs, ds, mg = cc // g, dd // g, m // g
    x = _inverse_mod(ds, cs)  # x*ds - y*cs = 1, scaled to determinant m
    a0, b0 = x * mg, (x * ds - 1) // cs * mg
    lo, hi = _t_range(a0, cs, bound)
    nz = ds != 0  # ds = 0 (d = 0): b is b0 throughout the block
    blo, bhi = _t_range(np.where(ds < 0, -b0, b0), np.maximum(np.abs(ds), 1), bound)
    lo = np.where(nz, np.maximum(lo, blo), lo)
    hi = np.where(nz, np.minimum(hi, bhi), hi)
    ok = (lo <= hi) & (nz | (np.abs(b0) <= bound))
    lo, hi = lo[ok], hi[ok]
    cs, ds = cs[ok], ds[ok]
    return np.stack([a0[ok] + lo * cs, b0[ok] + lo * ds, cs, ds, hi - lo + 1,
                     cc[ok], dd[ok]]).astype(np.int32)


def _build_box(m: int, bound: int) -> tuple:
    """The arrays (a, b, c, d, maxe) of _det_m_arrays, built from row chunks
    of c; raises BudgetExceeded before allocating a box that would not fit."""
    budget_terms = _memory_budget_bytes() // _BYTES_PER_TERM
    d = np.arange(1, bound + 1, dtype=np.int64)
    d = d[(m % d == 0) & (m // d <= bound)]
    zero, one = np.zeros_like(d), np.ones_like(d)
    # the c = 0 blocks: a = m/d, b from -bound to bound
    chunks = [np.stack([m // d, -bound * one, zero, one, (2 * bound + 1) * one, zero, d]
                       ).astype(np.int32)]
    total = len(d) * (2 * bound + 1)
    rows = max(1, _CHUNK_CELLS // (2 * bound + 1))
    for c in range(1, bound + 1, rows):
        chunks.append(_det_m_blocks(m, c, min(c + rows, bound + 1), bound))
        total += int(chunks[-1][4].sum(dtype=np.int64))
        if total > budget_terms:
            raise BudgetExceeded(
                f"bound {bound} needs over {budget_terms} terms "
                f"({_BYTES_PER_TERM} bytes each), more than half of physical memory"
            )
    out = tuple(np.empty(total, dtype=np.int64) for _ in range(5))
    at = 0
    for blk in chunks:
        a0, b0, sa, sb, n, c, d = blk.astype(np.int64)
        end = at + int(n.sum())
        # k: position of each matrix inside its (c, d) block
        k = np.arange(end - at, dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
        a, b, cc, dd, maxe = (x[at:end] for x in out)
        a[:] = np.repeat(a0, n) + k * np.repeat(sa, n)
        b[:] = np.repeat(b0, n) + k * np.repeat(sb, n)
        cc[:] = np.repeat(c, n)
        dd[:] = np.repeat(d, n)
        np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(cc), np.abs(dd)),
                   out=maxe)
        at = end
    return out


def _det_m_arrays(m: int, bound: int) -> tuple:
    """The integer matrices of determinant m with max |entry| <= bound, one
    per +-pair (c > 0, or c = 0 and d > 0), in canonical order (c, then d,
    then a ascending), as int64 arrays (a, b, c, d, maxe); m = 1 gives the
    PSL2(Z) representatives.

    One box is cached: a request for the same m and a bound no larger is the
    mask maxe <= bound over it, which keeps the order; another m or a larger
    bound builds a new box in its place."""
    global _box
    box = _box
    if box is not None and box[0] == m and bound <= box[1]:
        arrays = box[2]
        if bound == box[1]:
            return arrays
        keep = arrays[4] <= bound
        return tuple(x[keep] for x in arrays)
    _box = None  # release the old box before building the new one
    arrays = _build_box(m, bound)
    for x in arrays:
        x.flags.writeable = False
    _box = (m, bound, arrays)
    return arrays


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
