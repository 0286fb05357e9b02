"""Kummer-plane configurations from moduli parameters, Humbert-surface
membership via explicit discriminants, the Birkenhake-Wilhelm case table and
Hecke-component decompositions.

Conventions: branch values a4 = 0, a5 = 1, a6 = infinity; the line l6 is
hard-coded to z = 0 (the a6 degeneration) and l^i : y + 2*a_i*x + a_i^2*z = 0
otherwise. Double points q^{ij} = [-(a_i+a_j), 2*a_i*a_j, 2] for i,j < 6 and
q^{i6} = [-1, 2*a_i, 0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from mpmath import mp, mpf, workdps

from .arith import QuadVal, UniPoly, as_quadval
from .errors import InvalidModuli, NotOnH4
from .geometry import Conic, ProjLine, ProjPoint


@dataclass(frozen=True)
class ModuliParams:
    """The (a1, a2, a3) moduli point; entries exact (Rat or QuadVal)."""

    a1: QuadVal
    a2: QuadVal
    a3: QuadVal

    def __init__(self, a1, a2, a3):
        vals = tuple(as_quadval(a) for a in (a1, a2, a3))
        for i, v in enumerate(vals, start=1):
            if (v - 0).is_zero() or (v - 1).is_zero():
                raise InvalidModuli(f"a{i} must avoid the fixed branch values 0 and 1")
        for (i, u), (j, v) in combinations(enumerate(vals, start=1), 2):
            if (u - v).is_zero():
                raise InvalidModuli(f"a{i} and a{j} coincide")
        object.__setattr__(self, "a1", vals[0])
        object.__setattr__(self, "a2", vals[1])
        object.__setattr__(self, "a3", vals[2])

    def branch_values(self) -> tuple:
        """The six branch values (a6 = infinity represented as None)."""
        return (self.a1, self.a2, self.a3, as_quadval(0), as_quadval(1), None)

    def to_json(self) -> dict:
        return {"a1": self.a1.to_json(), "a2": self.a2.to_json(), "a3": self.a3.to_json()}


def _line(ai: Optional[QuadVal]) -> ProjLine:
    if ai is None:
        return ProjLine((0, 0, 1))  # l6: z = 0
    return ProjLine((2 * ai, as_quadval(1), ai * ai))


def _qpoint(ai: Optional[QuadVal], aj: Optional[QuadVal]) -> ProjPoint:
    if aj is None:
        return ProjPoint((-1, 2 * ai, 0))
    return ProjPoint((-(ai + aj), 2 * ai * aj, 2))


@dataclass(frozen=True)
class KummerConfig:
    lines: tuple
    torsion_points: dict
    sextic: dict
    curve: tuple

    def line(self, i: int) -> ProjLine:
        return self.lines[i - 1]

    def point(self, i: int, j: int) -> ProjPoint:
        return self.torsion_points[(min(i, j), max(i, j))]

    def to_json(self) -> dict:
        return {
            "lines": [l.to_json() for l in self.lines],
            "points": {
                f"q{i}{j}": p.to_json() for (i, j), p in sorted(self.torsion_points.items())
            },
            "sextic": {
                f"x{e[0]}y{e[1]}z{e[2]}": c.to_json()
                for e, c in sorted(self.sextic.items(), reverse=True)
            },
            "curve": [v.to_json() for v in self.curve],
        }


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def build_config(p: ModuliParams) -> KummerConfig:
    """Six lines, fifteen double points, the degenerate sextic and the
    genus-2 branch values for the moduli point."""
    bv = p.branch_values()
    lines = tuple(_line(a) for a in bv)
    pts = {}
    for i, j in combinations(range(1, 7), 2):
        pts[(i, j)] = _qpoint(bv[i - 1], bv[j - 1])
    sextic = {(0, 0, 0): as_quadval(1)}
    for l in lines:
        a, b, c = l.coeffs
        sextic = _poly_mul(sextic, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    curve = (as_quadval(0), as_quadval(1), p.a1, p.a2, p.a3)
    return KummerConfig(lines=lines, torsion_points=pts, sextic=sextic, curve=curve)


def sextic_eval(p: ModuliParams, x, y) -> QuadVal:
    """S(x, y, 1): the product of the six line forms in the chart z = 1."""
    x, y = as_quadval(x), as_quadval(y)
    out = y * (y + 2 * x + 1)  # l4 * l5
    for ai in (p.a1, p.a2, p.a3):
        out = out * (y + 2 * ai * x + ai * ai)
    return out


def humbert5_coeffs(p: ModuliParams) -> tuple:
    """Closed-form coefficients of the conic through the h5_points, the
    five-point determinant's up to a nonzero factor (the printed p2, p4, p6
    carry transcription slips; see humbert5_conic)."""
    return _h5_coeffs(p.a1, p.a2, p.a3)


def _h5_coeffs(a1, a2, a3) -> tuple:
    """The closed form as bare polynomials in (a1, a2, a3): QuadVals or
    Fractions, no moduli checks."""
    p1 = 4 * a1 * a2 * a3 * (a1 - a2)
    p2 = a1 * a1 * a3 - a1 * a3 * a3 - a2 * a2 + a2 + a3 * a3 - a3
    p3 = a1 * a2 * a3 * a3 * (a1 - a2)
    p4 = 2 * (
        a1 * a1 * (a2 * a3 + a3)
        + a1 * (-(a2 * a2) - a2 * a3 * a3 + a2 - a3)
        - a2 * a2 * a3
        + a2 * a3 * a3
    )
    p5 = 2 * a1 * a2 * a3 * (a1 - a2) * (a3 + 1)
    p6 = (
        a1 * a1 * (a2 * a2 * a3 - a2 * a2 + a2 + a3 * a3)
        - a1 * (a2 * a2 * a3 * a3 + a3 * a3)
        - a2 * a2 * a3
        + a2 * a3 * a3
    )
    return p1, p2, p3, p4, p5, p6


def h5_points(p: ModuliParams) -> list:
    """The five double points q12, q23, q34, q45, q51 on the H5 conic."""
    zero, one = as_quadval(0), as_quadval(1)
    return [_qpoint(p.a1, p.a2), _qpoint(p.a2, p.a3), _qpoint(p.a3, zero),
            _qpoint(zero, one), _qpoint(one, p.a1)]


def humbert5_conic(p: ModuliParams) -> Conic:
    """The conic through q12, q23, q34, q45, q51, in closed form. The six
    signed minors of the five-point determinant equal
    -64*a1*a2*(a1-a3)*(a2-1)*(a3-1) times these coefficients, a nonzero
    multiple on valid moduli (proved once by
    tests/test_kummer.py::TestHumbert5::test_closed_form_proved_on_grid)."""
    return Conic(humbert5_coeffs(p))


def humbert5_discriminant(p: ModuliParams) -> QuadVal:
    """p4^2 - 4*p1*p2: zero iff the moduli point lies on this H5 component."""
    p1, p2, _, p4, _, _ = humbert5_coeffs(p)
    return p4 * p4 - 4 * p1 * p2


def h4_h8_factors(p: ModuliParams) -> tuple[QuadVal, QuadVal]:
    """(H4 factor, H8 factor): first zero iff a2 = a1*a3 (component of H4),
    second zero iff the moduli point lies on a component of H8."""
    a1, a2, a3 = p.a1, p.a2, p.a3
    f4 = a1 * a3 - a2
    inner = (a1 + a3) * (a2 + 1) - 2 * (a1 * a3 + a2)
    f8 = 4 * a1 * a2 * a3 * inner * inner - (
        (a2 - 1) ** 2 * (a1 - a3) ** 2 * (a1 * a3 + a2) ** 2
    )
    return f4, f8


def h4_line(p: ModuliParams) -> ProjLine:
    """The exceptional line y - a1*a3*z = 0 through q13, q25, q46; only
    defined on the H4 locus a2 = a1*a3."""
    if not (p.a2 - p.a1 * p.a3).is_zero():
        raise NotOnH4("a2 != a1*a3")
    return ProjLine((0, as_quadval(1), -(p.a1 * p.a3)))


@dataclass(frozen=True)
class BWCase:
    case_label: str
    m: int
    k: Optional[int]
    delta: int
    degree: int
    num_torsion_points: int

    def to_json(self) -> dict:
        return {
            "case": self.case_label,
            "m": self.m,
            "k": self.k,
            "delta": self.delta,
            "degree": self.degree,
            "num_points": self.num_torsion_points,
        }


_K_VALUES = (4, 6, 8, 10, 12)

# case -> (delta(m, k), degree(m), points(k)); k is None for case V
_BW_ROWS = {
    "I": (lambda m, k: 8 * m * m + 9 - 2 * k, lambda m: 2 * m, lambda k: k - 1),
    "II": (lambda m, k: 8 * m * (m + 1) + 9 - 2 * k, lambda m: 2 * m + 1, lambda k: k),
    "III": (lambda m, k: 8 * m * m + 8 - 2 * k, lambda m: 2 * m, lambda k: k),
    "IV": (lambda m, k: 8 * m * (m + 1) + 12 - 2 * k, lambda m: 2 * m + 1, lambda k: k - 1),
}


def bw_cases(delta: int) -> list[BWCase]:
    """All (case, m, k) rows of the Birkenhake-Wilhelm table with the given
    invariant; degree-0 solutions excluded. Order-stable: case, then m, then k."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    out = []
    for label, (dfun, degfun, ptsfun) in _BW_ROWS.items():
        m = 1
        while dfun(m, max(_K_VALUES)) <= delta:
            for k in _K_VALUES:
                if dfun(m, k) == delta and degfun(m) >= 1:
                    out.append(
                        BWCase(label, m, k, delta, degfun(m), ptsfun(k))
                    )
            m += 1
    r = math.isqrt(delta)
    if r * r == delta and r - 1 >= 1:
        out.append(BWCase("V", r, None, delta, r - 1, 3))
    return out


def hecke_components(delta: int) -> list[int]:
    """All m = (delta - x^2)/4 with x >= 0, x^2 = delta (mod 4) and m > 0.

    The congruence is read as the integrality condition on (delta - x^2)/4;
    x runs over the parity class making that quotient integral."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    rem = delta % 4
    if rem == 0:
        start = 0
    elif rem == 1:
        start = 1
    else:
        return []
    out = []
    x = start
    while x * x < delta:
        m = (delta - x * x) // 4
        if m > 0:
            out.append(m)
        x += 2
    return out


def h5_roots_in_a3(a1, a2, precision: int = 60) -> list[mpf]:
    """Real roots in a3 of the H5 discriminant p4^2 - 4*p1*p2 at fixed
    (a1, a2), to `precision` digits; roots colliding with the excluded values
    {0, 1, a1, a2} are dropped. Sorted ascending (deterministic)."""
    a1, a2 = Fraction(a1), Fraction(a2)
    poly = _discriminant_poly_in_a3(a1, a2)
    with workdps(precision + 10):
        coeffs = [mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=precision * 4)
        out = []
        excluded = [mpf(0), mpf(1), mpf(a1.numerator) / a1.denominator,
                    mpf(a2.numerator) / a2.denominator]
        for r in roots:
            if abs(r.imag) > mpf(10) ** (-precision // 2):
                continue
            rr = r.real
            if any(abs(rr - e) < mpf(10) ** -10 for e in excluded):
                continue
            out.append(+rr)
        return sorted(out)


def _discriminant_poly_in_a3(a1: Fraction, a2: Fraction) -> UniPoly:
    """Exact interpolation of the discriminant as a polynomial in a3
    (degree <= 4; sampled at 9 nodes for slack)."""
    nodes = [Fraction(t) for t in range(2, 11)]
    vals = []
    for t in nodes:
        p = _h5_coeffs(a1, a2, t)
        vals.append(p[3] * p[3] - 4 * p[0] * p[1])
    return _lagrange(nodes, vals)


def _lagrange(xs: list[Fraction], ys: list[Fraction]) -> UniPoly:
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul_1d(num, [-xs[j], Fraction(1)])
            den *= xs[i] - xs[j]
        scale = ys[i] / den
        for k, c in enumerate(num):
            acc[k] += scale * c
    return UniPoly(tuple(acc))


def _poly_mul_1d(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def is_numerically_tangent(p: ModuliParams, tol: Fraction | float = 1e-40) -> bool:
    """Relative near-vanishing of the H5 discriminant: |p4^2 - 4 p1 p2| below
    tol * max(|p4^2|, |4 p1 p2|). The tolerance policy is the caller's; the
    exact test is restriction_discriminant / is_tangent."""
    p1, p2, _, p4, _, _ = humbert5_coeffs(p)
    with workdps(60):
        d = (p4 * p4 - 4 * p1 * p2).to_mpf(60)
        scale = max(abs((p4 * p4).to_mpf(60)), abs((4 * p1 * p2).to_mpf(60)), mpf(1))
        return abs(d) <= mpf(tol) * scale
