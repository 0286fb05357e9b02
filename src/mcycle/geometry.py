"""Exact projective plane geometry over the rationals and their quadratic
extensions: points, lines, conics, the five-point conic, tangency and exact
line intersections. No epsilon comparisons live here; everything is decided
in QuadVal arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

from .arith import QuadVal, as_quadval, quad_solve
from .errors import DegenerateConfiguration, IncompatibleRadicands, LineOnConic

Coord = Union[int, Fraction, QuadVal]


def _vec3(coords) -> tuple[QuadVal, QuadVal, QuadVal]:
    v = tuple(as_quadval(c) for c in coords)
    if len(v) != 3:
        raise ValueError("need exactly three coordinates")
    if all(c.is_zero() for c in v):
        raise ValueError("all coordinates zero")
    return v


def _proportional(u, v) -> bool:
    """Projective equality of coordinate triples/sextuples: every 2x2 minor
    u_i v_j - u_j v_i with i < j vanishes."""
    return all((u[i] * v[j] - u[j] * v[i]).is_zero()
               for i, j in combinations(range(len(u)), 2))


def _canonical(v: tuple) -> tuple:
    """Scale so the first nonzero entry is 1: equal up to scale means equal,
    so hashing this agrees with projective ==."""
    for c in v:
        if not c.is_zero():
            return tuple(x / c for x in v)
    raise ValueError("zero vector")


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", _vec3(coords))

    @property
    def is_complex(self) -> bool:
        return any(c.is_complex for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return _proportional(self.coords, other.coords)

    def __hash__(self):
        return hash(_canonical(self.coords))

    def canonical(self) -> "ProjPoint":
        """Scale so the first nonzero coordinate is 1."""
        return ProjPoint(_canonical(self.coords))

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return f"ProjPoint[{', '.join(str(c) for c in self.coords)}]"


@dataclass(frozen=True)
class ProjLine:
    """Line alpha*x + beta*y + gamma*z = 0."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _vec3(coeffs))

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return _proportional(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(_canonical(self.coeffs))

    def eval_at(self, p: ProjPoint) -> QuadVal:
        a, b, c = self.coeffs
        x, y, z = p.coords
        return a * x + b * y + c * z

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return f"ProjLine[{', '.join(str(c) for c in self.coeffs)}]"


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    x1, y1, z1 = p.coords
    x2, y2, z2 = q.coords
    return ProjLine((y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2))


def line_meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    a1, b1, c1 = l1.coeffs
    a2, b2, c2 = l2.coeffs
    return ProjPoint((b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2))


@dataclass(frozen=True)
class Conic:
    """p1*x^2 + p2*y^2 + p3*z^2 + p4*xy + p5*xz + p6*yz = 0."""

    p: tuple

    def __init__(self, p):
        v = tuple(as_quadval(c) for c in p)
        if len(v) != 6:
            raise ValueError("need six coefficients")
        if all(c.is_zero() for c in v):
            raise ValueError("zero conic")
        object.__setattr__(self, "p", v)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return _proportional(self.p, other.p)

    def __hash__(self):
        return hash(_canonical(self.p))

    def eval_at(self, pt: ProjPoint) -> QuadVal:
        p1, p2, p3, p4, p5, p6 = self.p
        x, y, z = pt.coords
        return (p1 * x * x + p2 * y * y + p3 * z * z
                + p4 * x * y + p5 * x * z + p6 * y * z)

    def det3(self) -> QuadVal:
        """Determinant of the symmetric matrix (doubled form); zero iff singular."""
        p1, p2, p3, p4, p5, p6 = self.p
        m = [
            [2 * p1, p4, p5],
            [p4, 2 * p2, p6],
            [p5, p6, 2 * p3],
        ]
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    @property
    def is_smooth(self) -> bool:
        return not self.det3().is_zero()

    def to_json(self) -> list:
        return [c.to_json() for c in self.p]

    def __repr__(self):
        return f"Conic[{', '.join(str(c) for c in self.p)}]"


def _det(rows) -> QuadVal:
    """Exact determinant by fraction-free-ish Gaussian elimination over the field."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = as_quadval(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return as_quadval(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return det


def _monomial_row(pt: ProjPoint):
    x, y, z = pt.coords
    return [x * x, y * y, z * z, x * y, x * z, y * z]


def conic_through_5(points) -> Conic:
    """The conic through five points, via the six signed 5x5 minors of the
    interpolation matrix (monomial row deleted). Exact; every input point is
    incident by construction."""
    pts = list(points)
    if len(pts) != 5:
        raise ValueError("need exactly five points")
    for i in range(5):
        for j in range(i + 1, 5):
            if pts[i] == pts[j]:
                raise DegenerateConfiguration(f"points {i} and {j} coincide")
    rows = [_monomial_row(p) for p in pts]
    coeffs = []
    for j in range(6):
        minor = _det([[row[k] for k in range(6) if k != j] for row in rows])
        coeffs.append(minor if j % 2 == 0 else -minor)
    if all(c.is_zero() for c in coeffs):
        raise DegenerateConfiguration("all minors vanish (4+ collinear points)")
    return Conic(coeffs)


def _line_basis(l: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning the line."""
    a, b, c = l.coeffs
    if not a.is_zero():
        return ProjPoint((-b, a, as_quadval(0))), ProjPoint((-c, as_quadval(0), a))
    if not b.is_zero():
        return ProjPoint((as_quadval(1), as_quadval(0), as_quadval(0))), ProjPoint(
            (as_quadval(0), -c, b)
        )
    return ProjPoint((as_quadval(1), as_quadval(0), as_quadval(0))), ProjPoint(
        (as_quadval(0), as_quadval(1), as_quadval(0))
    )


def restrict_to_line(c: Conic, l: ProjLine):
    """Coefficients (A, B, C) of the conic restricted to s*P0 + t*P1 on l,
    as A s^2 + B st + C t^2, together with the basis (P0, P1); LineOnConic
    when the restriction vanishes identically (l is a component of c)."""
    P0, P1 = _line_basis(l)
    x0, y0, z0 = P0.coords
    x1, y1, z1 = P1.coords
    A = c.eval_at(P0)
    C = c.eval_at(P1)
    p1, p2, p3, p4, p5, p6 = c.p
    # polarization: B = bilinear form of the conic at (P0, P1)
    B = (2 * p1 * x0 * x1 + 2 * p2 * y0 * y1 + 2 * p3 * z0 * z1
         + p4 * (x0 * y1 + x1 * y0) + p5 * (x0 * z1 + x1 * z0)
         + p6 * (y0 * z1 + y1 * z0))
    if A.is_zero() and B.is_zero() and C.is_zero():
        raise LineOnConic("restriction vanishes identically")
    return A, B, C, P0, P1


def restriction_discriminant(c: Conic, l: ProjLine) -> QuadVal:
    """B^2 - 4AC of the restriction; zero iff tangent (exact)."""
    A, B, C, _, _ = restrict_to_line(c, l)
    return B * B - 4 * A * C


def _sqrt_in_field(d: QuadVal) -> Optional[QuadVal]:
    """Exact square root of d inside its own quadratic field, if one exists."""
    if d.is_zero():
        return as_quadval(0)
    if d.is_rational:
        r = QuadVal.sqrt_rat(d.rat)
        return r  # may introduce a new radicand; caller decides compatibility
    # d = u + v*sqrt(r); seek e = x + y*sqrt(r), e^2 = d:
    # x^2 + y^2 r = u, 2xy = v  =>  x^2 solves T^2 - u T + v^2 r / 4 = 0
    u, v, r = d.rat, d.coef, d.rad
    disc = u * u - v * v * r
    s2 = _rat_sqrt(disc)
    if s2 is None:
        return None
    for t in ((u + s2) / 2, (u - s2) / 2):
        x = _rat_sqrt(t)
        if x is not None and x != 0:
            cand = QuadVal(x, v / (2 * x), r)
            if (cand * cand - d).is_zero():
                return cand
    return None


def _rat_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _combine(P0: ProjPoint, P1: ProjPoint, s, t) -> ProjPoint:
    s, t = as_quadval(s), as_quadval(t)
    return ProjPoint(tuple(s * a + t * b for a, b in zip(P0.coords, P1.coords)))


def conic_line_meet(c: Conic, l: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """The two intersection points, exact QuadVal coordinates, +sqrt branch
    first (coincident points when tangent). Rational restrictions always
    succeed; over a quadratic field the discriminant must be a square in the
    field (else the points live in a biquadratic extension, out of scope)."""
    A, B, C, P0, P1 = restrict_to_line(c, l)
    if A.is_zero():
        # t=0 root (P0) plus B s + C t = 0 -> s = -C, t = B
        if B.is_zero():
            # C t^2 = 0: double root at P0
            return P0, P0
        other = _combine(P0, P1, -C / B, as_quadval(1))
        pts = [P0, other]
        pts.sort(key=_point_sort_key)
        return pts[0], pts[1]
    if all(v.is_rational for v in (A, B, C)):
        r_plus, r_minus = quad_solve(A.rat, B.rat, C.rat)
        pt_plus = _combine(P0, P1, r_plus, 1)
        pt_minus = _combine(P0, P1, r_minus, 1)
        if r_plus == r_minus:
            return pt_plus, pt_plus
        if r_plus.is_rational:
            pts = [pt_plus, pt_minus]
            pts.sort(key=_point_sort_key)
            return pts[0], pts[1]
        return pt_plus, pt_minus
    disc = B * B - 4 * A * C
    e = _sqrt_in_field(disc)
    if e is None:
        raise IncompatibleRadicands(
            "intersection points lie outside the quadratic field of the inputs"
        )
    try:
        inv2A = (2 * A).inverse()
        s_plus = (-B + e) * inv2A
        s_minus = (-B - e) * inv2A
        return _combine(P0, P1, s_plus, 1), _combine(P0, P1, s_minus, 1)
    except IncompatibleRadicands:
        raise IncompatibleRadicands(
            "intersection points lie outside the quadratic field of the inputs"
        ) from None


def _point_sort_key(p: ProjPoint):
    q = p.canonical()
    key = []
    for c in q.coords:
        key.append((c.rat, c.coef, c.rad))
    return key


def is_tangent(c: Conic, l: ProjLine) -> bool:
    """Exact: the restricted quadratic has zero discriminant."""
    return restriction_discriminant(c, l).is_zero()


def incident(p: ProjPoint, obj) -> bool:
    """Exact evaluation of the defining form at p."""
    if isinstance(obj, (ProjLine, Conic)):
        return obj.eval_at(p).is_zero()
    raise TypeError("obj must be a ProjLine or Conic")
