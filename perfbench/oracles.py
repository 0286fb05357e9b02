"""Independent output checks for the benchmark ops.

Each check reads an op's JSON output and recomputes what it states with the
benchmark's own exact arithmetic (Fractions, and a + b*sqrt(r) triples for
quadratic values) or, for the regulator and Green's values, compares it with
a reference the caller computed under changed conditions (doubled precision,
swapped arguments). Every check returns None when the output holds, or a
one-line reason.
"""
from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import combinations

import mpmath

# --- quadratic values as (rat, coef, rad) triples ----------------------------


def qv(d: dict) -> tuple:
    return (F(d["rat"]), F(d["coef"]), F(d["rad"]))


def _rat_sqrt(q: F) -> F | None:
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if n * n == q.numerator and d * d == q.denominator else None


def _unify(x, y):
    """x and y over one radicand. A radicand need not be square-free (the
    program keeps square factors of large primes), so sqrt(r1) is rewritten
    as s*sqrt(r2) whenever r1/r2 = s^2 is a rational square."""
    if x[1] == 0:
        return x, y, (y[2] if y[1] != 0 else F(0))
    if y[1] == 0 or x[2] == y[2]:
        return x, y, x[2]
    s = _rat_sqrt(x[2] / y[2])
    if s is None:
        raise ValueError("operands lie in different quadratic fields")
    return (x[0], x[1] * s, y[2]), y, y[2]


def q_add(x, y):
    x, y, d = _unify(x, y)
    return (x[0] + y[0], x[1] + y[1], d)


def q_neg(x):
    return (-x[0], -x[1], x[2])


def q_mul(x, y):
    x, y, d = _unify(x, y)
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def q_rat(r) -> tuple:
    return (F(r), F(0), F(0))


def q_zero(x) -> bool:
    """a + b*sqrt(r) = 0, for r not a rational square (or b = 0)."""
    return x[0] == 0 and x[1] == 0


def q_eq(x, y) -> bool:
    return q_zero(q_add(x, q_neg(y)))


def proportional(u, v) -> bool:
    """Projective equality of two coefficient vectors of triples."""
    if all(q_zero(a) for a in u) or all(q_zero(b) for b in v):
        return False
    return all(q_eq(q_mul(u[i], v[j]), q_mul(u[j], v[i]))
               for i, j in combinations(range(len(u)), 2))


# --- the Kummer-plane objects, from the stated conventions -------------------


def invalid_moduli(a1: F, a2: F, a3: F) -> bool:
    """a_i must avoid the fixed branch values 0, 1 and each other."""
    vals = (a1, a2, a3)
    return any(v in (0, 1) for v in vals) or len(set(vals)) < 3


def refusal_confirmed(error: str, moduli: tuple) -> bool:
    """Whether a domain refusal holds for the moduli point (a1, a2, a3).
    InvalidModuli is tested directly; the others on the benchmark's own
    five-point conic: OnH5Locus (p4^2 = 4 p1 p2), ZeroDenominator (vertical
    tangent at q45: p6 = p4/2), and DegenerateQuadratic and RepeatedRoot of
    its restriction to the H4 line y = a2 z (the regulator's quadratic)."""
    invalid = invalid_moduli(*moduli)
    if error == "InvalidModuli" or invalid:
        return error == "InvalidModuli" and invalid
    own = conic_nullvector(five_points(*moduli))
    if own is None:
        return False
    p1, p2, p3, p4, p5, p6 = own
    a2 = moduli[1]
    A, B, C = p1, p4 * a2 + p5, p2 * a2 * a2 + p3 + p6 * a2
    return {"OnH5Locus": p4 * p4 - 4 * p1 * p2 == 0,
            "ZeroDenominator": 2 * p6 == p4,
            "DegenerateQuadratic": A == 0,
            "RepeatedRoot": A != 0 and B * B - 4 * A * C == 0}.get(error, False)


def _qpoint(ai: F, aj: F) -> list:
    return [-(ai + aj), 2 * ai * aj, F(2)]


def five_points(a1: F, a2: F, a3: F) -> list:
    """q12, q23, q34, q45, q51 with a4 = 0, a5 = 1."""
    return [_qpoint(a1, a2), _qpoint(a2, a3), _qpoint(a3, F(0)),
            _qpoint(F(0), F(1)), _qpoint(F(1), a1)]


def _monomials(x, y, z) -> list:
    return [x * x, y * y, z * z, x * y, x * z, y * z]


def conic_nullvector(points) -> list | None:
    """The conic through five rational points by Gaussian elimination on the
    5x6 monomial matrix; None unless the solution space is one line."""
    m = [_monomials(*p) for p in points]
    pivots = []
    r = 0
    for c in range(6):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(6) if c not in pivots]
    if len(free) != 1:
        return None
    v = [F(0)] * 6
    v[free[0]] = F(1)
    for i, pc in enumerate(pivots):
        v[pc] = -m[i][free[0]]
    return v


def _conic_eval(p, pt) -> tuple:
    x, y, z = pt
    mons = [q_mul(x, x), q_mul(y, y), q_mul(z, z), q_mul(x, y), q_mul(x, z), q_mul(y, z)]
    acc = q_rat(0)
    for c, mo in zip(p, mons):
        acc = q_add(acc, q_mul(c, mo))
    return acc


def _h5_disc(p) -> tuple:
    return q_add(q_mul(p[3], p[3]), q_neg(q_mul(q_rat(4), q_mul(p[0], p[1]))))


# --- CLI command checks -------------------------------------------------------


def check_conic(out: dict, params: tuple, method: str):
    p = [qv(c) for c in out["conic"]]
    if any(c[1] != 0 for c in p):
        return "irrational conic coefficient for rational moduli"
    own = conic_nullvector(five_points(*params))
    if own is None:
        return "five points do not fix a unique conic"
    if not all(q_zero(_conic_eval(p, [q_rat(v) for v in pt])) for pt in five_points(*params)):
        return "a five-point incidence fails"
    if not proportional(p, [q_rat(v) for v in own]):
        return "conic differs from the five-point conic"
    disc = qv(out["h5_discriminant"])
    if method == "closed" and not q_eq(disc, _h5_disc(p)):
        return "h5_discriminant is not p4^2 - 4 p1 p2"
    if q_zero(disc) != q_zero(_h5_disc(p)):
        return "h5_discriminant vanishing disagrees with the conic"
    return None


def _line_forms(params: tuple) -> list:
    a1, a2, a3 = params
    return [[2 * a, F(1), a * a] for a in (a1, a2, a3, F(0), F(1))] + [[F(0), F(0), F(1)]]


def check_config(out: dict, params: tuple):
    own_lines = _line_forms(params)
    lines = [[qv(c) for c in ln] for ln in out["lines"]]
    if len(lines) != 6:
        return "expected six lines"
    for ln, own in zip(lines, own_lines):
        if not proportional(ln, [q_rat(v) for v in own]):
            return "a line differs from l^i : y + 2 a_i x + a_i^2 z"
    if len(out["points"]) != 15:
        return "expected fifteen double points"
    for i, j in combinations(range(1, 7), 2):
        pt = [qv(c) for c in out["points"][f"q{i}{j}"]]
        for k in (i, j):
            val = q_rat(0)
            for coef, x in zip(own_lines[k - 1], pt):
                val = q_add(val, q_mul(q_rat(coef), x))
            if not q_zero(val):
                return f"q{i}{j} is off line {k}"
    sextic = {key: qv(c) for key, c in out["sextic"].items()}
    for x, y, z in ((F(1), F(2), F(3)), (F(-2), F(5), F(1, 3)), (F(7), F(-1), F(2))):
        want = F(1)
        for a, b, c in own_lines:
            want *= a * x + b * y + c * z
        got = q_rat(0)
        for key, c in sextic.items():
            ex, rest = key[1:].split("y")
            ey, ez = rest.split("z")
            got = q_add(got, q_mul(c, q_rat(x ** int(ex) * y ** int(ey) * z ** int(ez))))
        if not q_eq(got, q_rat(want)):
            return "sextic is not the product of the six line forms"
    curve = [qv(c) for c in out["curve"]]
    if not all(q_eq(c, q_rat(v)) for c, v in zip(curve, (0, 1) + tuple(params))) or len(curve) != 5:
        return "curve branch values differ from (0, 1, a1, a2, a3)"
    return None


def _h8_factor(a1: F, a2: F, a3: F) -> F:
    inner = (a1 + a3) * (a2 + 1) - 2 * (a1 * a3 + a2)
    return 4 * a1 * a2 * a3 * inner * inner - (a2 - 1) ** 2 * (a1 - a3) ** 2 * (a1 * a3 + a2) ** 2


def check_humbert(out: dict, params: tuple, check: int):
    a1, a2, a3 = params
    if check == 4:
        want, key = a2 == a1 * a3, "on_h4"
    elif check == 5:
        own = conic_nullvector(five_points(*params))
        if own is None:
            return "five points do not fix a unique conic"
        want, key = own[3] * own[3] - 4 * own[0] * own[1] == 0, "on_h5"
    else:
        want, key = _h8_factor(a1, a2, a3) == 0, "on_h8"
    if out.get(key) is not want:
        return f"{key} should be {want}"
    return None


def check_cycle(out: dict, params: tuple):
    if out["boundary_divisor"] != {}:
        return "boundary divisor does not cancel"
    d = out["cycle"]["local_data"]
    slope, h, v0_sq = qv(d["slope"]), qv(d["h_value"]), qv(d["v0_sq"])
    vp, vm = qv(d["v0_plus"]), qv(d["v0_minus"])
    want_h = F(1)
    for a in params:
        want_h *= a * a - a
    if not q_eq(h, q_rat(want_h)):
        return "h_value is not prod (a_i^2 - a_i)"
    if not q_eq(v0_sq, q_mul(q_mul(slope, q_add(slope, q_rat(2))), h)):
        return "v0_sq is not slope (slope + 2) h"
    if not q_eq(q_mul(vp, vp), v0_sq) or not q_eq(vm, q_neg(vp)):
        return "v0_plus / v0_minus are not the square roots of v0_sq"
    own = conic_nullvector(five_points(*params))
    if own is None:
        return "five points do not fix a unique conic"
    for pt in d["s6_points"]:
        xyz = [qv(c) for c in pt]
        if not q_zero(xyz[2]):
            return "an s6 point is off the line z = 0"
        if not q_zero(_conic_eval([q_rat(v) for v in own], xyz)):
            return "an s6 point is off the five-point conic"
    return None


def check_ns_pair(out: dict, d1: dict, d2: dict):
    def parts(d):
        return F(d["a"]), F(d["b"]), F(d["phi"]["u"]), F(d["phi"]["v"]), d["phi"]["disc"]
    a1, b1, u1, v1, disc = parts(d1)
    a2, b2, u2, v2, _ = parts(d2)
    want = a1 * b2 + a2 * b1 - 2 * (u1 * u2 - v1 * v2 * disc)
    if F(out["pairing"]) != want:
        return f"pairing {out['pairing']} != {want}"
    return None


def check_cm_cycle(out: dict, disc: int):
    cls = out["anti_invariant_class"]
    if (F(cls["a"]), F(cls["b"]), F(cls["phi"]["u"]), F(cls["phi"]["v"]), cls["phi"]["disc"]) \
            != (0, 0, 0, 2, disc):
        return "anti-invariant class is not (0, 0, 2 sqrt D)"
    norm = out["normalization"]
    digits = norm["digits"]
    with mpmath.workdps(digits + 20):
        want = 1 / mpmath.sqrt(8 * abs(disc))
        if abs(mpmath.mpf(norm["value"]) - want) > want * mpmath.mpf(10) ** (1 - digits):
            return "normalization is not 1/sqrt(8|D|) to its stated digits"
    return None


_BW_K = (4, 6, 8, 10, 12)


def bw_rows(delta: int) -> set:
    """(case, m, k, degree, points) rows of the Birkenhake-Wilhelm table,
    by brute force over m up to sqrt(delta)."""
    rows = set()
    for m in range(1, int(delta ** 0.5) + 2):
        for k in _BW_K:
            for case, dl, deg, pts in (
                ("I", 8 * m * m + 9 - 2 * k, 2 * m, k - 1),
                ("II", 8 * m * (m + 1) + 9 - 2 * k, 2 * m + 1, k),
                ("III", 8 * m * m + 8 - 2 * k, 2 * m, k),
                ("IV", 8 * m * (m + 1) + 12 - 2 * k, 2 * m + 1, k - 1),
            ):
                if dl == delta:
                    rows.add((case, m, k, deg, pts))
    r = int(delta ** 0.5)
    while r * r > delta:
        r -= 1
    if r * r == delta and r >= 2:
        rows.add(("V", r, None, r - 1, 3))
    return rows


def check_bw(out: dict, delta: int):
    got = {(c["case"], c["m"], c["k"], c["degree"], c["num_points"]) for c in out["cases"]}
    if len(got) != len(out["cases"]) or got != bw_rows(delta):
        return "case rows differ from the table formulas"
    return None


# --- regulator ----------------------------------------------------------------


def check_regulator_echo(res: dict, a1: F, a3: F, precision: int):
    if (F(res["a1"]), F(res["a3"]), res["precision"]) != (a1, a3, precision):
        return "echoed inputs differ"
    x1, x2 = (qv(r) for r in res["roots"])
    for pt, x in zip(res["c_points"], (x1, x1, x2, x2)):
        if not (q_eq(qv(pt[0]), x) and q_eq(qv(pt[1]), q_rat(a1 * a3)) and q_eq(qv(pt[2]), q_rat(1))):
            return "a c-point is not (x_i, a1 a3, 1, w)"
    if res["ratio"]["digits"] < 1:
        return "ratio carries no certified digit"
    return None


def _mpc(d: dict):
    return mpmath.mpc(mpmath.mpf(d["re"]), mpmath.mpf(d["im"]))


def ratio_agrees(res: dict, ref: dict, precision: int):
    """The ratio agrees with a rerun at doubled precision to the requested
    digits (printed rounding included)."""
    with mpmath.workdps(2 * precision + 20):
        r, r2 = _mpc(res["ratio"]), _mpc(ref["ratio"])
        if abs(r - r2) > abs(r2) * mpmath.mpf(10) ** (1 - precision):
            return "ratio disagrees with the doubled-precision rerun"
    return None


def recognized_vanishes(poly: list, ref: dict, precision: int):
    """The recognized polynomial vanishes, at the doubled-precision ratio, on
    one of the real candidates R, |R|^2 and R + 1/R."""
    coeffs = [F(c) for c in poly]
    with mpmath.workdps(2 * precision + 20):
        r = _mpc(ref["ratio"])
        cands = [r.real, abs(r) ** 2, (r + 1 / r).real]
        for x in cands:
            val = mpmath.mpf(0)
            scale = mpmath.mpf(0)
            for c in reversed(coeffs):
                val = val * x + mpmath.mpf(c.numerator) / c.denominator
            for i, c in enumerate(coeffs):
                scale += abs(mpmath.mpf(c.numerator) / c.denominator) * abs(x) ** i
            if abs(val) <= scale * mpmath.mpf(10) ** (-precision):
                return None
    return "recognized polynomial does not vanish at the doubled-precision ratio"


# --- Green's functions ----------------------------------------------------------


def check_greens(doc: dict, value: float, err: float, terms: int, ref_value: float, ref_err: float):
    """|value - reference| <= err + reference err, and the JSON states the
    evaluated object."""
    g = doc["greens"]
    if g["terms"] != terms:
        return "JSON terms differ from the evaluated value"
    digits = max(g["value"]["digits"], 1)
    if abs(float(g["value"]["value"]) - value) > abs(value) * 10.0 ** (1 - digits):
        return "JSON value differs from the evaluated value beyond its printed digits"
    if not abs(value - ref_value) <= err + ref_err:
        return f"|G(z1,z2) - G(z2,z1)| = {abs(value - ref_value):.3g} > err sum {err + ref_err:.3g}"
    return None
