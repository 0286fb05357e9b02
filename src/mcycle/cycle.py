"""Local data of the conic cycle at the blown-up node q45, the rational
function on the strict transform, and the H4-locus regulator pipeline.

Everything up to the square roots of sextic values is exact; from there the
computation drops to BigComplex with tracked error. Branch convention: the
principal square root (positive real part / positive imaginary part on the
negative axis) is the "+" sheet, for the node data and the c-points alike.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .arith import (
    BigComplex,
    BigReal,
    QuadVal,
    UniPoly,
    as_quadval,
    quad_solve,
    recognize_algebraic,
)
from .errors import (
    BranchAtRamification,
    IncompatibleRadicands,
    InsufficientPrecision,
    OnH5Locus,
    PoleEvaluation,
    RepeatedRoot,
    ZeroDenominator,
)
from .geometry import Conic, ProjLine, conic_line_meet
from .kummer import ModuliParams, humbert5_conic, sextic_eval

_L6 = ProjLine((0, 0, 1))


@dataclass(frozen=True)
class BlowupLocalData:
    """Exact local data at the node q45 = [-1/2, 0, 1].

    conic is the closed-form H5 conic the data is taken on;
    slope = G(-1/2), the tangent slope of the conic branch at the node
    (computed by implicit differentiation: (p1-p5)/(p6-p4/2));
    h_value = H(-1/2, 0) = prod_{i=1..3} (a_i^2 - a_i);
    v0_plus/v0_minus = +-sqrt(slope*(slope+2)*h_value), exact QuadVals
    (negative radicand = exact imaginary); norm_const is the constant c in
    f_P = c*(v - v0+)/(v - v0-), equal to 1: the coordinate v blows up along
    the curve at both s6 points, so f_P(s6_1) = c.
    """

    params: ModuliParams
    conic: Conic
    slope: QuadVal
    h_value: QuadVal
    v0_sq: QuadVal
    v0_plus: QuadVal
    v0_minus: QuadVal
    s6_points: tuple
    norm_const: BigReal
    dps: int

    def to_json(self) -> dict:
        return {
            "slope": self.slope.to_json(),
            "h_value": self.h_value.to_json(),
            "v0_sq": self.v0_sq.to_json(),
            "v0_plus": self.v0_plus.to_json(),
            "v0_minus": self.v0_minus.to_json(),
            "s6_points": [p.to_json() for p in self.s6_points],
            "norm_const": self.norm_const.to_json(),
        }


def blowup_data(p: ModuliParams, dps: int = 50) -> BlowupLocalData:
    """Assemble the node-local data; degenerate inputs raise OnH5Locus or
    ZeroDenominator. The branches at q45 are always transversal (slope not
    in {0, -2}): p1 - p5 = -2 a1 a2 a3 (a1-a2)(a3-1) and
    p1 - p5 + 2 p6 - p4 = 2 a1 (a1-1)(a2-1)(a2-a3)(a3-1), every factor
    excluded by the moduli invariants (proved in
    tests/test_kummer.py::TestHumbert5::test_closed_form_proved_on_grid)."""
    conic = humbert5_conic(p)
    p1, p2, p3, p4, p5, p6 = conic.p
    if (p4 * p4 - 4 * p1 * p2).is_zero():
        raise OnH5Locus("s6 points coincide: the moduli point lies on H5")
    denom = p6 - p4 / 2
    if denom.is_zero():
        raise ZeroDenominator("conic is vertical-tangent at q45 (p6 - p4/2 = 0)")
    slope = (p1 - p5) / denom
    s6_1, s6_2 = conic_line_meet(conic, _L6)
    h = as_quadval(1)
    for ai in (p.a1, p.a2, p.a3):
        h = h * (ai * ai - ai)
    v0_sq = slope * (slope + 2) * h
    if v0_sq.is_rational:
        v0p = QuadVal.sqrt_rat(v0_sq.rat)  # principal by construction
    else:
        from .geometry import _sqrt_in_field

        v0p = _sqrt_in_field(v0_sq)
        if v0p is None:
            raise ValueError("v0 lies outside the quadratic field of the moduli")
        # principal branch: positive value, or positive imaginary part
        if (v0p.is_complex and v0p.coef < 0) or (
            not v0p.is_complex and v0p.sign() < 0
        ):
            v0p = -v0p
    return BlowupLocalData(
        params=p,
        conic=conic,
        slope=slope,
        h_value=h,
        v0_sq=v0_sq,
        v0_plus=v0p,
        v0_minus=-v0p,
        s6_points=(s6_1, s6_2),
        norm_const=BigReal.from_rat(1, dps),
        dps=dps,
    )


def f_p_eval(d: BlowupLocalData, v) -> BigComplex:
    """norm_const * (v - v0+)/(v - v0-); PoleEvaluation at the pole."""
    if isinstance(v, (int, Fraction, QuadVal)):
        if (as_quadval(v) - d.v0_minus).is_zero():
            raise PoleEvaluation("evaluation at v0-")
        v = as_quadval(v).to_bigcomplex(d.dps)
    v0p = d.v0_plus.to_bigcomplex(d.dps)
    v0m = d.v0_minus.to_bigcomplex(d.dps)
    den = v - v0m
    if abs(den).val <= den.err:
        raise PoleEvaluation("evaluation at (or indistinguishably near) v0-")
    return d.norm_const * (v - v0p) / den


@dataclass(frozen=True)
class CycleComponent:
    curve: str
    function: dict
    divisor: dict

    def to_json(self) -> dict:
        return {"curve": self.curve, "function": self.function, "divisor": self.divisor}


@dataclass(frozen=True)
class CyclePresentation:
    """Two-component presentation (strict transform with f_P, exceptional
    fibre with g_P = 1/f_P); the formal divisor sum cancels by construction."""

    components: tuple
    local_data: BlowupLocalData

    def boundary_divisor(self) -> dict:
        total: dict = {}
        for comp in self.components:
            for pt, mult in comp.divisor.items():
                total[pt] = total.get(pt, 0) + mult
        return {pt: m for pt, m in total.items() if m != 0}

    def to_json(self) -> dict:
        return {
            "components": [c.to_json() for c in self.components],
            "local_data": self.local_data.to_json(),
        }


def build_cycle(p: ModuliParams, dps: int = 50) -> CyclePresentation:
    d = blowup_data(p, dps)
    f_desc = {
        "kind": "moebius_in_v",
        "zero": d.v0_plus.to_json(),
        "pole": d.v0_minus.to_json(),
        "scale": d.norm_const.to_json(),
    }
    g_desc = {"kind": "reciprocal", "of": "f_P"}
    comps = (
        CycleComponent("strict_transform", f_desc, {"P1": 1, "P2": -1}),
        CycleComponent("exceptional_fibre", g_desc, {"P1": -1, "P2": 1}),
    )
    return CyclePresentation(components=comps, local_data=d)


@dataclass(frozen=True)
class RegulatorResult:
    """Output of the H4-locus pipeline (all sheets under the fixed principal
    branch convention; conjugate_swap exchanges them)."""

    a1: Fraction
    a3: Fraction
    precision: int
    roots: tuple  # (x1, x2) exact QuadVal
    c_points: tuple  # four (x, y, z, w) tuples, w numeric
    v_values: tuple  # (v1+, v1-, v2+, v2-)
    f_values: tuple  # (f(v1+), f(v1-), f(v2+), f(v2-))
    ratio: BigComplex
    log_abs: BigReal
    recognized: Optional[UniPoly]
    local_data: BlowupLocalData
    swapped: bool = False

    def to_json(self) -> dict:
        return {
            "a1": f"{self.a1.numerator}/{self.a1.denominator}",
            "a3": f"{self.a3.numerator}/{self.a3.denominator}",
            "precision": self.precision,
            "roots": [r.to_json() for r in self.roots],
            "c_points": [[c.to_json() for c in pt] for pt in self.c_points],
            "v_values": [v.to_json() for v in self.v_values],
            "ratio": self.ratio.to_json(),
            "log_abs": self.log_abs.to_json(),
            "recognized": self.recognized.to_json() if self.recognized else None,
            "swapped": self.swapped,
            "meta": {
                "branch_convention": "principal-sqrt-plus-first",
                "norm_const": self.local_data.norm_const.to_json(),
            },
        }


def regulator_h4(
    a1, a3, precision: int = 50, recognize: bool = False
) -> RegulatorResult:
    """Run the full pipeline at the H4-locus point (a1, a1*a3, a3).

    Solves the conic/line quadratic exactly, lifts the two intersection
    points to the double cover on both sheets, evaluates f_P and forms
    R = f(v1+) f(v2+) / (f(v1-) f(v2-)) and log|R|.

    Exact QuadVal parameters are accepted as far as the degeneration checks
    (so H5-locus points raise OnH5Locus exactly); the quadratic solve itself
    needs rational a1, a3.
    """
    a1q, a3q = as_quadval(a1), as_quadval(a3)
    a2q = a1q * a3q
    params = ModuliParams(a1q, a2q, a3q)
    dps = precision + 15
    d = blowup_data(params, dps)

    p1, p2, p3, p4, p5, p6 = d.conic.p
    # A = p1 = 4 a1 a2 a3 (a1 - a2) never vanishes on valid moduli
    A, B, C = p1, p4 * a2q + p5, p2 * a2q * a2q + p3 + p6 * a2q
    disc = B * B - 4 * A * C
    if disc.is_zero():
        raise RepeatedRoot("pipeline quadratic has a double root")
    if not (A.is_rational and B.is_rational and C.is_rational):
        raise IncompatibleRadicands(
            "off the degeneration loci the pipeline needs rational a1, a3"
        )
    a1, a3, a2 = a1q.rat, a3q.rat, a2q.rat
    x1, x2 = quad_solve(A.rat, B.rat, C.rat)

    half = Fraction(1, 2)
    v_all = []
    f_all = []
    c_points = []
    for xi in (x1, x2):
        if (xi + half).is_zero():
            raise BranchAtRamification("x_i = -1/2 hits the node")
        s_val = sextic_eval(params, xi, a2)
        if s_val.is_zero():
            raise BranchAtRamification("S(x_i, a1*a3, 1) = 0: point on the sextic")
        w_plus = s_val.to_bigcomplex(dps).sqrt()
        denom = (xi + half).to_bigcomplex(dps)
        v_plus = w_plus / denom
        v_minus = -v_plus
        c_points.append((xi, as_quadval(a2), as_quadval(1), w_plus))
        c_points.append((xi, as_quadval(a2), as_quadval(1), -w_plus))
        v_all.extend([v_plus, v_minus])
        f_all.extend([f_p_eval(d, v_plus), f_p_eval(d, v_minus)])

    f1p, f1m, f2p, f2m = f_all
    for f in f_all:
        if abs(f).val == 0:
            raise BranchAtRamification("f_P vanishes at a c-point (hits the node section)")
    ratio = (f1p * f2p) / (f1m * f2m)
    log_abs = abs(ratio).log()

    rec = None
    if recognize:
        rec = _recognize_ratio(ratio)

    return RegulatorResult(
        a1=a1,
        a3=a3,
        precision=precision,
        roots=(x1, x2),
        c_points=tuple(c_points),
        v_values=tuple(v_all),
        f_values=(f1p, f1m, f2p, f2m),
        ratio=ratio,
        log_abs=log_abs,
        recognized=rec,
        local_data=d,
    )


def _recognize_ratio(ratio: BigComplex) -> Optional[UniPoly]:
    """Try the real candidates: R itself when certifiably real, else |R|^2
    and the real part of R + 1/R. Degree and height kept bounded."""
    candidates = []
    im = ratio.imag
    if abs(im.val) <= im.err + abs(ratio.val) * 1e-40:
        candidates.append(ratio.real)
    mod2 = abs(ratio) * abs(ratio)
    candidates.append(mod2)
    inv = BigComplex(1, 0, ratio.dps) / ratio
    tr = ratio + inv
    if abs(tr.imag.val) <= tr.err * 4:
        candidates.append(tr.real)
    for cand in candidates:
        try:
            poly = recognize_algebraic(cand, max_degree=8, coeff_bound=10**6)
        except InsufficientPrecision:
            continue
        if poly is not None:
            return poly
    return None


def conjugate_swap(r: RegulatorResult) -> RegulatorResult:
    """Exchange the two sheets (every + branch of the c-points becomes -);
    the ratio becomes its reciprocal and log|R| flips sign."""
    f1p, f1m, f2p, f2m = r.f_values
    v1p, v1m, v2p, v2m = r.v_values
    ratio = (f1m * f2m) / (f1p * f2p)
    log_abs = abs(ratio).log()
    cp = list(r.c_points)
    cp = [cp[1], cp[0], cp[3], cp[2]]
    return replace(
        r,
        c_points=tuple(cp),
        v_values=(v1m, v1p, v2m, v2p),
        f_values=(f1m, f1p, f2m, f2p),
        ratio=ratio,
        log_abs=log_abs,
        recognized=r.recognized,
        swapped=not r.swapped,
    )
