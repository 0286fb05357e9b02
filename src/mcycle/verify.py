"""Built-in oracle suite: independent cross-checks of the module identities,
runnable via `mcycle verify`. Each check returns (name, passed, detail)."""
from __future__ import annotations

import random
from fractions import Fraction

from mpmath import mp, workdps

from .arith import BigReal
from .errors import InvalidModuli
from .geometry import conic_through_5
from .greens import (
    TruncationPolicy,
    UHPoint,
    green_k,
    legendre_q,
    legendre_q_closed_q1,
)
from .kummer import ModuliParams, bw_cases, h5_points, humbert5_conic
from .nslattice import (
    EndElt,
    cm_z,
    fibre1,
    fibre2,
    graph,
    humbert_norm,
    ns_pair,
    sigma_star,
    theta,
)


def _random_params(rng: random.Random) -> ModuliParams:
    while True:
        vals = []
        while len(vals) < 3:
            num = rng.randint(-30, 30)
            den = rng.randint(1, 10)
            f = Fraction(num, den)
            if f not in (0, 1) and f not in vals:
                vals.append(f)
        try:
            return ModuliParams(*vals)
        except InvalidModuli:
            continue


def check_conic_oracle(n: int = 50, seed: int = 20240901) -> tuple[str, bool, str]:
    rng = random.Random(seed)
    for i in range(n):
        p = _random_params(rng)
        conic = humbert5_conic(p)
        det = conic_through_5(h5_points(p))
        if conic != det:
            return ("conic-closed-form-vs-determinant", False,
                    f"mismatch at sample {i}: {p}")
    return ("conic-closed-form-vs-determinant", True, f"{n} random triples agree")


def check_pairing_identities() -> tuple[str, bool, str]:
    probs = []
    f1, f2, th = fibre1(), fibre2(), theta()
    if ns_pair(f1, f2) != 1 or ns_pair(f1, f1) != 0 or ns_pair(th, th) != 2:
        probs.append("fibre/theta pairings")
    for n in range(2, 11):
        gh = graph(EndElt.isogeny(n - 1))
        if ns_pair(gh, theta(gh.phi.disc, 1)) != n:
            probs.append(f"(Gamma_h, Theta) != {n}")
        if ns_pair(gh, gh) != 0:
            probs.append(f"(Gamma_h, Gamma_h) != 0 at n={n}")
        if humbert_norm(gh) != n * n:
            probs.append(f"H(Gamma_h) != {n*n}")
    for disc in (-3, -4, -7, -8, -11):
        z = cm_z(disc)
        s = z - sigma_star(z)
        if ns_pair(s, s) != -8 * abs(disc):
            probs.append(f"(Z - s*Z)^2 != -8|D| at D={disc}")
    return ("ns-pairing-identities", not probs, "; ".join(probs) or "all identities hold")


def check_legendre_recurrence(precision: int = 30) -> tuple[str, bool, str]:
    with workdps(precision + 15):
        t = mp.mpf(2)
        q0 = mp.log((t + 1) / (t - 1)) / 2  # closed form, s = 1
        q1 = legendre_q(2, t, precision)
        q2 = legendre_q(3, t, precision)
        q3 = legendre_q(4, t, precision)
        r1 = abs(2 * q2.val - 3 * t * q1.val + q0)
        r2 = abs(3 * q3.val - 5 * t * q2.val + 2 * q1.val)
        closed = legendre_q_closed_q1(t, precision)
        r3 = abs(q1.val - closed.val)
        tol = mp.mpf(10) ** (-precision + 2)
        ok = r1 < tol and r2 < tol and r3 < tol
        return ("legendre-recurrence-and-closed-form", ok,
                f"residuals {mp.nstr(r1, 3)}, {mp.nstr(r2, 3)}, {mp.nstr(r3, 3)}")


def check_gamma_invariance(bound: int = 120) -> tuple[str, bool, str]:
    pol = TruncationPolicy(matrix_bound=bound)
    z1 = UHPoint(Fraction(1, 5), Fraction(17, 10))
    z2 = UHPoint(Fraction(-3, 10), Fraction(13, 10))
    base = green_k(2, z1, z2, pol)
    probs = []
    with workdps(30):
        t_z1 = UHPoint(z1.re + 1, z1.im)
        w = -1 / z1.as_mpc()
        s_z1 = UHPoint(BigReal(w.real, 0, 30), BigReal(w.imag, 0, 30))
        for name, moved in (("T", t_z1), ("S", s_z1)):
            g = green_k(2, moved, z2, pol)
            diff = abs(float(g.value.val) - float(base.value.val))
            budget = float(g.value.err) + float(base.value.err)
            if diff > budget:
                probs.append(f"{name}-invariance off: {diff:.2e} > {budget:.2e}")
        sym = green_k(2, z2, z1, pol)
        diff = abs(float(sym.value.val) - float(base.value.val))
        budget = float(sym.value.err) + float(base.value.err)
        if diff > budget:
            probs.append(f"symmetry off: {diff:.2e} > {budget:.2e}")
    return ("greens-gamma-invariance", not probs, "; ".join(probs) or
            f"invariance within tails at bound {bound}")


def check_mellit_cm_value(bound: int = 250) -> tuple[str, bool, str]:
    """Mellit's CM value G_2((-1 + sqrt(-7))/2, i) = (8/sqrt 7) log(8 - 3 sqrt 7),
    an oracle independent of the lattice sum."""
    with workdps(30):
        r7 = mp.sqrt(7)
        exact = float(8 / r7 * mp.log(8 - 3 * r7))
        z1 = UHPoint(Fraction(-1, 2), r7 / 2)
    g = green_k(2, z1, UHPoint(0, 1), TruncationPolicy(matrix_bound=bound))
    diff, budget = abs(float(g.value.val) - exact), float(g.value.err)
    return ("greens-mellit-cm-value", diff <= budget,
            f"|G - exact| = {diff:.2e}, printed err {budget:.2e} at bound {bound}")


def check_bw_table() -> tuple[str, bool, str]:
    rows5 = {(c.case_label, c.m, c.k, c.degree, c.num_torsion_points) for c in bw_cases(5)}
    rows4 = {(c.case_label, c.m, c.k, c.degree, c.num_torsion_points) for c in bw_cases(4)}
    ok = ("I", 1, 6, 2, 5) in rows5 and ("V", 2, None, 1, 3) in rows4
    return ("birkenhake-wilhelm-rows", ok,
            "delta=5 conic row and delta=4 line row present" if ok else "rows missing")


ALL_CHECKS = (
    check_conic_oracle,
    check_pairing_identities,
    check_legendre_recurrence,
    check_gamma_invariance,
    check_mellit_cm_value,
    check_bw_table,
)


def run_all(fast: bool = False) -> list[dict]:
    out = []
    for fn in ALL_CHECKS:
        if fast and fn is check_conic_oracle:
            name, ok, detail = fn(10)
        elif fast and fn is check_gamma_invariance:
            name, ok, detail = fn(40)
        else:
            name, ok, detail = fn()
        out.append({"name": name, "pass": ok, "detail": detail})
    return out
