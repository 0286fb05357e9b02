"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -rA or -s to see the lines for passing tests)."""
import random
import time
from fractions import Fraction as F

from mpmath import mp, mpf, workdps

from mcycle.arith import BigReal, QuadVal, as_quadval, rat_from_mpf, recognize_algebraic
from mcycle.cycle import conjugate_swap, f_p_eval, regulator_h4
from mcycle.errors import InvalidModuli, OnH5Locus
from mcycle.geometry import ProjLine, conic_line_meet, conic_through_5, restriction_discriminant
from mcycle.greens import (
    TruncationPolicy,
    UHPoint,
    green_det_m_direct,
    green_k,
    hecke_green,
    legendre_q,
    legendre_q_closed_q1,
)
from mcycle.kummer import (
    BWCase,
    ModuliParams,
    bw_cases,
    h5_points,
    h5_roots_in_a3,
    humbert5_conic,
    humbert5_coeffs,
)
from mcycle.nslattice import (
    EndElt,
    cm_cycle,
    cm_z,
    fibre1,
    fibre2,
    graph,
    humbert_norm,
    ns_pair,
    theta,
)

L6 = ProjLine((0, 0, 1))


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_params(rng: random.Random) -> ModuliParams:
    while True:
        vals = []
        while len(vals) < 3:
            f = F(rng.randint(-40, 40), rng.randint(1, 12))
            if f not in (0, 1) and f not in vals:
                vals.append(f)
        try:
            return ModuliParams(*vals)
        except InvalidModuli:
            continue


def test_criterion_1_conic_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(1234)
    for _ in range(200):
        p = _random_params(rng)
        closed = humbert5_conic(p)
        det = conic_through_5(h5_points(p))
        assert closed == det, f"mismatch at {p}"
    elapsed = time.time() - t0
    report("conic oracle equivalence (200 random triples, exact)",
           elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_2_tangency_iff_discriminant():
    t0 = time.time()
    pairs = [(2, 3), (2, 5), (3, 2), (5, 2), (3, 7), (2, 7)]
    for a1, a2 in pairs:
        roots = h5_roots_in_a3(a1, a2, precision=60)
        assert roots, f"no tangency root for {(a1, a2)}"
        a3 = rat_from_mpf(roots[0])
        p = ModuliParams(a1, a2, a3)
        conic = humbert5_conic(p)
        with workdps(70):
            d = restriction_discriminant(conic, L6).to_mpf(70)
            assert abs(d) < mpf(10) ** -40, f"|disc| = {d} at {(a1, a2)}"
        # the two s6 points coincide to within the numeric tolerance (the
        # residual discriminant may land a hair on the complex side)
        s1, s2 = conic_line_meet(conic, L6)
        with workdps(70):
            u = [c.to_mpc(70) for c in s1.canonical().coords]
            v = [c.to_mpc(70) for c in s2.canonical().coords]
            gap = max(abs(a - b) for a, b in zip(u, v))
            assert gap < mpf(10) ** -19, f"s6 gap {gap} at {(a1, a2)}"
        # generic parameters: distinct s6 points, exactly
        generic = ModuliParams(a1, a2, a3 + F(1, 3))
        g1, g2 = conic_line_meet(humbert5_conic(generic), L6)
        assert g1 != g2
    elapsed = time.time() - t0
    report("tangency <=> discriminant (6 pairs, 60-digit roots, 1e-40)",
           elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_3_birkenhake_wilhelm_table():
    t0 = time.time()
    ok = (BWCase("I", 1, 6, 5, 2, 5) in bw_cases(5)
          and BWCase("V", 2, None, 4, 1, 3) in bw_cases(4))
    report("Birkenhake-Wilhelm table (delta=5 conic row, delta=4 line row)",
           ok and time.time() - t0 < 1)


def test_criterion_4_humbert_norms():
    t0 = time.time()
    ok = all(humbert_norm(graph(EndElt.isogeny(n - 1))) == n * n
             for n in range(2, 11))
    ok = ok and humbert_norm(fibre1()) == 1 and humbert_norm(theta()) == 0
    report("Humbert norms (H(Gamma_h)=n^2 for n=2..10, H(f1)=1, H(Theta)=0)",
           ok and time.time() - t0 < 1)


def test_criterion_5_cm_cycle_lattice():
    t0 = time.time()
    ok = True
    for d in (-3, -4, -7, -8, -11):
        z = cm_z(d)
        ok = ok and z.a == 0 and z.b == 0 and z.phi == EndElt.sqrt_disc(d)
        gamma1 = graph(EndElt(1, 0, d))
        ok = ok and all(
            ns_pair(z, other) == 0
            for other in (fibre1(d), fibre2(d), gamma1)
        )
        s, c = cm_cycle(d)
        ok = ok and ns_pair(s, s) == -8 * abs(d)
        with workdps(60):
            ok = ok and abs((c * c).val * (-ns_pair(s, s)) - 1) < mpf(10) ** -45
        ok = ok and s == graph(EndElt.sqrt_disc(d)) - graph(EndElt(0, -1, d))
    report("CM-cycle lattice (D in {-3,-4,-7,-8,-11}, exact)",
           ok and time.time() - t0 < 1)


def test_criterion_6_legendre_q():
    t0 = time.time()
    ok = True
    for t in (mpf("1.5"), mpf(2), mpf(3), mpf(10)):
        q = legendre_q(2, t, precision=40)
        qc = legendre_q_closed_q1(t, precision=40)
        with workdps(60):
            ok = ok and abs(q.val - qc.val) < mpf(10) ** -30
    with workdps(55):
        t = mpf(2)
        q0 = mp.log((t + 1) / (t - 1)) / 2
        q1 = legendre_q(2, t, 40).val
        q2 = legendre_q(3, t, 40).val
        q3 = legendre_q(4, t, 40).val
        ok = ok and abs(2 * q2 - 3 * t * q1 + q0) < mpf(10) ** -28
        ok = ok and abs(3 * q3 - 5 * t * q2 + 2 * q1) < mpf(10) ** -28
    elapsed = time.time() - t0
    report("Legendre Q quadrature vs closed form (1e-30 at 40 digits) "
           "and recurrence (1e-28)", ok and elapsed < 10, f"{elapsed:.1f}s")


GREENS_PAIRS = [
    ((F(3, 10), F(17, 10)), (F(52, 10), F(7, 10))),
    ((F(1, 5), F(13, 10)), (F(-2, 5), F(21, 10))),
    ((F(1, 7), F(6, 5)), (F(3, 2), F(11, 10))),
    ((F(-2, 3), F(9, 8)), (F(1, 5), F(13, 7))),
    ((F(4, 3), F(10, 7)), (F(-7, 5), F(8, 7))),
]


def test_criterion_7_greens_invariance():
    t0 = time.time()
    pol = TruncationPolicy(matrix_bound=500)
    pol2 = TruncationPolicy(matrix_bound=1000)
    ok = True
    for (r1, i1), (r2, i2) in GREENS_PAIRS:
        z1, z2 = UHPoint(r1, i1), UHPoint(r2, i2)
        base = green_k(2, z1, z2, pol)
        bval, berr = float(base.value.val), float(base.value.err)
        moved_t = green_k(2, UHPoint(z1.re + 1, z1.im), z2, pol)
        ok = ok and abs(float(moved_t.value.val) - bval) <= berr + float(moved_t.value.err)
        with workdps(30):
            w = -1 / z1.as_mpc()
        s_z1 = UHPoint(BigReal(w.real, 0, 30), BigReal(w.imag, 0, 30))
        moved_s = green_k(2, s_z1, z2, pol)
        ok = ok and abs(float(moved_s.value.val) - bval) <= berr + float(moved_s.value.err)
        sym = green_k(2, z2, z1, pol)
        ok = ok and abs(float(sym.value.val) - bval) <= berr + float(sym.value.err)
        doubled = green_k(2, z1, z2, pol2)
        ok = ok and abs(float(doubled.value.val) - bval) <= float(base.tail_estimate.val)
    elapsed = time.time() - t0
    report("Green's invariance and symmetry within tails "
           "(5 pairs, bound 500; doubling within stated tail)",
           ok and elapsed < 120, f"{elapsed:.0f}s")


def test_criterion_8_hecke_consistency():
    t0 = time.time()
    pol = TruncationPolicy(matrix_bound=500)
    z1, z2 = UHPoint(0, 2), UHPoint(F(1, 2), 2)
    g = green_k(2, z1, z2, pol)
    h1 = hecke_green(2, 1, z1, z2, pol)
    ok = float(h1.value.val) == float(g.value.val)
    h2 = hecke_green(2, 2, z1, z2, pol)
    d2 = green_det_m_direct(2, 2, z1, z2, 500)
    ok = ok and (
        abs(float(h2.value.val) - float(d2.value.val))
        <= float(h2.value.err) + float(d2.value.err)
    )
    elapsed = time.time() - t0
    report("Hecke consistency (m=1 exact; m=2 coset vs direct within tails)",
           ok and elapsed < 120, f"{elapsed:.0f}s")


def test_criterion_9_regulator_pipeline():
    t0 = time.time()
    a1, a3 = F(2), F(3)
    coeffs = humbert5_coeffs(ModuliParams(a1, a1 * a3, a3))
    ok = coeffs[0] == as_quadval(4 * a1 * (a1 * a3) * a3 * (a1 - a1 * a3))
    ok = ok and coeffs[0] == as_quadval(4 * (a1 * a3) ** 2 * (a1 - a1 * a3))
    ok = ok and coeffs[0].rat == -576

    r50 = regulator_h4(2, 3, precision=50)
    r100 = regulator_h4(2, 3, precision=100)
    with workdps(120):
        ok = ok and abs(r50.ratio.val - r100.ratio.val) < mpf(10) ** -45

    from dataclasses import replace

    d7 = replace(r50.local_data,
                 norm_const=BigReal.from_rat(7, r50.local_data.dps))
    f = [f_p_eval(d7, v) for v in r50.v_values]
    ratio7 = (f[0] * f[2]) / (f[1] * f[3])
    with workdps(80):
        ok = ok and abs(ratio7.val - r50.ratio.val) < mpf(10) ** -45

    sw = conjugate_swap(r50)
    with workdps(80):
        ok = ok and abs((r50.ratio * sw.ratio).val - 1) < mpf(10) ** -45

    h5_a3 = QuadVal(F(11, 9), F(2, 9), 10)  # H5 root on the a1=2 slice of H4
    try:
        regulator_h4(2, h5_a3, precision=30)
        ok = False
    except OnH5Locus:
        pass
    elapsed = time.time() - t0
    report("regulator pipeline (A=-576 both forms; 50vs100 >= 45 digits; "
           "norm-const invariance; swap reciprocal; OnH5Locus)",
           ok and elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_10_recognition_sanity():
    t0 = time.time()
    with workdps(70):
        phi = (1 + mp.sqrt(5)) / 2
    x = BigReal(phi, mpf(10) ** -62, 70)
    p = recognize_algebraic(x, 2, 10)
    ok = p is not None and p.coeffs == (F(-1), F(-1), F(1))
    with workdps(70):
        pi_val = BigReal(mp.pi, mpf(10) ** -62, 70)
    ok = ok and recognize_algebraic(pi_val, 4, 100) is None
    elapsed = time.time() - t0
    report("recognition sanity (x^2-x-1 from 60-digit golden ratio; "
           "none for pi at degree <= 4, coeff <= 100)",
           ok and elapsed < 10, f"{elapsed:.1f}s")
