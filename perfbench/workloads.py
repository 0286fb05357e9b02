"""The three benchmark workloads: seeded op generation, op execution and the
per-op oracle call.

Each workload is a fixed cyclic pattern of op kinds whose parameters are
drawn from the seed, so every run carries the same share of each kind and
seeds vary only the inputs. Op execution touches the program only through
module attributes looked up at call time (``mcycle.cli.main``,
``mcycle.greens.green_k``), so the tracer's rebinding reaches them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from fractions import Fraction as F

import oracles

# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def rat_str(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat(rng: random.Random, height: str) -> F:
    """Small height: |num| <= 40, den <= 9. Large: |num| <= 1e6, den <= 1e4."""
    if height == "small":
        return F(rng.randint(-40, 40), rng.randint(1, 9))
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


def _rat_in(rng: random.Random, lo: int, hi: int) -> F:
    """A small-height rational strictly between lo and hi."""
    while True:
        x = F(rng.randint(-40, 40), rng.randint(1, 9))
        if lo < x < hi:
            return x


def _params(rng, height):
    return [_rat(rng, height) for _ in range(3)]


def _ns_class(rng, disc):
    def r():
        return rat_str(F(rng.randint(-9, 9), rng.randint(1, 4)))
    return {"a": r(), "b": r(), "phi": {"u": r(), "v": r(), "disc": disc}}


def _cli_op(kind, argv, **fields):
    return {"kind": kind, "argv": argv, **fields}


def _exact_op(rng, spec) -> dict:
    kind = spec[0]
    if kind == "regulator":
        _, height, prec = spec
        a1, a3 = _rat(rng, height), _rat(rng, height)
        return _cli_op(f"regulator-{height}-{prec}",
                       ["regulator", f"--a1={rat_str(a1)}", f"--a3={rat_str(a3)}",
                        f"--precision={prec}"],
                       a1=rat_str(a1), a3=rat_str(a3), precision=prec)
    if kind in ("cycle", "conic", "config"):
        height = spec[1]
        ps = _params(rng, height)
        argv = [kind, "--params=" + ",".join(rat_str(p) for p in ps)]
        if kind == "cycle":
            argv += ["--precision=50"]
        if kind == "conic":
            argv += [f"--method={spec[2]}"]
            return _cli_op(f"conic-{spec[2]}-{height}", argv, params=[rat_str(p) for p in ps],
                           method=spec[2])
        return _cli_op(f"{kind}-{height}", argv, params=[rat_str(p) for p in ps])
    if kind == "humbert":
        check = spec[1]
        ps = _params(rng, "small")
        if check == 4 and rng.random() < 0.5:
            ps[1] = ps[0] * ps[2]  # a point of the H4 component a2 = a1 a3
        return _cli_op(f"humbert-{check}",
                       ["humbert", "--params=" + ",".join(rat_str(p) for p in ps),
                        f"--check={check}"],
                       params=[rat_str(p) for p in ps], check=check)
    if kind == "ns-cm":
        disc = -rng.randint(3, 200)
        return _cli_op("ns-cm-cycle", ["ns", "cm-cycle", f"--disc={disc}", "--precision=50"],
                       disc=disc)
    if kind == "ns-pair":
        disc = -rng.randint(3, 200)
        d1, d2 = _ns_class(rng, disc), _ns_class(rng, disc)
        return _cli_op("ns-pair", ["ns", "pair", "--d1", json.dumps(d1), "--d2", json.dumps(d2)],
                       d1=d1, d2=d2)
    if kind == "bw":
        delta = rng.randint(1, 500)
        return _cli_op("bw-cases", ["bw-cases", f"--delta={delta}"], delta=delta)
    raise ValueError(kind)


# One pass of the exact mix: 13 of 24 ops are regulators (9 small-height and
# 2 large-height at 50 digits, 2 at 1000 digits); the rest covers every other
# exact command once or twice. A large-height regulator costs 25-45 ms or,
# when its discriminant needs long trial division, 140-300 ms.
EXACT_PATTERN = (
    ("regulator", "small", 50), ("conic", "small", "closed"), ("regulator", "large", 50),
    ("regulator", "small", 50), ("cycle", "small"), ("regulator", "small", 1000),
    ("regulator", "small", 50), ("humbert", 4), ("regulator", "large", 50),
    ("config", "small"), ("regulator", "small", 50), ("conic", "large", "det"),
    ("regulator", "small", 50), ("ns-cm",), ("regulator", "small", 50), ("ns-pair",),
    ("regulator", "small", 50), ("humbert", 5), ("regulator", "small", 1000),
    ("cycle", "large"), ("regulator", "small", 50), ("humbert", 8),
    ("conic", "small", "det"), ("bw",),
)

# Regions of (a1, a3) as open (a1 range, a3 range). On a1 > 1 > 0 > a3 the
# ratio has |R| = 1 (in every sample measured), so PSLQ certifies x - 1 in
# its first call; in the other three regions it mostly finds no relation
# after all 24 calls. One op in four comes from the |R| = 1 region, so every
# run has the same share. (0 < a1 < 1 also recognizes fast and is left out.)
RECOGNIZE_REGIONS = (((1, 41), (0, 41)), ((-41, 0), (0, 41)), ((-41, 0), (-41, 0)),
                     ((1, 41), (-41, 0)))
RECOGNIZE_PRECISION = 60

# Green's ops: (function, k or m, tolerance, Im z1 range, Im z2 range), Im in
# hundredths within [0.8, 3]. Start bound 50, max_bound pinned. The bound an
# op stops at grows with Im z1 and Im z2; the ranges keep each kind at one
# set of bounds (green_k: 400 for k = 2, 200 for k = 3 and 4, 100 for k = 5;
# the Hecke cosets and the combo at 100 or 200), so a seed changes the points
# but hardly the work.
GREENS_PATTERN = (
    ("green_k", 2, 5e-4, (190, 300), (80, 300)), ("green_k", 3, 1e-7, (80, 150), (80, 300)),
    ("hecke_green", 2, 1e-6, (80, 220), (80, 300)), ("green_k", 4, 1e-10, (80, 250), (80, 300)),
    ("greens_combo", 2, 1e-5, (80, 200), (80, 200)), ("green_k", 5, 1e-10, (80, 300), (80, 300)),
    ("hecke_green", 3, 1e-5, (80, 200), (80, 200)),
)
GREENS_START_BOUND = 50
GREENS_MAX_BOUND = 800
HECKE_S = 3
COMBO_PP = {"1": "1", "2": "-3/2", "3": "1/3"}
# Enumeration cost at bound N: about 4.87 N^2 terms of about 150 bytes each.
TERMS_PER_N2 = 4.87
BYTES_PER_TERM = 150


def _uh(rng, im_range) -> str:
    return f"{rat_str(F(rng.randint(-50, 50), 100))},{rat_str(F(rng.randint(*im_range), 100))}"


def generate(workload: str, seed: int, count: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for i in range(count):
        if workload == "exact-mix":
            ops.append(_exact_op(rng, EXACT_PATTERN[i % len(EXACT_PATTERN)]))
        elif workload == "regulator-recognize":
            a1, a3 = (_rat_in(rng, *r) for r in RECOGNIZE_REGIONS[i % len(RECOGNIZE_REGIONS)])
            ops.append(_cli_op("regulator-recognize",
                               ["regulator", f"--a1={rat_str(a1)}", f"--a3={rat_str(a3)}",
                                f"--precision={RECOGNIZE_PRECISION}", "--recognize"],
                               a1=rat_str(a1), a3=rat_str(a3), precision=RECOGNIZE_PRECISION))
        else:
            kind, arg, tol, im1, im2 = GREENS_PATTERN[i % len(GREENS_PATTERN)]
            ops.append({"kind": f"{kind}-{arg}", "fn": kind, "arg": arg, "tol": tol,
                        "z1": _uh(rng, im1), "z2": _uh(rng, im2)})
    return ops


OP_COUNT = {"exact-mix": 4000, "regulator-recognize": 400, "greens-refine": 400}

WARMUP = {
    "exact-mix": _cli_op("regulator-small-50",
                         ["regulator", "--a1=2", "--a3=3", "--precision=50"],
                         a1="2", a3="3", precision=50),
    # in the |R| = 1 region: recognized in one PSLQ call
    "regulator-recognize": _cli_op("regulator-recognize",
                                   ["regulator", "--a1=3", "--a3=-2",
                                    f"--precision={RECOGNIZE_PRECISION}", "--recognize"],
                                   a1="3", a3="-2", precision=RECOGNIZE_PRECISION),
    # stops at bound 400 (the steps are 5e-4 at 100 -> 200 and 1.3e-4 at
    # 200 -> 400), the highest level timed ops reach, so peak RSS does not
    # hinge on which points a seed draws
    "greens-refine": {"kind": "green_k-2", "fn": "green_k", "arg": 2, "tol": 3e-4,
                      "z1": "1/5,17/10", "z2": "-3/10,13/10"},
}

# share of regulator ops rerun at doubled precision by the oracle
RERUN_SHARE = {"exact-mix": 1 / 3, "regulator-recognize": 1.0}


# ---------------------------------------------------------------------------
# op execution (inside the timed window)
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit status, stdout) of `mcycle <argv>`, run in-process."""
    import mcycle.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mcycle.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def memory_budget_bytes() -> int:
    """Half of physical memory: a Green's op whose worst case exceeds it is
    refused before it runs."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def worst_case_bytes(max_bound: int) -> int:
    return int(TERMS_PER_N2 * max_bound ** 2 * BYTES_PER_TERM)


def run_greens(op: dict, swap: bool = False):
    """Evaluate through the library functions `mcycle greens` calls, with
    max_bound pinned; returns (JSON text, value, err, terms)."""
    import mcycle.arith as arith
    import mcycle.greens as greens

    if worst_case_bytes(GREENS_MAX_BOUND) > memory_budget_bytes():
        raise MemoryError("worst-case enumeration does not fit in the memory budget")
    policy = greens.TruncationPolicy(matrix_bound=GREENS_START_BOUND, target_tol=op["tol"],
                                     adaptive=True, max_bound=GREENS_MAX_BOUND)
    z1, z2 = (greens.UHPoint(*(arith.rat_from_str(p) for p in op[z].split(",")))
              for z in (("z2", "z1") if swap else ("z1", "z2")))
    if op["fn"] == "green_k":
        g = greens.green_k(op["arg"], z1, z2, policy)
    elif op["fn"] == "hecke_green":
        g = greens.hecke_green(HECKE_S, op["arg"], z1, z2, policy)
    else:
        pp = greens.PrincipalPart.from_json({"coeffs": COMBO_PP})
        g = greens.greens_combo(pp, op["arg"], z1, z2, policy)
    text = json.dumps({"greens": g.to_json()}, indent=2)
    return text, float(g.value.val), float(g.value.err), g.terms_summed


def run_op(workload: str, op: dict):
    if workload == "greens-refine":
        return run_greens(op)
    return run_cli(op["argv"])


# ---------------------------------------------------------------------------
# oracles (outside the timed window)
# ---------------------------------------------------------------------------


class Checker:
    """Classifies each op as ok, refused (a confirmed domain refusal) or
    failed, and collects the accuracy figures of the ok ops."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"oracle:{workload}:{seed}")
        self.margins: list[int] = []
        self.err_over_tol: list[float] = []
        self.terms_final = 0

    def check(self, op: dict, raw):
        """(status, reason) for one op's raw output."""
        if self.workload == "greens-refine":
            return self._check_greens(op, raw)
        code, text = raw
        if code == 1:
            return self._check_refusal(op, json.loads(text)["error"])
        if code != 0:
            return "failed", f"exit code {code}"
        reason = self._check_cli(op, json.loads(text))
        return ("failed", reason) if reason else ("ok", None)

    def _moduli(self, op):
        if "params" in op:
            return tuple(F(p) for p in op["params"])
        a1, a3 = F(op["a1"]), F(op["a3"])
        return (a1, a1 * a3, a3)

    def _check_refusal(self, op, err):
        if ("params" in op or "a1" in op) and oracles.refusal_confirmed(err["type"], self._moduli(op)):
            return "refused", err["type"]
        return "failed", f"unconfirmed refusal {err['type']}: {err['message']}"

    def _check_cli(self, op, out):
        kind = op["kind"]
        if kind.startswith("regulator"):
            return self._check_regulator(op, out["result"])
        if kind.startswith("conic"):
            return oracles.check_conic(out, self._moduli(op), op["method"])
        if kind.startswith("config"):
            return oracles.check_config(out["config"], self._moduli(op))
        if kind.startswith("cycle"):
            return oracles.check_cycle(out, self._moduli(op))
        if kind.startswith("humbert"):
            return oracles.check_humbert(out, self._moduli(op), op["check"])
        if kind == "ns-cm-cycle":
            return oracles.check_cm_cycle(out, op["disc"])
        if kind == "ns-pair":
            return oracles.check_ns_pair(out, op["d1"], op["d2"])
        if kind == "bw-cases":
            return oracles.check_bw(out, op["delta"])
        return f"no oracle for {kind}"

    def _check_regulator(self, op, res):
        prec = op["precision"]
        reason = oracles.check_regulator_echo(res, F(op["a1"]), F(op["a3"]), prec)
        if reason:
            return reason
        poly = res["recognized"]
        if poly is not None or self.rng.random() < RERUN_SHARE[self.workload]:
            code, text = run_cli(["regulator", f"--a1={op['a1']}", f"--a3={op['a3']}",
                                  f"--precision={2 * prec}"])
            if code != 0:
                return f"doubled-precision rerun exited {code}"
            ref = json.loads(text)["result"]
            reason = oracles.ratio_agrees(res, ref, prec)
            if reason is None and poly is not None:
                reason = oracles.recognized_vanishes(poly, ref, prec)
            if reason:
                return reason
        self.margins.append(res["ratio"]["digits"] - prec)
        return None

    def _check_greens(self, op, raw):
        text, value, err, terms = raw
        _, ref_value, ref_err, _ = run_greens(op, swap=True)
        reason = oracles.check_greens(json.loads(text), value, err, terms, ref_value, ref_err)
        if reason:
            return "failed", reason
        self.err_over_tol.append(err / op["tol"])
        self.terms_final += terms
        return "ok", None

    def summary(self) -> dict:
        return {
            "digits_margin_min": min(self.margins) if self.margins else None,
            "err_over_tol": statistics.median(self.err_over_tol) if self.err_over_tol else None,
            "terms_final": self.terms_final,
        }
