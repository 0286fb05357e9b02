"""mcycle benchmark: one seeded workload per invocation, from the root of a
checkout.

    python3 perfbench/run.py --workload exact-mix --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process (perfbench/worker.py) as a closed loop
with one client. With --trace 0 the last stdout line is the end-to-end
result; set-up is timed five times (four set-up-only processes and the
measured one) and reported as the median. With --trace 1 an untraced and a
traced process run back to back and the last line holds the per-layer
figures, with trace.overhead_frac comparing the two. Times are scaled to the
reference machine speed (see CAL_REF_MS). Everything the run
writes (op list, per-process results, spans, result.json) goes to
perfbench/results/<workload>-seed<seed>-trace<trace>/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-mix", "regulator-recognize", "greens-refine")
SETUP_REPEATS = 5
# The calibration loop (worker.cal_chunk_ms) on the reference machine when
# quiet: 2 cores, Python 3.11.7. Every time is scaled by CAL_REF_MS / the
# loop time sampled in the same process, so the figures are at reference
# speed; the raw figures go to the summary and result.json.
CAL_REF_MS = 1.05
DEADLINE_S = 170  # every process is stopped before the run's 180 s limit


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.outdir = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "MCYCLE_PRECISION"}
        # one client: no BLAS thread pools either
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONHASHSEED="0")

    def spawn(self, tag: str, mode: str, trace: int) -> dict:
        out = self.outdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(trace),
               "--mode", mode, "--out", str(out), "--ops-out", str(self.outdir / "ops.json")]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(out.read_text())
        res["setup_s"] = res["first_op_monotonic"] - t0
        return res


def speed(res: dict) -> float:
    """How much slower the machine ran than the reference, from the
    calibration loop sampled in the same process."""
    return res["calibration_ms"] / CAL_REF_MS


def end_to_end(res: dict) -> dict:
    """Metrics of one measured process. Each op's latency is scaled by the
    speed samples taken just before and after it; the wall time by the
    resulting time-weighted speed."""
    outs = res["outcomes"]
    raw_ms = [o["ms"] for o in outs]
    ms = [o["ms"] * CAL_REF_MS / o["cal_ms"] for o in outs]
    wall = res["wall_s"] * sum(ms) / sum(raw_ms)
    failed = sum(o["status"] == "failed" for o in outs)
    ok = sum(o["status"] == "ok" for o in outs)
    p90 = percentile(ms, 0.9)
    return {
        "ops_per_s": ok / wall,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
        "op_p90_beyond": sum(m > p90 for m in ms),
        "raw_ops_per_s": ok / res["wall_s"],
        "raw_op_p50_ms": statistics.median(raw_ms),
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": failed / len(outs),
        "digits_margin_min": res["digits_margin_min"],
        "err_over_tol": res["err_over_tol"],
        "terms_final": res["terms_final"],
        "attempted": len(outs),
        "failed": failed,
        "refused": sum(o["status"] == "refused" for o in outs),
        "calibration_ms": res["calibration_ms"],
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "failed_frac": "ratio", "digits_margin_min": "digits",
         "err_over_tol": "ratio", "raw_setup_s": "s", "raw_ops_per_s": "1/s",
         "raw_op_p50_ms": "ms"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mcycle" / "__init__.py").is_file():
        print(f"error: no mcycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args)

    if args.trace:
        plain = runner.spawn("untraced", "run", 0)
        traced = runner.spawn("traced", "run", 1)
        e2e, e2e_traced = end_to_end(plain), end_to_end(traced)
        layers = dict(traced["layers"])
        layers["greens.terms_final"] = traced["terms_final"] / max(e2e_traced["attempted"], 1)
        layers["trace.overhead_frac"] = 1.0 - e2e_traced["ops_per_s"] / e2e["ops_per_s"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = {n: {"value": layers[n], "unit": u} for n, u in names}
        runs = {"untraced": plain, "traced": traced}
        summary = {"untraced": e2e, "traced": e2e_traced}
        attempted = e2e["attempted"] + e2e_traced["attempted"]
        failed = e2e["failed"] + e2e_traced["failed"]
    else:
        setups = [runner.spawn(f"setup{i}", "setup", 0) for i in range(SETUP_REPEATS - 1)]
        main_run = runner.spawn("run", "run", 0)
        e2e = end_to_end(main_run)
        e2e["setup_s"] = statistics.median([r["setup_s"] / speed(r) for r in setups + [main_run]])
        e2e["raw_setup_s"] = statistics.median([r["setup_s"] for r in setups + [main_run]])
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        runs = {"run": main_run}
        summary = e2e
        attempted, failed = e2e["attempted"], e2e["failed"]

    failures = [o for r in runs.values() for o in r["outcomes"] if o["status"] == "failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": next(iter(runs.values()))["env"], "summary": summary,
        "failures": failures[:50], "result": result,
    }
    (runner.outdir / "result.json").write_text(json.dumps(record, indent=1))

    e = summary["untraced"] if args.trace else summary
    parts = [f"{k}={e[k]:.6g} {UNITS[k]}" for k in UNITS if e.get(k) is not None]
    parts.append(f"(p90 over {e['attempted']} ops, {e['op_p90_beyond']} beyond it; "
                 f"{e['refused']} confirmed refusals; calibration loop {e['calibration_ms']:.3f} ms "
                 f"against {CAL_REF_MS} ms at reference speed)")
    print(f"{args.workload} seed={args.seed}: " + ", ".join(parts))
    for o in failures[:5]:
        print(f"failed op {o['op']} ({o['kind']}): {o['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
