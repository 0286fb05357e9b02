"""One workload process: import mcycle from the checkout, generate the seeded
inputs, run one warm-up op, then run ops one after another for the given
seconds (a closed loop with one client), and check every output afterwards.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --mode run|setup --out FILE --ops-out FILE

`--mode setup` stops at the first timed op; `run.py` uses it to time set-up
more than once. Results go to --out as one JSON document.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
    }


CAL_EVERY_S = 0.2  # seconds of the timed window between two speed samples


def cal_chunk_ms() -> float:
    """Milliseconds of one fixed pure-Python loop: a sample of the machine's
    speed, which on a shared host swings by up to half over seconds to
    minutes. run.py scales every time by these samples."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


def local_speed(cal: list, t0: float, t1: float) -> float:
    """Mean of the last speed sample before t0 and the first after t1."""
    before = max((s for s in cal if s[0] <= t0), default=cal[0])[1]
    after = min((s for s in cal if s[0] >= t1), default=cal[-1])[1]
    return (before + after) / 2


def calibration_ms(seconds: float = 0.3) -> float:
    """Median calibration-loop time over `seconds`."""
    end = time.perf_counter() + seconds
    samples = [cal_chunk_ms()]
    while time.perf_counter() < end:
        samples.append(cal_chunk_ms())
    return statistics.median(samples)


def layer_metrics(tracer, n_ops: int, op_seconds: float) -> dict:
    """Per-layer figures of the traced run, per op; fractions are shares of
    the summed op time."""
    from tracer import LAYERS, OP_SPAN

    calls, incl, selfs = tracer.self_times()
    per = 1.0 / max(n_ops, 1)
    out = {"trace.ops": n_ops, "trace.op_s": op_seconds * per, "trace.spans": len(tracer.spans) * per,
           "bench.op.self_s": selfs.get(OP_SPAN, 0.0) * per}
    for layer in LAYERS:
        s = sum(v for k, v in selfs.items() if k.split(".")[0] == layer and k != "arith.pslq")
        out[f"{layer}.self_s"] = s * per
        out[f"{layer}.self_frac"] = s / op_seconds if op_seconds else 0.0
    for name in ("cli.main", "kummer.humbert5_conic", "kummer.build_config",
                 "geometry.conic_through_5", "geometry.conic_line_meet", "cycle.blowup_data",
                 "cycle.regulator_h4", "arith.quad_solve", "arith.recognize_algebraic",
                 "arith.pslq", "greens.green_k", "greens.reduce_fd", "greens.hecke_green",
                 "greens.greens_combo"):
        out[f"{name}.calls"] = calls.get(name, 0) * per
        out[f"{name}.s"] = incl.get(name, 0.0) * per
        out[f"{name}.self_s"] = selfs.get(name, 0.0) * per
    out["arith.pslq.frac"] = incl.get("arith.pslq", 0.0) / op_seconds if op_seconds else 0.0
    out["greens.green_k.self_frac"] = selfs.get("greens.green_k", 0.0) / op_seconds if op_seconds else 0.0
    out["exact_core.self_frac"] = sum(out[f"{m}.self_frac"] for m in ("kummer", "geometry", "cycle", "arith"))
    rec = calls.get("arith.recognize_algebraic", 0)
    out["arith.recognize.found_ratio"] = tracer.counts.get("arith.recognize.found", 0) / rec if rec else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--out", required=True)
    ap.add_argument("--ops-out", required=True, help="where to write the generated op list")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import mcycle
    import mcycle.cli  # noqa: F401  (loads every layer module)

    if Path(mcycle.__file__).resolve().parent != (src / "mcycle").resolve():
        raise SystemExit(f"imported mcycle from {mcycle.__file__}, not from {src}")

    import workloads
    from tracer import OP_SPAN, Tracer

    ops = workloads.generate(args.workload, args.seed, workloads.OP_COUNT[args.workload])
    run_op = workloads.run_op
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run_op = tracer.span(OP_SPAN, run_op)
    workloads.run_op(args.workload, workloads.WARMUP[args.workload])
    if tracer:
        tracer.reset()

    first_op = time.monotonic()
    result = {"first_op_monotonic": first_op}
    if args.mode == "setup":
        result["calibration_ms"] = calibration_ms()
        Path(args.out).write_text(json.dumps(result))
        return 0

    records = []
    clock = time.perf_counter
    cal = [(clock(), cal_chunk_ms())]  # (taken at, loop ms)
    start = clock()
    next_cal = start + CAL_EVERY_S
    i = 0
    while clock() - start < args.seconds:
        op = ops[i % len(ops)]
        if tracer:
            tracer.op_id = i
        t0 = clock()
        try:
            raw, exc = run_op(args.workload, op), None
        except Exception as e:  # an op that raises counts as failed
            raw, exc = None, f"{type(e).__name__}: {e}"
        records.append((i, t0, clock(), raw, exc))
        i += 1
        if clock() >= next_cal:
            cal.append((clock(), cal_chunk_ms()))
            next_cal = clock() + CAL_EVERY_S
    wall = clock() - start - sum(c for _, c in cal[1:]) / 1e3
    cal.append((clock(), cal_chunk_ms()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        op_seconds = sum(t1 - t0 for _, t0, t1, _, _ in records)
        result["layers"] = layer_metrics(tracer, len(records), op_seconds)
        tracer.write(Path(args.out).with_suffix(".spans.jsonl"))
        tracer.reset()

    Path(args.ops_out).write_text(json.dumps(ops, indent=1))
    checker = workloads.Checker(args.workload, args.seed)
    outcomes = []
    for i, t0, t1, raw, exc in records:
        op = ops[i % len(ops)]
        if exc is not None:
            status, reason = "failed", exc
        else:
            try:
                status, reason = checker.check(op, raw)
            except Exception as e:  # a malformed output fails its op
                status, reason = "failed", f"oracle: {type(e).__name__}: {e}"
        outcomes.append({"op": i, "kind": op["kind"], "ms": (t1 - t0) * 1e3,
                         "cal_ms": local_speed(cal, t0, t1), "status": status, "reason": reason})

    result.update({
        "env": environment(),
        "wall_s": wall,
        "calibration_ms": statistics.median(c for _, c in cal),
        "calibration_samples": len(cal),
        "peak_rss_mb": rss_mb,
        "outcomes": outcomes,
        **checker.summary(),
    })
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
