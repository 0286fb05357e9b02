"""Command-line front end. Every command prints a single JSON document to
stdout; exit status 0 on success, 1 on domain errors (machine-readable error
object), 2 on usage errors. Rationals on the command line are "p/q" or
decimal strings, converted exactly. MCYCLE_PRECISION sets the default digit
count (fallback 50)."""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import __version__
from .arith import rat_from_str
from .cycle import build_cycle, regulator_h4
from .errors import McycleError
from .greens import (
    PrincipalPart,
    TruncationPolicy,
    UHPoint,
    cross_check,
    green_k,
    greens_combo,
    hecke_green,
)
from .kummer import (
    ModuliParams,
    build_config,
    bw_cases,
    h4_h8_factors,
    h5_points,
    hecke_components,
    humbert5_conic,
    humbert5_discriminant,
)
from .geometry import conic_through_5
from .nslattice import NSClass, cm_cycle, humbert_norm, ns_pair
from . import verify as verify_mod


def _default_precision() -> int:
    try:
        return int(os.environ.get("MCYCLE_PRECISION", "50"))
    except ValueError:
        return 50


def _parse_params(s: str) -> ModuliParams:
    parts = s.split(",")
    if len(parts) != 3:
        raise McycleError("expected --params a1,a2,a3")
    return ModuliParams(*(rat_from_str(p) for p in parts))


def _parse_uh(s: str, dps: int = 30) -> UHPoint:
    parts = s.split(",")
    if len(parts) != 2:
        raise McycleError("expected RE,IM")
    return UHPoint(rat_from_str(parts[0]), rat_from_str(parts[1]), dps)


def _meta(**settings) -> dict:
    return {"version": __version__, "settings": settings}


def _emit(doc: dict) -> int:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_config(args) -> int:
    cfg = build_config(_parse_params(args.params))
    return _emit({"meta": _meta(params=args.params), "config": cfg.to_json()})


def _cmd_humbert(args) -> int:
    p = _parse_params(args.params)
    f4, f8 = h4_h8_factors(p)
    out = {"meta": _meta(params=args.params, check=args.check)}
    if args.check == 4:
        out["on_h4"] = f4.is_zero()
    elif args.check == 8:
        out["on_h8"] = f8.is_zero()
    elif args.check == 5:
        out["on_h5"] = humbert5_discriminant(p).is_zero()
    else:
        raise McycleError("--check must be one of 4, 5, 8")
    return _emit(out)


def _cmd_conic(args) -> int:
    p = _parse_params(args.params)
    if args.method == "det":
        conic = conic_through_5(h5_points(p))
    else:
        conic = humbert5_conic(p)
    return _emit({
        "meta": _meta(params=args.params, method=args.method),
        "conic": conic.to_json(),
        "h5_discriminant": humbert5_discriminant(p).to_json(),
    })


def _cmd_cycle(args) -> int:
    p = _parse_params(args.params)
    pres = build_cycle(p, dps=args.precision)
    return _emit({
        "meta": _meta(params=args.params, precision=args.precision),
        "cycle": pres.to_json(),
        "boundary_divisor": pres.boundary_divisor(),
    })


def _cmd_regulator(args) -> int:
    res = regulator_h4(
        rat_from_str(args.a1), rat_from_str(args.a3),
        precision=args.precision, recognize=args.recognize,
    )
    return _emit({
        "meta": _meta(a1=args.a1, a3=args.a3, precision=args.precision,
                      recognize=args.recognize,
                      branch_convention="principal-sqrt-plus-first"),
        "result": res.to_json(),
    })


def _error_payload(exc: Exception) -> dict:
    if isinstance(exc, McycleError):
        return exc.payload()
    return {"type": type(exc).__name__, "message": str(exc)}


def _sweep_worker(item):
    idx, a1, a3, precision, recognize = item
    try:
        res = regulator_h4(Fraction(a1), Fraction(a3), precision, recognize)
        return idx, {"a1": a1, "a3": a3, "result": res.to_json()}
    except (McycleError, ValueError, ZeroDivisionError) as exc:
        return idx, {"a1": a1, "a3": a3, "error": _error_payload(exc)}


def _cmd_regulator_sweep(args) -> int:
    with open(args.pairs) as fh:
        pairs = json.load(fh)
    if not isinstance(pairs, list):
        raise McycleError('pairs file must hold a list [["a1", "a3"], ...]')
    items = []
    results: dict = {}
    for i, p in enumerate(pairs):
        if isinstance(p, list) and len(p) == 2:
            items.append((i, str(p[0]), str(p[1]), args.precision, args.recognize))
        else:
            results[i] = {"error": McycleError("expected a pair [a1, a3]").payload()}
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for idx, payload in pool.map(_sweep_worker, items):
                results[idx] = payload
    else:
        for item in items:
            idx, payload = _sweep_worker(item)
            results[idx] = payload
    ordered = [results[i] for i in range(len(pairs))]
    return _emit({
        "meta": _meta(precision=args.precision, recognize=args.recognize,
                      workers=args.workers, count=len(ordered)),
        "results": ordered,
    })


def _cmd_ns(args) -> int:
    if args.ns_cmd == "pair":
        d1 = NSClass.from_json(json.loads(args.d1), rank=args.rank)
        d2 = NSClass.from_json(json.loads(args.d2), rank=args.rank)
        v = ns_pair(d1, d2)
        return _emit({"meta": _meta(op="pair"), "pairing": f"{v.numerator}/{v.denominator}"})
    if args.ns_cmd == "humbert-norm":
        d = NSClass.from_json(json.loads(args.d), rank=args.rank)
        v = humbert_norm(d)
        return _emit({"meta": _meta(op="humbert-norm"),
                      "humbert_norm": f"{v.numerator}/{v.denominator}"})
    if args.ns_cmd == "cm-cycle":
        s, c = cm_cycle(args.disc, dps=args.precision)
        return _emit({
            "meta": _meta(op="cm-cycle", disc=args.disc, precision=args.precision),
            "anti_invariant_class": s.to_json(),
            "normalization": c.to_json(),
        })
    raise McycleError("unknown ns subcommand")


def _policy_from(args) -> TruncationPolicy:
    return TruncationPolicy(
        matrix_bound=args.bound,
        target_tol=args.tol,
        adaptive=args.adaptive,
    )


def _cmd_greens(args) -> int:
    pol = _policy_from(args)
    meta = _meta(bound=args.bound, tol=args.tol, adaptive=args.adaptive,
                 q_order=args.q_order if getattr(args, "q_order", None) else "k-1")
    if args.greens_cmd == "eval":
        g = green_k(args.k, _parse_uh(args.z1), _parse_uh(args.z2), pol,
                    q_order=args.q_order)
        return _emit({"meta": meta, "greens": g.to_json()})
    if args.greens_cmd == "hecke":
        g = hecke_green(args.s, args.m, _parse_uh(args.z1), _parse_uh(args.z2), pol,
                        q_order=args.q_order)
        return _emit({"meta": meta, "greens": g.to_json()})
    if args.greens_cmd == "combo":
        with open(args.pp) as fh:
            f = PrincipalPart.from_json(json.load(fh))
        g = greens_combo(f, args.j, _parse_uh(args.z1), _parse_uh(args.z2), pol)
        return _emit({"meta": meta, "greens": g.to_json()})
    if args.greens_cmd == "cross-check":
        res = regulator_h4(rat_from_str(args.a1), rat_from_str(args.a3),
                           precision=args.precision)
        with open(args.boundary) as fh:
            data = json.load(fh)
        try:
            boundary = [(_parse_uh(item["tau"]), rat_from_str(str(item["a"])))
                        for item in data["points"]]
        except (KeyError, TypeError) as exc:
            raise McycleError('boundary file must hold {"points": '
                              '[{"tau": "RE,IM", "a": "p/q"}, ...]}') from exc
        rep = cross_check(res, boundary, _parse_uh(args.y), pol)
        return _emit({"meta": meta, "report": rep})
    raise McycleError("unknown greens subcommand")


def _cmd_bw(args) -> int:
    return _emit({
        "meta": _meta(delta=args.delta),
        "cases": [c.to_json() for c in bw_cases(args.delta)],
    })


def _cmd_hecke_components(args) -> int:
    return _emit({
        "meta": _meta(delta=args.delta),
        "components": hecke_components(args.delta),
    })


def _cmd_verify(args) -> int:
    checks = verify_mod.run_all(fast=args.fast)
    ok = all(c["pass"] for c in checks)
    _emit({"meta": _meta(fast=args.fast), "checks": checks, "all_pass": ok})
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reads a token with a leading minus and a digit, such as -9/4 or
    -1/2,2, as a value rather than an option, so negative rationals can be
    passed as separate arguments."""

    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mcycle", description=__doc__)
    default_prec = _default_precision()
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("config", help="Kummer-plane configuration")
    p.add_argument("--params", required=True, help="a1,a2,a3 as exact rationals")
    p.set_defaults(fn=_cmd_config)

    p = sub.add_parser("humbert", help="Humbert-locus membership")
    p.add_argument("--params", required=True)
    p.add_argument("--check", type=int, required=True, choices=(4, 5, 8))
    p.set_defaults(fn=_cmd_humbert)

    p = sub.add_parser("conic", help="five-point conic")
    p.add_argument("--params", required=True)
    p.add_argument("--method", choices=("closed", "det"), default="closed")
    p.set_defaults(fn=_cmd_conic)

    p = sub.add_parser("cycle", help="cycle presentation at q45")
    p.add_argument("--params", required=True)
    p.add_argument("--precision", type=int, default=default_prec)
    p.set_defaults(fn=_cmd_cycle)

    p = sub.add_parser("regulator", help="H4-locus regulator pipeline")
    p.add_argument("--a1", required=True)
    p.add_argument("--a3", required=True)
    p.add_argument("--precision", type=int, default=default_prec)
    p.add_argument("--recognize", action="store_true")
    p.set_defaults(fn=_cmd_regulator)

    p = sub.add_parser("regulator-sweep", help="regulator over a list of (a1, a3)")
    p.add_argument("--pairs", required=True, help="JSON file: [[a1, a3], ...]")
    p.add_argument("--precision", type=int, default=default_prec)
    p.add_argument("--recognize", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_regulator_sweep)

    p = sub.add_parser("ns", help="Neron-Severi lattice queries")
    nssub = p.add_subparsers(dest="ns_cmd", required=True)
    q = nssub.add_parser("pair")
    q.add_argument("--d1", required=True, help="NSClass JSON")
    q.add_argument("--d2", required=True, help="NSClass JSON")
    q.add_argument("--rank", type=int, default=2)
    q.set_defaults(fn=_cmd_ns)
    q = nssub.add_parser("humbert-norm")
    q.add_argument("--d", required=True, help="NSClass JSON")
    q.add_argument("--rank", type=int, default=2)
    q.set_defaults(fn=_cmd_ns)
    q = nssub.add_parser("cm-cycle")
    q.add_argument("--disc", type=int, required=True)
    q.add_argument("--precision", type=int, default=default_prec)
    q.set_defaults(fn=_cmd_ns)

    p = sub.add_parser("greens", help="Green's function evaluations")
    gsub = p.add_subparsers(dest="greens_cmd", required=True)

    def _common_greens(q):
        q.add_argument("--z1", required=True, help="RE,IM")
        q.add_argument("--z2", required=True, help="RE,IM")
        q.add_argument("--bound", type=int, default=500)
        q.add_argument("--tol", type=float, default=1e-8)
        q.add_argument("--adaptive", action="store_true")

    q = gsub.add_parser("eval")
    q.add_argument("--k", type=int, default=2)
    _common_greens(q)
    q.add_argument("--q-order", dest="q_order", type=int, default=None)
    q.set_defaults(fn=_cmd_greens)
    q = gsub.add_parser("hecke")
    q.add_argument("--s", type=int, default=2)
    q.add_argument("--m", type=int, required=True)
    _common_greens(q)
    q.add_argument("--q-order", dest="q_order", type=int, default=None)
    q.set_defaults(fn=_cmd_greens)
    q = gsub.add_parser("combo")
    q.add_argument("--pp", required=True, help="principal-part JSON file")
    q.add_argument("--j", type=int, required=True)
    _common_greens(q)
    q.set_defaults(fn=_cmd_greens)
    q = gsub.add_parser("cross-check")
    q.add_argument("--a1", required=True)
    q.add_argument("--a3", required=True)
    q.add_argument("--precision", type=int, default=default_prec)
    q.add_argument("--boundary", required=True, help='JSON file {"points": [{"tau": "RE,IM", "a": "p/q"}]}')
    q.add_argument("--y", required=True, help="RE,IM")
    q.add_argument("--bound", type=int, default=500)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--adaptive", action="store_true")
    q.set_defaults(fn=_cmd_greens)

    p = sub.add_parser("bw-cases", help="Birkenhake-Wilhelm table rows")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_bw)

    p = sub.add_parser("hecke-components", help="Hecke components of H_delta on H_1")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_hecke_components)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (McycleError, ValueError, ZeroDivisionError, OSError) as exc:
        _emit({"error": _error_payload(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
