"""Bit-level replay of adaptive Green's ladders against a captured golden.

Each op runs green_k, hecke_green or greens_combo adaptively (start bound
50, max_bound 800) in both argument orders, and its record holds the
float.hex of value, err and tail and the term count, or the error it raised.
The replay runs twice: cold, with the cached box dropped before each op, so
the levels build their boxes, and warm, after the 800 box is cached, so
every level is a prefix of it. To regenerate the golden from a given
checkout (only when output is meant to change), run from the repository
root:

    PYTHONPATH=<checkout>/src python tests/test_greens_ladder.py
"""
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import mcycle.greens as greens
from mcycle.arith import rat_from_str
from mcycle.errors import McycleError

GOLDEN = Path(__file__).parent / "golden" / "greens_ladder_bits.json"
START_BOUND, MAX_BOUND = 50, 800


def _orbit_point(z, c):
    """'re,im' of ((1, 0), (c, 1)) z, exactly, for z = (re, im) rationals."""
    w = complex(*z)
    re, im = z
    den = (c * re + 1) ** 2 + (c * im) ** 2
    out = ((re * (c * re + 1) + c * im * im) / den, im / den)
    assert abs(complex(*out) - w / (c * w + 1)) < 1e-12
    return ",".join(str(x) for x in out)


# (function, k / m / j, tolerance, z1, z2)
OPS = [
    ("green_k", 2, 1e-3, "0,2", "1/2,2"),
    ("green_k", 2, 5e-4, "1/5,21/10", "-3/10,13/10"),
    ("green_k", 3, 1e-7, "1/4,11/10", "1/3,8/5"),
    ("green_k", 3, 1e-9, "-1/10,9/10", "2/5,6/5"),
    ("green_k", 4, 1e-10, "-1/5,6/5", "3/10,9/5"),
    ("green_k", 5, 1e-10, "1/10,3/2", "-2/5,1"),
    ("hecke_green", 2, 1e-6, "1/5,17/10", "-3/10,13/10"),
    ("hecke_green", 3, 1e-5, "0,2", "1/3,8/5"),
    ("greens_combo", 2, 1e-5, "1/5,17/10", "-3/10,13/10"),
    # z1 = ((1, 0), (80, 1)) z2: the first level holds no singular term,
    # the second does
    ("green_k", 2, 1e-12, _orbit_point((F(1, 3), F(8, 5)), 80), "1/3,8/5"),
]


def run_op(op, swap):
    """The record of one adaptive op."""
    fn, arg, tol, *zs = op
    z1, z2 = (greens.UHPoint(*(rat_from_str(p) for p in z.split(",")))
              for z in (zs[::-1] if swap else zs))
    policy = greens.TruncationPolicy(matrix_bound=START_BOUND, target_tol=tol,
                                     adaptive=True, max_bound=MAX_BOUND)
    rec = {"op": [fn, arg, tol, *zs], "swap": swap}
    try:
        if fn == "green_k":
            g = greens.green_k(arg, z1, z2, policy)
        elif fn == "hecke_green":
            g = greens.hecke_green(3, arg, z1, z2, policy)
        else:
            pp = greens.PrincipalPart({1: 1, 2: F(-3, 2), 3: F(1, 3)})
            g = greens.greens_combo(pp, arg, z1, z2, policy)
    except McycleError as exc:
        return {**rec, "error": type(exc).__name__, "message": str(exc)}
    return {**rec, "value": float(g.value.val).hex(), "err": float(g.value.err).hex(),
            "tail": float(g.tail_estimate.val).hex(), "terms": g.terms_summed}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_ladder_bits_match_golden(warm, monkeypatch):
    want = json.loads(GOLDEN.read_text())
    assert len(want) == 2 * len(OPS)
    monkeypatch.setattr(greens, "_box", None)
    if warm:
        greens._det_m_arrays(1, MAX_BOUND)
    for op, rec in zip((op for op in OPS for _ in range(2)), want):
        if not warm:
            greens._box = None
        assert run_op(op, rec["swap"]) == rec


if __name__ == "__main__":
    records = [run_op(op, swap) for op in OPS for swap in (False, True)]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {GOLDEN.name}")
