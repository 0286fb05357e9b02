"""Byte-for-byte replay of CLI output against a captured golden set.

Each case runs `mcycle.cli.main(argv)` in-process and compares stdout with
`tests/golden/<name>.json` and the exit status with the recorded one. To
regenerate the set from a given checkout (only when output is meant to
change), run from the repository root:

    PYTHONPATH=<checkout>/src python tests/test_golden.py
"""
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, exit status); "{golden}" expands to the golden directory
CASES = [
    ("config", ["config", "--params", "2,3,5"], 0),
    ("humbert4", ["humbert", "--params", "2,6,3", "--check", "4"], 0),
    ("humbert5", ["humbert", "--params", "2,3,5", "--check", "5"], 0),
    ("humbert8", ["humbert", "--params", "2,3,5", "--check", "8"], 0),
    ("conic_closed", ["conic", "--params", "2,3,5"], 0),
    ("conic_det", ["conic", "--params", "2,3,5", "--method", "det"], 0),
    ("conic_closed_neg", ["conic", "--params=-1/2,3,7/3"], 0),
    ("cycle", ["cycle", "--params", "2,3,5", "--precision", "30"], 0),
    ("regulator", ["regulator", "--a1", "2", "--a3", "3", "--precision", "50"], 0),
    ("bw_cases", ["bw-cases", "--delta", "5"], 0),
    ("hecke_components", ["hecke-components", "--delta", "16"], 0),
    ("ns_cm_cycle", ["ns", "cm-cycle", "--disc", "-4", "--precision", "30"], 0),
    ("greens_eval_k2", ["greens", "eval", "--k", "2", "--z1", "0,2",
                        "--z2", "1/2,2", "--bound", "60"], 0),
    ("greens_eval_k3", ["greens", "eval", "--k", "3", "--z1", "1/5,17/10",
                        "--z2=-3/10,13/10", "--bound", "60"], 0),
    # order 4 over a box of several evaluation chunks
    ("greens_eval_k5", ["greens", "eval", "--k", "5", "--z1", "0,2",
                        "--z2", "1/3,8/5", "--bound", "150"], 0),
    ("greens_hecke_m2", ["greens", "hecke", "--s", "2", "--m", "2", "--z1", "0,2",
                         "--z2", "1/3,8/5", "--bound", "60"], 0),
    ("greens_combo", ["greens", "combo", "--pp", "{golden}/pp.json", "--j", "1",
                      "--z1", "0,2", "--z2", "1/3,8/5", "--bound", "60"], 0),
    ("greens_singular", ["greens", "eval", "--z1", "0,2", "--z2", "0,2",
                         "--bound", "60"], 1),
    # adaptive levels 50 -> 100 -> 200, and a degree-3 Hecke translate at 100
    ("greens_eval_adaptive", ["greens", "eval", "--k", "2", "--z1", "0,2",
                              "--z2", "1/2,2", "--bound", "50", "--adaptive",
                              "--tol", "1e-3"], 0),
    ("greens_hecke_m3", ["greens", "hecke", "--s", "3", "--m", "3", "--z1", "0,2",
                         "--z2", "1/3,8/5", "--bound", "100"], 0),
    ("refuse_repeated_root", ["regulator", "--a1", "-2", "--a3", "-1"], 1),
    ("refuse_zero_denominator", ["cycle", "--params", "2,3/2,-3"], 1),
    ("refuse_branch_at_ramification", ["regulator", "--a1", "-2", "--a3", "-3"], 1),
    ("refuse_invalid_moduli", ["regulator", "--a1", "1", "--a3", "3"], 1),
    # complex c-points and ratio: the BigComplex arithmetic end to end
    ("regulator_recognize_complex", ["regulator", "--a1", "3", "--a3=-2",
                                     "--precision", "60", "--recognize"], 0),
    ("regulator_p1000", ["regulator", "--a1", "2", "--a3", "3",
                         "--precision", "1000"], 0),
    ("greens_cross_check", ["greens", "cross-check", "--a1", "2", "--a3", "3",
                            "--precision", "30", "--boundary",
                            "{golden}/boundary.json", "--y", "1/2,3/2",
                            "--bound", "60"], 0),
]


def _run(argv) -> tuple[int, str]:
    from mcycle.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([a.replace("{golden}", str(GOLDEN)) for a in argv])
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code):
    got_code, out = _run(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name, argv, code in CASES:
        got_code, out = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit status {got_code}, expected {code}")
        (GOLDEN / f"{name}.json").write_text(out)
        print(f"wrote {name}.json")
