import json
import subprocess
import sys

import pytest

from mcycle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_config_q45(capsys):
    code, doc = run_cli(capsys, "config", "--params", "2,3,5")
    assert code == 0
    q45 = doc["config"]["points"]["q45"]
    assert [c["rat"] for c in q45] == ["-1", "0", "2"]
    assert doc["meta"]["version"]


def test_config_round_trip(capsys):
    from mcycle.arith import QuadVal
    from mcycle.geometry import ProjPoint
    from mcycle.kummer import ModuliParams, build_config

    code, doc = run_cli(capsys, "config", "--params", "2,3,5")
    cfg = build_config(ModuliParams(2, 3, 5))
    for key, pt in cfg.torsion_points.items():
        coords = doc["config"]["points"][f"q{key[0]}{key[1]}"]
        parsed = ProjPoint(tuple(QuadVal.from_json(c) for c in coords))
        assert parsed == pt


def test_humbert_check4(capsys):
    code, doc = run_cli(capsys, "humbert", "--params", "2,6,3", "--check", "4")
    assert code == 0 and doc["on_h4"] is True
    code, doc = run_cli(capsys, "humbert", "--params", "2,3,5", "--check", "4")
    assert doc["on_h4"] is False


def test_humbert_check5_and_8(capsys):
    _, doc = run_cli(capsys, "humbert", "--params", "2,3,5", "--check", "5")
    assert doc["on_h5"] is False
    _, doc = run_cli(capsys, "humbert", "--params", "2,3,5", "--check", "8")
    assert doc["on_h8"] is False


def test_greens_q_order_flag(capsys):
    _, d1 = run_cli(capsys, "greens", "eval", "--k", "2", "--z1", "0,2",
                    "--z2", "1/2,2", "--bound", "60")
    _, d2 = run_cli(capsys, "greens", "eval", "--k", "2", "--z1", "0,2",
                    "--z2", "1/2,2", "--bound", "60", "--q-order", "2")
    assert d1["greens"]["value"] != d2["greens"]["value"]
    assert d2["meta"]["settings"]["q_order"] == 2


def test_missing_file_exits_1(capsys):
    code, doc = run_cli(capsys, "greens", "combo", "--pp", "/nonexistent.json",
                        "--j", "1", "--z1", "0,2", "--z2", "1/2,2", "--bound", "60")
    assert code == 1 and doc["error"]["type"] in ("FileNotFoundError", "OSError")


def test_conic_methods_agree(capsys):
    _, closed = run_cli(capsys, "conic", "--params", "2,3,5")
    _, det = run_cli(capsys, "conic", "--params", "2,3,5", "--method", "det")
    from mcycle.arith import QuadVal
    from mcycle.geometry import Conic

    c1 = Conic(tuple(QuadVal.from_json(c) for c in closed["conic"]))
    c2 = Conic(tuple(QuadVal.from_json(c) for c in det["conic"]))
    assert c1 == c2


def test_bw_cases(capsys):
    code, doc = run_cli(capsys, "bw-cases", "--delta", "4")
    rows = {(r["case"], r["m"]) for r in doc["cases"]}
    assert ("V", 2) in rows


def test_hecke_components(capsys):
    code, doc = run_cli(capsys, "hecke-components", "--delta", "9")
    assert doc["components"] == [2]


def test_regulator_and_determinism(capsys):
    code = main(["regulator", "--a1", "2", "--a3", "3", "--precision", "25"])
    raw1 = capsys.readouterr().out
    assert code == 0
    doc1 = json.loads(raw1)
    assert doc1["result"]["roots"][0]["rat"] == "-5/2"
    main(["regulator", "--a1", "2", "--a3", "3", "--precision", "25"])
    raw2 = capsys.readouterr().out
    assert raw1 == raw2  # byte-identical output


def test_regulator_domain_error(capsys):
    code, doc = run_cli(capsys, "regulator", "--a1", "1", "--a3", "3")
    assert code == 1
    assert doc["error"]["type"] == "InvalidModuli"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["regulator", "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_ns_pair(capsys):
    d1 = json.dumps({"a": "1", "b": "0", "phi": {"u": "0", "v": "0", "disc": -4}})
    d2 = json.dumps({"a": "0", "b": "1", "phi": {"u": "0", "v": "0", "disc": -4}})
    code, doc = run_cli(capsys, "ns", "pair", "--d1", d1, "--d2", d2)
    assert code == 0 and doc["pairing"] == "1/1"


def test_ns_humbert_norm(capsys):
    d = json.dumps({"a": "1", "b": "1", "phi": {"u": "0", "v": "0", "disc": -4}})
    code, doc = run_cli(capsys, "ns", "humbert-norm", "--d", d)
    assert doc["humbert_norm"] == "0/1"


def test_ns_cm_cycle(capsys):
    code, doc = run_cli(capsys, "ns", "cm-cycle", "--disc", "-4",
                        "--precision", "30")
    assert doc["anti_invariant_class"]["phi"]["v"] == "2"


def test_greens_eval(capsys):
    code, doc = run_cli(capsys, "greens", "eval", "--k", "2", "--z1", "0,2",
                        "--z2", "1/2,2", "--bound", "60")
    assert code == 0
    assert float(doc["greens"]["value"]["value"]) < 0


def test_greens_hecke_m1_matches_eval(capsys):
    _, doc_e = run_cli(capsys, "greens", "eval", "--k", "2", "--z1", "0,2",
                       "--z2", "1/2,2", "--bound", "60")
    _, doc_h = run_cli(capsys, "greens", "hecke", "--s", "2", "--m", "1",
                       "--z1", "0,2", "--z2", "1/2,2", "--bound", "60")
    assert doc_e["greens"]["value"] == doc_h["greens"]["value"]


def test_greens_combo_with_file(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    pp.write_text(json.dumps({"coeffs": {"1": "1"}}))
    code, doc = run_cli(capsys, "greens", "combo", "--pp", str(pp), "--j", "1",
                        "--z1", "0,2", "--z2", "1/2,2", "--bound", "60")
    assert code == 0


def test_greens_combo_rejects_q_order(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    pp.write_text(json.dumps({"coeffs": {"1": "1", "2": "-3/2"}}))
    argv = ["greens", "combo", "--pp", str(pp), "--j", "1",
            "--z1", "0,2", "--z2", "1/3,8/5", "--bound", "40"]
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    # greens_combo evaluates every Hecke translate in the k-1 convention
    assert doc["meta"]["settings"]["q_order"] == "k-1"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--q-order", "5"])
    assert exc.value.code == 2


def test_greens_box_over_memory_budget_is_a_json_error(capsys, monkeypatch):
    import mcycle.greens as greens

    monkeypatch.setattr(greens, "_box", None)
    monkeypatch.setattr(greens, "_memory_budget_bytes", lambda: 1000 * greens._BYTES_PER_TERM)
    code, doc = run_cli(capsys, "greens", "eval", "--z1", "0,2", "--z2", "1/2,2",
                        "--bound", "50", "--adaptive")
    assert code == 1
    assert doc["error"]["type"] == "BudgetExceeded"


def test_greens_cross_check(tmp_path, capsys):
    bfile = tmp_path / "boundary.json"
    bfile.write_text(json.dumps({"points": [{"tau": "1/3,8/5", "a": "1"}]}))
    argv = ["greens", "cross-check", "--a1", "2", "--a3", "3", "--precision", "25",
            "--boundary", str(bfile), "--y", "0,2", "--bound", "60"]
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    assert "difference" in doc["report"]
    # the pairing with log|R| is defined in the k-1 convention only
    assert doc["meta"]["settings"]["q_order"] == "k-1"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--q-order", "5"])
    assert exc.value.code == 2


def test_regulator_sweep_ordered(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([["2", "3"], ["1", "3"], ["3", "5"]]))
    code, doc = run_cli(capsys, "regulator-sweep", "--pairs", str(pairs),
                        "--precision", "25")
    assert code == 0
    rows = doc["results"]
    assert len(rows) == 3
    assert rows[0]["a1"] == "2" and "result" in rows[0]
    assert rows[1]["a1"] == "1" and rows[1]["error"]["type"] == "InvalidModuli"
    assert rows[2]["a1"] == "3" and "result" in rows[2]


def test_regulator_sweep_parallel_matches_serial(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([["2", "3"], ["3", "5"]]))
    code, serial = run_cli(capsys, "regulator-sweep", "--pairs", str(pairs),
                           "--precision", "25")
    code, par = run_cli(capsys, "regulator-sweep", "--pairs", str(pairs),
                        "--precision", "25", "--workers", "2")
    assert serial["results"] == par["results"]


def test_cycle_command(capsys):
    code, doc = run_cli(capsys, "cycle", "--params", "2,3,5", "--precision", "30")
    assert code == 0
    assert doc["boundary_divisor"] == {}
    assert len(doc["cycle"]["components"]) == 2


def test_verify_fast(capsys):
    code, doc = run_cli(capsys, "verify", "--fast")
    assert code == 0
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "conic-closed-form-vs-determinant" in names
    assert "legendre-recurrence-and-closed-form" in names


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mcycle.cli", "bw-cases", "--delta", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any(r["case"] == "I" and r["m"] == 1 and r["k"] == 6
               for r in doc["cases"])


def test_env_precision(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MCYCLE_PRECISION", "23")
    from mcycle import cli as cli_mod

    ap = cli_mod.build_parser()
    args = ap.parse_args(["regulator", "--a1", "2", "--a3", "3"])
    assert args.precision == 23


def test_regulator_sweep_bad_pair_keeps_the_rest(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([["x", "3"], ["1/0", "3"], ["2"], ["2", "3"]]))
    code, doc = run_cli(capsys, "regulator-sweep", "--pairs", str(pairs),
                        "--precision", "25")
    assert code == 0
    rows = doc["results"]
    assert rows[0]["error"]["type"] == "ValueError"
    assert rows[1]["error"]["type"] == "ZeroDivisionError"
    assert rows[2]["error"]["type"] == "McycleError"
    assert rows[3]["a1"] == "2" and "result" in rows[3]


def test_regulator_sweep_pairs_not_a_list(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"a1": "2", "a3": "3"}))
    code, doc = run_cli(capsys, "regulator-sweep", "--pairs", str(pairs),
                        "--precision", "25")
    assert code == 1
    assert doc["error"]["type"] == "McycleError"


def test_greens_cross_check_malformed_boundary(tmp_path, capsys):
    bfile = tmp_path / "boundary.json"
    bfile.write_text(json.dumps({"pts": [{"tau": "1/3,8/5", "a": "1"}]}))
    code, doc = run_cli(capsys, "greens", "cross-check", "--a1", "2", "--a3", "3",
                        "--precision", "25", "--boundary", str(bfile),
                        "--y", "0,2", "--bound", "60")
    assert code == 1
    assert doc["error"]["type"] == "McycleError"
    assert "points" in doc["error"]["message"]


def test_negative_rationals_as_separate_arguments(capsys):
    code, sep = run_cli(capsys, "regulator", "--a1", "-9/4", "--a3", "3",
                        "--precision", "25")
    assert code == 0 and sep["meta"]["settings"]["a1"] == "-9/4"
    _, joined = run_cli(capsys, "regulator", "--a1=-9/4", "--a3", "3",
                        "--precision", "25")
    assert sep == joined
    code, doc = run_cli(capsys, "greens", "eval", "--z1", "-1/2,2",
                        "--z2", "1/3,8/5", "--bound", "20")
    assert code == 0 and "greens" in doc
