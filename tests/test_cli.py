import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def test_greens_q_order_flag_exits_2(capsys):
    # Q_{k-1} is the only convention: eval and hecke refuse --q-order like
    # combo and cross-check do
    for argv in (["greens", "eval", "--k", "2"], ["greens", "hecke", "--s", "2", "--m", "2"]):
        argv = argv + ["--z1", "0,2", "--z2", "1/2,2", "--bound", "60"]
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        assert doc["meta"]["settings"]["q_order"] == "k-1"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--q-order", "2"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "UsageError"


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


def test_greens_point_with_t_rounded_to_one_is_singular(capsys):
    # 1.2e-8 from z2 passes the distance test, but t rounds to 1 in float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_cli(capsys, "greens", "eval", "--z1", "3/250000000,2",
                            "--z2", "0,2", "--bound", "20")
    assert code == 1
    assert doc["error"]["type"] == "OnSingularLocus"


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
    assert "greens-mellit-cm-value" in names


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


def test_reused_parser_follows_env_precision(capsys, monkeypatch):
    # main keeps one parser per default precision; a changed
    # MCYCLE_PRECISION applies to the next call, in either order
    argv = ["regulator", "--a1", "2", "--a3", "3"]
    seen = []
    for prec in ("23", "31", "23"):
        monkeypatch.setenv("MCYCLE_PRECISION", prec)
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        seen.append((doc["meta"]["settings"]["precision"], doc["result"]["precision"]))
    assert seen == [(23, 23), (31, 31), (23, 23)]


_D = json.dumps({"a": "1", "b": "0", "phi": {"u": "0", "v": "0", "disc": -4}})
# small valid commands; {pairs}, {pp} and {boundary} name JSON files
_FUZZ_TEMPLATES = (
    ["config", "--params", "2,3,5"],
    ["humbert", "--params", "2,6,3", "--check", "4"],
    ["conic", "--params", "2,3,5", "--method", "det"],
    ["cycle", "--params", "2,3,5", "--precision", "20"],
    ["regulator", "--a1", "2", "--a3", "3", "--precision", "20"],
    ["regulator-sweep", "--pairs", "{pairs}", "--precision", "20"],
    ["ns", "pair", "--d1", _D, "--d2", _D],
    ["ns", "humbert-norm", "--d", _D, "--rank", "2"],
    ["ns", "cm-cycle", "--disc", "-4", "--precision", "20"],
    ["greens", "eval", "--k", "2", "--z1", "0,2", "--z2", "1/2,2", "--bound", "20"],
    ["greens", "hecke", "--m", "2", "--z1", "0,2", "--z2", "1/2,2", "--bound", "20"],
    ["greens", "combo", "--pp", "{pp}", "--j", "1", "--z1", "0,2", "--z2", "1/2,2",
     "--bound", "20"],
    ["greens", "cross-check", "--a1", "2", "--a3", "3", "--precision", "20",
     "--boundary", "{boundary}", "--y", "0,2", "--bound", "20"],
    ["bw-cases", "--delta", "5"],
    ["hecke-components", "--delta", "5"],
)
# junk tokens. Left out: -h/--help (help text is the one non-JSON output)
# and --adaptive (at the CLI's max_bound it runs for seconds)
_FUZZ_JUNK = (
    "", "x", "-", "--", "--bogus", "--precision", "--params", "--bound", "--tol",
    "0", "1", "2", "-1", "-7", "17", "1/0", "0/0", "1e999", "nan", "inf", "-inf",
    "0.5", "1,2", ",", "0,0", "0,-1", "1/2,2", "x,1", "1,2,3", "2,2,2", "1,0,2",
    "2,3,x", "[1]", "{}", "null", '{"a": "1"}', '{"a": "1", "b": "0", "phi": {}}',
    '{"a": "1", "b": "0", "phi": {"u": "0", "v": "0", "disc": 4}}',
    "{pairs}", "{pp}", "{boundary}", "/nonexistent.json",
)
_FUZZ_FILES = {
    "pairs": ('[["2", "3"]]', '[["x", "3"], ["2"]]', "{}", "[1, 2]", '"2,3"',
              "not json", "[[null, 3]]", '[["1/0", "3"]]', "[[[1], [2]]]", "[]", ""),
    "pp": ('{"coeffs": {"1": "1"}}', "{}", '{"coeffs": []}', '{"coeffs": {"x": "1"}}',
           '{"coeffs": {"1": null}}', '{"coeffs": {"0": "1"}}', '{"coeffs": {"-1": "1"}}',
           "[]", "null", "not json", '{"coeffs": {"1": "1/0"}}'),
    "boundary": ('{"points": [{"tau": "1/3,8/5", "a": "1"}]}', '{"points": []}',
                 '{"points": [{"tau": "0,-1", "a": "1"}]}',
                 '{"points": [{"tau": "x", "a": "1"}]}', '{"points": [1]}',
                 '{"points": null}', "[]", "not json",
                 '{"points": [{"tau": "1/3,8/5", "a": "x"}]}'),
}


@given(data=st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_input_gives_one_json_document(tmp_path, capsys, data):
    argv = list(data.draw(st.sampled_from(_FUZZ_TEMPLATES)))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(argv)))
        how = data.draw(st.sampled_from(("replace", "delete", "insert")))
        junk = data.draw(st.sampled_from(_FUZZ_JUNK))
        if how == "insert" or i == len(argv):
            argv.insert(i, junk)
        elif how == "replace":
            argv[i] = junk
        else:
            del argv[i]
    files = {}
    for name, contents in _FUZZ_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(data.draw(st.sampled_from(contents)))
        files[name] = str(path)
    argv = [a.format(**files) if a.startswith("{") and a[1:-1] in files else a
            for a in argv]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    doc = json.loads(out)  # exactly one document: trailing text fails here
    assert isinstance(doc, dict)
    assert ("error" in doc) == (code != 0), (argv, code, doc)
