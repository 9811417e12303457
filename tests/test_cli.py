"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import matmono
from matmono import FiniteFunction, FunctionModel, catalog_model, ktone_check, parse, write_points_file
from matmono.cli import run


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_certify_pass_exits_zero(capsys):
    code, payload = _run_json(capsys, [
        "certify", "-f", "-1/x", "-n", "2", "--interval", "0.5,4",
        "--samples", "150", "--oracle-trials", "60", "--seed", "7", "--no-timestamp",
    ])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["function"] == "-1/x"
    assert len(payload["criteria"]) == 8  # seven criteria plus the oracle
    assert payload["agreement"]["consistent"]
    assert "generated_at" not in payload


def test_certify_refuted_exits_one_with_witnesses(capsys):
    code, payload = _run_json(capsys, [
        "certify", "-f", "exp(x)", "-n", "2", "--interval", "-1,1",
        "--samples", "300", "--oracle-trials", "80", "--seed", "3", "--no-timestamp",
    ])
    assert code == 1
    assert payload["verdict"] == "fail"
    # unanimous refutation: every record fails and carries a witness
    assert all(rec["verdict"] == "fail" for rec in payload["criteria"])
    assert all("witness" in rec for rec in payload["criteria"])
    assert payload["agreement"]["consistent"]


def test_certify_replay_confirms_written_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = _run(capsys, [
        "certify", "-f", "exp(x)", "-n", "2", "--interval", "-1,1",
        "--samples", "300", "--oracle-trials", "80", "--seed", "3",
        "--no-timestamp", "--output", str(report),
    ])
    assert code == 1
    assert out == ""  # report went to the file
    assert report.exists()

    code, payload = _run_json(capsys, ["certify", "--replay", str(report)])
    assert code == 0
    assert payload["all_confirmed"]
    assert len(payload["replayed"]) == 8
    assert payload["function"] == "exp(x)"
    assert all(item["replay"]["confirmed"] for item in payload["replayed"])


def test_json_output_is_deterministic(capsys, tmp_path):
    argv = [
        "certify", "-f", "-1/x", "-n", "2", "--interval", "0.5,4",
        "--samples", "120", "--oracle-trials", "50", "--seed", "9", "--no-timestamp",
    ]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second

    out_file = tmp_path / "report.json"
    code, _, _ = _run(capsys, argv + ["--output", str(out_file)])
    assert code == 0
    assert out_file.read_text() == first


def test_usage_errors_exit_two(capsys):
    assert _run(capsys, ["certify", "-f", "x"])[0] == 2  # missing order/interval
    assert _run(capsys, ["certify", "-f", "foo(x)", "-n", "2", "--interval", "0,1"])[0] == 2
    assert _run(capsys, ["certify", "-f", "x", "-n", "2", "--interval", "1,2,3"])[0] == 2
    assert _run(capsys, ["genset", "--points-file", "/no/such/file.txt", "-n", "2"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["certify", "-f", "x", "-n", "1", "--interval", "4,0.5", "--seed", "1"], "--interval"),
    (["oracle", "-f", "x", "-n", "1", "--interval", "1,1", "--seed", "1"], "--interval"),
    (["certify", "-f", "x", "-n", "1", "--interval", "0.5,4", "--domain", "1,0"], "--domain"),
    (["counterexample", "-n", "2", "--points", "1,2,3,4,5,6", "--aux-poles", "0,7",
      "--x0", "abc", "--seed", "1"], "--x0"),
    (["identity", "-f", "x", "--nodes", "1,1"], "--nodes"),
    (["identity", "-f", "x", "--nodes", "1"], "--nodes"),
    (["identity", "-f", "x", "--nodes", "1,inf"], "--nodes"),
    (["identity", "-f", "x^2", "--nodes", "1,2", "--mode", "convex", "--base", "nan"], "--base"),
    (["certify", "--replay", "{tmp}/not.json"], "--replay"),
    (["certify", "--replay", "{tmp}/dd.json", "-f", "x"], "--replay"),
    (["certify", "--replay", "{tmp}/psd.json", "-f", "x"], "--replay"),
    (["certify", "--replay", "{tmp}/dd-nodes.json", "-f", "x"], "--replay"),
    (["certify", "--replay", "{tmp}/genset-short.json"], "--replay"),
], ids=["certify-reversed-interval", "oracle-empty-interval", "reversed-domain", "x0-not-a-number",
        "identity-repeated-node", "identity-one-node", "identity-infinite-node", "identity-nan-base",
        "replay-not-json", "replay-dd-without-nodes", "replay-psd-without-points",
        "replay-dd-nodes-not-pairs", "replay-genset-values-shorter-than-subset"])
def test_malformed_flag_values_exit_two(capsys, tmp_path, argv, flag):
    (tmp_path / "not.json").write_text("witness: none\n")
    (tmp_path / "dd.json").write_text('{"kind": "dd"}')
    (tmp_path / "psd.json").write_text('{"kind": "psd-matrix", "criterion": "loewner-psd"}')
    (tmp_path / "dd-nodes.json").write_text('{"kind": "dd", "nodes": 5, "q": {"real": [1.0]}}')
    (tmp_path / "genset-short.json").write_text(
        '{"kind": "genset-dd", "subset": [1.0, 2.0], "values": [1.0], "q": {"real": [1.0]}}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = _run(capsys, argv + ["--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}:")


MATRIX = {"real": [[1.0, 0.5], [0.5, 2.0]], "imag": [[0.0, 0.1], [-0.1, 0.0]]}


@pytest.mark.parametrize("witness, field", [
    ({"kind": "dd", "nodes": [[1.0, 0]], "q": {"real": [1.0]}}, "'nodes'"),
    ({"kind": "dd", "nodes": [[1.0, 2]], "q": {"real": [1.0], "imag": [0.0, 1.0]}}, "'q'"),
    ({"kind": "derivative-sign", "t": float("nan"), "deriv_order": 3, "q": {"real": [1.0]}}, "'t'"),
    ({"kind": "derivative-sign", "t": 1.0, "deriv_order": True, "q": {"real": [1.0]}}, "'deriv_order'"),
    ({"kind": "psd-matrix", "criterion": "kraus-free-psd", "points": [1.0, 2.0], "base": "1"}, "'base'"),
    ({"kind": "psd-matrix", "criterion": "dobsch-psd", "t": 1.0, "order": 0}, "'order'"),
    ({"kind": "psd-matrix", "criterion": "loewner-psd", "points": [1.0, None]}, "'points'"),
    ({"kind": "jensen", "matrix_a": {"real": [[1.0, 2.0]]}, "matrix_b": MATRIX}, "'matrix_a'"),
    ({"kind": "matrix-pair", "matrix_a": MATRIX, "matrix_b": {"real": [[1.0]]}}, "'matrix_a' and 'matrix_b'"),
], ids=["zero-multiplicity", "q-parts-of-two-lengths", "nan-t", "bool-order", "string-base",
        "zero-order", "null-point", "non-square-matrix", "matrices-of-two-sizes"])
def test_replay_gate_checks_types_and_lengths(capsys, tmp_path, witness, field):
    """Each field a replay reads is checked for its type and length before
    anything is replayed: a malformed witness is a usage error (exit 2)
    naming its field, not a traceback with the exit code of a refutation."""
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = _run(capsys, ["certify", "--replay", str(path), "-f", "x", "--no-timestamp"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --replay: {witness['kind']} witness's {field}")


def test_numerical_failures_exit_three(capsys):
    code, _, err = _run(capsys, [
        "certify", "-f", "log(x)", "-n", "2", "--interval", "-2,-1", "--seed", "1",
    ])
    assert code == 3
    assert "error:" in err

    code, _, err = _run(capsys, [
        "counterexample", "-n", "2", "--points", "1,2,3,4,5,6",
        "--aux-poles", "3.5,7", "--seed", "1",
    ])
    assert code == 3
    assert "outside the point hull" in err


def test_genset_subcommand(capsys, tmp_path):
    model = catalog_model("-1/x")
    good = FiniteFunction.from_model(model, [0.5 + 0.25 * k for k in range(7)])
    good_path = tmp_path / "good.txt"
    write_points_file(good_path, good, header="reciprocal grid")

    code, payload = _run_json(capsys, [
        "genset", "--points-file", str(good_path), "-n", "2",
        "--samples", "400", "--seed", "0", "--no-timestamp",
    ])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["rule"] == "k=n"

    bad = FiniteFunction.from_pairs([(0.1 * k, (0.1 * k) ** 2) for k in range(1, 7)])
    bad_path = tmp_path / "bad.txt"
    write_points_file(bad_path, bad)
    code, payload = _run_json(capsys, [
        "genset", "--points-file", str(bad_path), "-n", "2",
        "--samples", "800", "--seed", "0", "--no-timestamp",
    ])
    assert code == 1
    assert payload["verdict"] == "fail"


def test_genset_rejects_a_non_finite_table(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("0 0\n1 1\n2 nan\n3 3\n4 4\n")
    code, out, err = _run(capsys, [
        "genset", "--points-file", str(path), "-n", "2", "--seed", "1", "--no-timestamp",
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --points-file: non-finite pair (2.0, nan)")


def test_genset_glue_mode(capsys, tmp_path):
    model = catalog_model("-1/x")
    a = FiniteFunction.from_model(model, [0.5 + 0.25 * k for k in range(7)])
    b = FiniteFunction.from_model(model, [1.25 + 0.25 * k for k in range(8)])
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_points_file(pa, a)
    write_points_file(pb, b)

    code, payload = _run_json(capsys, [
        "genset", "--points-file", str(pa), "--glue-file", str(pb),
        "-n", "2", "--samples", "400", "--seed", "0", "--no-timestamp",
    ])
    assert code == 0
    assert payload["overlap_count"] == 4
    assert payload["hypothesis_met"]
    assert payload["verdict"] == "pass"
    assert payload["union"]["size"] == 11


def test_counterexample_subcommand(capsys):
    code, payload = _run_json(capsys, [
        "counterexample", "-n", "2", "--points", "1,2,3,4,5,6",
        "--aux-poles", "0,7", "--x0", "3.5", "--samples", "400",
        "--seed", "1", "--no-timestamp",
    ])
    assert code == 0  # empty feasible set is the expected outcome
    assert payload["bundle"]["first"] == "r2"
    assert payload["feasibility"]["empty"]
    assert payload["feasibility"]["feasible_intervals"] == []
    assert sorted(payload["feasibility"]["binding"]) == ["r1", "r2"]
    assert payload["feasibility"]["binding"]["r1"] == pytest.approx(24 / 49)


def test_identity_subcommand(capsys):
    code, payload = _run_json(capsys, [
        "identity", "-f", "x^3", "--nodes", "0.3,1.7", "--no-timestamp",
    ])
    assert code == 0
    assert payload["kind"] == "monotone"
    assert payload["max_error"] < 1e-10
    assert payload["tol"] == 1e-8
    # an explicit --tol is used as given, even one below the default
    code, out, _ = _run(capsys, [
        "identity", "-f", "x^3", "--nodes", "0.3,1.7", "--tol", "1e-9",
        "--format", "text", "--no-timestamp",
    ])
    assert code == 0
    assert "tol: 1e-09" in out.splitlines()

    code, _, err = _run(capsys, [
        "identity", "-f", "x^3", "--nodes", "0.3,1.7", "--mode", "convex",
        "--no-timestamp",
    ])
    assert code == 2
    assert "needs --base" in err

    code, payload = _run_json(capsys, [
        "identity", "-f", "x^4", "--nodes", "0.3,1.7", "--mode", "convex",
        "--base", "0.5", "--no-timestamp",
    ])
    assert code == 0
    assert payload["kind"] == "convex"
    assert payload["base"] == 0.5


def test_oracle_subcommand(capsys):
    code, payload = _run_json(capsys, [
        "oracle", "-f", "x^2", "-n", "2", "--interval", "0.5,4",
        "--trials", "200", "--seed", "2", "--no-timestamp",
    ])
    assert code == 1
    assert not payload["passed"]
    assert "witness" in payload

    code, payload = _run_json(capsys, [
        "oracle", "-f", "-1/x", "-n", "2", "--interval", "0.5,4",
        "--trials", "150", "--seed", "2", "--no-timestamp",
    ])
    assert code == 0
    assert payload["passed"]
    assert "not a proof" in payload["note"]


@pytest.mark.parametrize("mode", ["monotone", "convex"])
def test_an_oracle_that_overflows_exits_three(capsys, mode):
    # most defects are not finite on this interval: not a pass (exit 0)
    code, out, err = _run(capsys, [
        "oracle", "-f", "x", "-n", "2", "--interval", "1e307,1.7e308", "--mode", mode,
        "--seed", "1", "--trials", "200", "--no-timestamp",
    ])
    assert code == 3 and out == ""
    assert err.startswith("error: matrix oracle trial ") and "not finite" in err


def test_catalog_subcommand(capsys):
    code, payload = _run_json(capsys, ["catalog", "--no-timestamp"])
    assert code == 0
    keys = [entry["key"] for entry in payload["catalog"]]
    assert len(keys) == 10
    for expected in ("x", "x^2", "x^3", "-1/x", "sqrt(x)", "log(x)", "exp(x)"):
        assert expected in keys
    by_key = {entry["key"]: entry for entry in payload["catalog"]}
    assert by_key["x"]["max_monotone"] == "inf"
    assert by_key["x^2"]["max_monotone"] == 1
    assert by_key["x^2"]["max_convex"] == "inf"


def test_text_format(capsys):
    code, out, _ = _run(capsys, [
        "identity", "-f", "x^3", "--nodes", "0.3,1.7",
        "--format", "text", "--no-timestamp",
    ])
    assert code == 0
    assert "kind: monotone" in out
    assert "max_error:" in out


def test_module_entry_point():
    # the child imports the same matmono, installed or not
    src = os.path.dirname(os.path.dirname(matmono.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "matmono.cli", "catalog", "--no-timestamp"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["catalog"]) == 10


@pytest.mark.parametrize("argv", [
    ["certify", "-f", "-1/x", "-n", "2", "--interval", "0.5,4",
     "--samples", "0", "--oracle-trials", "0"],
    ["certify", "-f", "-1/x", "-n", "0", "--interval", "0.5,4"],
    ["oracle", "-f", "-1/x", "-n", "2", "--interval", "0.5,4", "--trials", "0"],
    ["counterexample", "-n", "2", "--points", "1,2,3,4,5,6", "--aux-poles", "0,7", "--samples", "0"],
    ["genset", "--points-file", "points.txt", "-n", "2", "--samples", "-3"],
    ["identity", "-f", "x^3", "--nodes", "0.3,1.7", "--quad-order", "0"],
])
def test_counts_below_one_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv + ["--no-timestamp"])
    assert code == 2
    assert out == ""
    assert "expected an integer >= 1" in err


@pytest.mark.parametrize("argv", [
    ["catalog", "--seed", "1"],
    ["catalog", "--tol", "3"],
    ["identity", "-f", "x^3", "--nodes", "0.3,1.7", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv + ["--no-timestamp"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("key, interval, domain, want", [
    ("x^2", "-1,1", "-2,2", 1),  # x^2 decreases on (-1, 0)
    ("x^0.25", "0.5,4", "0,20", 0),  # a real power, which does not parse
])
def test_domain_applies_to_catalog_keys(capsys, key, interval, domain, want):
    code, payload = _run_json(capsys, [
        "certify", "-f", key, "-n", "1", "--interval", interval, "--domain", domain,
        "--samples", "150", "--oracle-trials", "60", "--seed", "1", "--no-timestamp",
    ])
    assert code == want
    assert payload["function"] == key


def test_identity_base_is_a_convex_mode_flag(capsys):
    code, out, err = _run(capsys, [
        "identity", "-f", "log(x)", "--nodes", "1,2,3", "--base", "7", "--no-timestamp",
    ])
    assert code == 2
    assert out == ""
    assert "--base" in err


def test_ktone_witness_replays_from_a_file(capsys, tmp_path):
    rec = ktone_check(FunctionModel(parse("x^3")), 2, (-1.0, 1.0))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(rec.witness))
    code, payload = _run_json(capsys, [
        "certify", "--replay", str(path), "-f", "x^3", "--domain", "-2,2", "--no-timestamp",
    ])
    assert code == 0
    assert payload["all_confirmed"]
    assert payload["replayed"][0]["replay"]["value"] == rec.witness["value"]


@pytest.mark.parametrize("interval", ["0,inf", "-inf,inf", "-inf,0"])
@pytest.mark.parametrize("command", ["certify", "oracle"])
def test_infinite_interval_exits_two(capsys, command, interval):
    code, out, err = _run(capsys, [command, "-f", "x", "-n", "1", f"--interval={interval}",
                                   "--seed", "1", "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --interval:") and "finite endpoints" in err


def test_an_interval_too_narrow_for_distinct_nodes_exits_two(capsys):
    code, out, err = _run(capsys, ["certify", "-f", "x", "-n", "2", "--interval",
                                   "1,1.0000000000000018", "--seed", "1", "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: interval (1.0, 1.0000000000000018) is too narrow for")


def test_an_interval_whose_span_share_is_under_an_ulp_places_its_nodes(capsys):
    """On (1e8, 1e8 + 0.01), span * 1e-6 is under half an ulp of 1e8, so a
    cluster clipped at a + span * 1e-6 landed on a and placement raised
    (exit 2); with the 4-ulp floor of the end margin f = x passes."""
    argv = ["certify", "-f", "x", "-n", "2", "--interval", "100000000,100000000.01",
            "--seed", "1", "--no-timestamp"]
    code, report = _run_json(capsys, argv)
    assert code == 0 and report["verdict"] == "pass"
    assert _run_json(capsys, argv) == (code, report)


def test_infinite_domain_stays_valid(capsys):
    code, report = _run_json(capsys, ["certify", "-f", "log(x)", "-n", "1", "--interval", "0.5,4",
                                      "--domain", "0,inf", "--samples", "20", "--oracle-trials", "5",
                                      "--seed", "1", "--no-timestamp"])
    assert code == 0 and report["verdict"] == "pass"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3", "0"])
@pytest.mark.parametrize("argv", [
    ["certify", "-f", "exp(x)", "-n", "2", "--interval", "-1,1", "--seed", "1"],
    ["oracle", "-f", "x", "-n", "2", "--interval", "-1,1", "--seed", "1"],
    ["counterexample", "-n", "2", "--points", "1,2,3,4,5,6", "--aux-poles", "0,7", "--seed", "1"],
    ["identity", "-f", "x^3", "--nodes", "0.3,1.7"],
], ids=["certify", "oracle", "counterexample", "identity"])
def test_a_tol_that_is_not_finite_and_positive_exits_two(capsys, argv, tol):
    code, out, err = _run(capsys, argv + [f"--tol={tol}", "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert "tol must be a finite number > 0" in err


def test_a_negative_seed_exits_two(capsys):
    code, out, err = _run(capsys, [
        "certify", "-f", "x", "-n", "1", "--interval", "0,1", "--seed", "-1", "--no-timestamp",
    ])
    assert code == 2
    assert out == ""
    assert "expected an integer >= 0" in err


def _cube_table(path, points):
    write_points_file(path, FiniteFunction.from_model(catalog_model("x^3"), points))


def test_genset_and_glue_reports_replay(capsys, tmp_path):
    table = tmp_path / "cube.txt"
    _cube_table(table, [0.5 + 0.4 * k for k in range(8)])
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    _cube_table(first, [0.5 + 0.4 * k for k in range(6)])
    _cube_table(second, [0.5 + 0.4 * k for k in range(3, 10)])
    for argv in (["--points-file", str(table)],
                 ["--points-file", str(first), "--glue-file", str(second)]):
        report = tmp_path / "report.json"
        code, _, _ = _run(capsys, ["genset", *argv, "-n", "2", "--seed", "1",
                                   "--no-timestamp", "--output", str(report)])
        assert code == 1
        code, payload = _run_json(capsys, ["certify", "--replay", str(report), "--no-timestamp"])
        assert code == 0
        assert payload["all_confirmed"]
        assert payload["replayed"] and all(item["k"] == 2 for item in payload["replayed"])
    # a glue report's entries also name the piece their witness sits in
    names = [{key: val for key, val in item.items() if key not in ("witness", "replay")}
             for item in payload["replayed"]]
    assert names == [{"piece": "first", "k": 2}, {"piece": "second", "k": 2},
                     {"piece": "union", "k": 2}]


def test_a_report_without_witnesses_does_not_replay(capsys, tmp_path):
    report = tmp_path / "report.json"
    _run(capsys, ["certify", "-f", "-1/x", "-n", "1", "--interval", "0.5,4", "--samples", "20",
                  "--oracle-trials", "5", "--seed", "1", "--no-timestamp", "--output", str(report)])
    code, out, err = _run(capsys, ["certify", "--replay", str(report)])
    assert code == 2
    assert out == ""
    assert "no witnesses to replay" in err
