import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

from lipfree import io, path_space
from lipfree.cli import main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lipfree", *args],
                          capture_output=True, text=True)


def write_space(tmp_path, space, name="space.json"):
    path = tmp_path / name
    io.dump_json(io.space_to_dict(space), path)
    return path


def test_validate_ok(tmp_path):
    path = write_space(tmp_path, path_space(3))
    result = run_cli("validate", str(path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["violations"] == []


def test_validate_reports_triangle(tmp_path):
    path = tmp_path / "bad.json"
    io.dump_json({"points": ["e", "1", "2"], "base": 0,
                  "dist": [["0", "1", "3"], ["1", "0", "1"],
                           ["3", "1", "0"]]}, path)
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert "triangle(e,2 via 1)" in json.loads(result.stdout)["violations"]


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_norm_isometry(tmp_path):
    path = write_space(tmp_path, path_space(2))
    result = run_cli("norm", str(path), "--coeffs", "1:1,2:-1")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["dual_norm"] == "1" and report["flow_norm"] == "1"
    assert report["agree"] is True
    assert report["numeric_mode"] == "exact"


def test_norm_two_masses(tmp_path):
    path = write_space(tmp_path, path_space(2))
    result = run_cli("norm", str(path), "--coeffs", "1:1,2:1")
    report = json.loads(result.stdout)
    assert report["dual_norm"] == "3"
    assert report["optimal_function"] == {"0": "0", "1": "1", "2": "2"}
    assert report["optimal_flow"] == [
        {"from": "1", "to": "0", "amount": "1"},
        {"from": "2", "to": "0", "amount": "1"}]


def test_norm_empty_coeffs_is_zero(tmp_path):
    path = write_space(tmp_path, path_space(2))
    result = run_cli("norm", str(path), "--coeffs", "")
    report = json.loads(result.stdout)
    assert report["dual_norm"] == "0" and report["flow_norm"] == "0"


def test_norm_float_mode_labelled(tmp_path):
    path = write_space(tmp_path, path_space(2))
    result = run_cli("--float", "norm", str(path), "--coeffs", "1:1/2")
    report = json.loads(result.stdout)
    assert report["numeric_mode"].startswith("float")
    assert report["dual_norm"] == 0.5


def test_construct_sum(tmp_path):
    a = write_space(tmp_path, path_space(1), "a.json")
    b = write_space(tmp_path, path_space(1), "b.json")
    out = tmp_path / "sum.json"
    result = run_cli("construct", "sum", str(a), str(b), "-o", str(out))
    assert result.returncode == 0
    space = io.space_from_dict(io.load_json(out))
    assert space.n == 3


def test_construct_quotient(tmp_path):
    path = write_space(tmp_path, path_space(3))
    out = tmp_path / "q.json"
    result = run_cli("construct", "quotient", str(path),
                     "--collapse", "0,1", "-o", str(out))
    assert result.returncode == 0
    space = io.space_from_dict(io.load_json(out))
    assert space.n == 3
    report = json.loads(result.stdout)
    assert report["quotient_map"]["3"] == "[3]"


def test_construct_normalize_emits_witness(tmp_path):
    path = write_space(tmp_path, path_space(2))
    basis_out = tmp_path / "basis.json"
    witness_out = tmp_path / "w.json"
    result = run_cli("construct", "normalize", str(path),
                     "-o", str(basis_out), "--witness-out", str(witness_out))
    assert result.returncode == 0
    witness = io.witness_from_dict(io.load_json(witness_out))
    assert witness.source == path_space(2)
    space, vectors, labels = io.basis_from_dict(io.load_json(basis_out))
    assert len(vectors) == 2


def test_construct_project_and_basis_constant(tmp_path):
    path = write_space(tmp_path, path_space(2))
    basis_out = tmp_path / "basis.json"
    witness_out = tmp_path / "w.json"
    result = run_cli("construct", "project", str(path), "--pi", "1:1,2:1",
                     "-o", str(basis_out), "--witness-out", str(witness_out))
    assert result.returncode == 0
    result = run_cli("witness", "basis-constant", "--basis", str(basis_out))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["basis_constant"] == "1"


def test_witness_build_check_condition(tmp_path):
    path = write_space(tmp_path, path_space(2))
    witness_out = tmp_path / "w.json"
    result = run_cli("witness", "build", "--space", str(path),
                     "--kind", "discrete", "--witness-out", str(witness_out))
    assert result.returncode == 0
    result = run_cli("witness", "check", "--witness", str(witness_out))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["invertible"] is True
    result = run_cli("witness", "condition", "--witness", str(witness_out))
    assert json.loads(result.stdout)["condition"] == \
        report["condition"]


def test_witness_build_quotient_retraction(tmp_path):
    path = write_space(tmp_path, path_space(2))
    witness_out = tmp_path / "w.json"
    result = run_cli("witness", "build", "--space", str(path),
                     "--kind", "quotient", "--retraction", "2:1",
                     "--witness-out", str(witness_out))
    assert result.returncode == 0
    witness = io.witness_from_dict(io.load_json(witness_out))
    assert witness.target.points == ("0", "1", "[2]")


def test_witness_check_rank_deficient_fails(tmp_path):
    path = write_space(tmp_path, path_space(2))
    doc = {
        "source": io.space_to_dict(path_space(2)),
        "target": io.space_to_dict(path_space(2)),
        "images": {"1": {"1": "1"}, "2": {"1": "1"}},
    }
    wfile = tmp_path / "bad.json"
    io.dump_json(doc, wfile)
    result = run_cli("witness", "check", "--witness", str(wfile))
    assert result.returncode == 1
    assert json.loads(result.stdout)["reason"] == "rank deficient"


def test_doubling_report_and_csv(tmp_path):
    path = write_space(tmp_path, path_space(4))
    csv_out = tmp_path / "scales.csv"
    result = run_cli("doubling", str(path), "--csv", str(csv_out))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["doubling_max"] <= 3
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "scale,count,exact"
    assert len(lines) == len(report["scales"]) + 1


def test_doubling_exact_threshold_env(tmp_path):
    path = write_space(tmp_path, path_space(4))
    env = dict(os.environ, LIPFREE_EXACT_THRESHOLD="1")
    result = subprocess.run(
        [sys.executable, "-m", "lipfree", "doubling", str(path)],
        capture_output=True, text=True, env=env)
    report = json.loads(result.stdout)
    assert report["exact_threshold"] == 1
    assert report["all_exact"] is False


def test_suite_small_passes_and_is_deterministic(tmp_path):
    args = ["suite", "--seed", "5", "--spaces", "6", "--max-size", "5"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["all_passed"] is True


def test_suite_zero_spaces_vacuous():
    result = run_cli("suite", "--spaces", "0")
    report = json.loads(result.stdout)
    assert result.returncode == 0
    assert report["all_passed"] is True
    assert all(b["cases"] == 0 for b in report["batteries"])


def test_main_callable_directly(tmp_path, capsys):
    path = write_space(tmp_path, path_space(2))
    code = main(["validate", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


NEGATIVE = {"points": ["e", "a"], "base": 0,
            "dist": [["0", "-1"], ["-1", "0"]]}


def test_witness_check_rejects_non_metric_space(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    io.dump_json({"source": NEGATIVE, "target": NEGATIVE,
                  "images": {"a": {"a": "1"}}}, wfile)
    assert main(["witness", "check", "--witness", str(wfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "witness source space is invalid" in captured.err
    assert "positivity(e,a)" in captured.err


def test_basis_constant_rejects_non_metric_space(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    io.dump_json({"space": NEGATIVE,
                  "vectors": [{"label": "v", "coeffs": {"a": "1"}}]}, bfile)
    assert main(["witness", "basis-constant", "--basis", str(bfile)]) == 2
    assert "basis space is invalid: ['positivity(e,a)']" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_threshold_env_exits_2(tmp_path, capsys, monkeypatch, value):
    path = write_space(tmp_path, path_space(4))
    monkeypatch.setenv("LIPFREE_EXACT_THRESHOLD", value)
    assert main(["doubling", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lipfree: error: LIPFREE_EXACT_THRESHOLD")
    assert repr(value) in captured.err


@pytest.mark.parametrize("module, limit, message", [
    ("dual_lp", "_MAX_PIVOTS", "pivot limit exceeded"),
    ("flow", "_MAX_AUGMENTATIONS", "augmentation limit exceeded"),
])
def test_solver_limit_exits_2(tmp_path, capsys, monkeypatch, module, limit,
                              message):
    monkeypatch.setattr(importlib.import_module(f"lipfree.{module}"), limit, 0)
    path = write_space(tmp_path, path_space(2))
    assert main(["norm", str(path), "--coeffs", "1:1,2:-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lipfree: error: {message}\n"


@pytest.mark.parametrize("subcommand", ["doubling", "suite"])
def test_negative_threshold_flag_exits_2(tmp_path, capsys, subcommand):
    path = write_space(tmp_path, path_space(4))
    args = [str(path)] if subcommand == "doubling" else ["--spaces", "1"]
    assert main([subcommand, *args, "--exact-threshold", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lipfree: error: --exact-threshold must be a "
                            "nonnegative integer, got -1\n")
    assert main([subcommand, *args, "--exact-threshold", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    if subcommand == "doubling":
        assert report["exact_threshold"] == 0 and not report["all_exact"]


# Outputs recorded before the witness and suite code was refactored; any
# change to them is a change of behaviour, not of structure.
PIN_SPACE = {"points": ["e", "a", "b", "c"], "base": 0,
             "dist": [["0", "1", "2", "3/2"], ["1", "0", "1", "3/2"],
                      ["2", "1", "0", "1"], ["3/2", "3/2", "1", "0"]]}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _build_report(kind, norm, inverse_norm, condition, extra=""):
    return ('{\n  "numeric_mode": "exact",\n  "kind": "%s",\n'
            '  "witness_file": "w.json",\n  "operator_norm": "%s",\n'
            '  "inverse_norm": "%s",\n  "condition": "%s"%s\n}\n'
            % (kind, norm, inverse_norm, condition, extra))


@pytest.mark.parametrize("kind, extra_args, stdout, witness_sha", [
    ("normalize", [], _build_report("normalize", "2", "1", "2"),
     "16887939d85d3608dcaef58b13e7a5e38fb32bb44c830096c0485a3165b58f4a"),
    ("project", ["--pi", "a:a,b:a,c:0"], _build_report("project", "5/2", "1",
                                                      "5/2"),
     "00b09c31962b2891b1ccca3b793b96a1b381bbbd4e45c2b510500e528551af27"),
    ("discrete", [], _build_report("discrete", "2", "2", "4",
                                   ',\n  "separation": "1",\n'
                                   '  "diameter": "2"'),
     "ad55eabb60492da8fee652a8cc2c40e7320043231ef08118858639f4d42f33a0"),
])
def test_witness_build_output_pinned(tmp_path, capsys, monkeypatch, kind,
                                     extra_args, stdout, witness_sha):
    monkeypatch.chdir(tmp_path)
    io.dump_json(PIN_SPACE, "s.json")
    assert main(["witness", "build", "--space", "s.json", "--kind", kind,
                 "--witness-out", "w.json", *extra_args]) == 0
    assert capsys.readouterr().out == stdout
    assert _sha256((tmp_path / "w.json").read_bytes()) == witness_sha


def test_witness_opnorm_output_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    io.dump_json(PIN_SPACE, "s.json")
    assert main(["witness", "build", "--space", "s.json", "--kind", "project",
                 "--pi", "a:a,b:a,c:0", "--witness-out", "w.json"]) == 0
    capsys.readouterr()
    expected = '{\n  "numeric_mode": "exact",\n  "operator_norm": "5/2"\n}\n'
    assert main(["witness", "opnorm", "--witness", "w.json"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["witness", "opnorm", "--witness", "w.json",
                 "-o", "r.json"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "r.json").read_text() == expected


def test_suite_output_pinned(capsys):
    assert main(["suite", "--seed", "0", "--spaces", "30"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == \
        "6eca6a66becb19ab06ee2d22d219c137da6e7fa7d628ebc9e9ce3a01bd6a6594"


@pytest.mark.parametrize("change, message", [
    ({"points": 5}, "points: expected a list"),
    ({"dist": [["0", "1"], 7]}, "dist[1]: expected a list"),
    ({"base": True}, "base must be an integer index"),
    ({"base": "0"}, "base must be an integer index"),
], ids=["points", "dist-row", "base-true", "base-string"])
def test_malformed_space_document_exits_2(tmp_path, capsys, change, message):
    path = tmp_path / "s.json"
    io.dump_json({"points": ["e", "a"], "base": 0,
                  "dist": [["0", "1"], ["1", "0"]], **change}, path)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lipfree: error: {message}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag, value, message", [
    ("--spaces", "-3", "--spaces must be a nonnegative integer, got -3"),
    ("--max-size", "0", "--max-size must be an integer of at least 2, got 0"),
], ids=["spaces", "max-size"])
def test_suite_bad_size_flag_exits_2(capsys, flag, value, message):
    assert main(["suite", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lipfree: error: {message}\n"
