"""Tests of the benchmark itself: smoke runs, output checkers, tracing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def isolated(monkeypatch):
    """A run re-imports lipfree; put the original modules back afterwards
    so other tests keep the classes they imported."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "lipfree" or n.startswith("lipfree.")}
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    yield
    for name in [n for n in sys.modules
                 if n == "lipfree" or n.startswith("lipfree.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _wrapped_names():
    return [(name, attr) for name, mod in tracing._program_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, "__wrapped__")]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(isolated, workload, tmp_path, capsys):
    result = run.run_workload(workload, seed=3, seconds=0, traced=False,
                              profile=gen.TINY)
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] >= 2 and result["failed"] == 0
    names = [m["name"] for m in run.load_benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_every_wrapper(isolated, tmp_path, capsys):
    spans = tmp_path / "spans.jsonl.gz"
    result = run.run_workload("witness", seed=3, seconds=0, traced=True,
                              profile=gen.TINY, spans_path=spans)
    assert result["correct"], capsys.readouterr().out
    names = [m["name"] for m in run.load_benchmark()["per_layer"]]
    assert list(result["metrics"]) == names
    metrics = result["metrics"]
    assert metrics["witness.operator_norm.calls"]["value"] > 0
    assert metrics["dual_lp.maximize.calls"]["value"] == 0
    assert _wrapped_names() == []
    assert spans.is_file()


def test_install_wraps_from_imported_names_and_restore_undoes_it(isolated):
    run.import_program()
    before = {(mod.__name__, attr): fn
              for mod, attr, fn, _ in tracing.bindings()}
    assert ("lipfree.cli", "validate") in before
    assert ("lipfree.witness", "free_norm_flow") in before
    assert ("lipfree.dual_lp", "maximize") in before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(_wrapped_names())
        assert set(before) <= wrapped
        lipfree = sys.modules["lipfree"]
        space = lipfree.path_space(2)
        sys.modules["lipfree.cli"].validate(space)
        assert [tracer.names[k] for k in tracer.name_of] == [
            "metric.validate"]
    finally:
        tracer.restore()
    after = {(mod.__name__, attr): fn
             for mod, attr, fn, _ in tracing.bindings()}
    assert after == before
    assert _wrapped_names() == []


def _first(workload, kind):
    for index in range(5):
        for cmd in gen.cycle(workload, 0, index, gen.TINY):
            if cmd.kind == kind:
                return cmd
    raise AssertionError(kind)


def _argv(cmd, tmp_path):
    names = {}
    for name, text in cmd.files.items():
        (tmp_path / name).write_text(text)
        names[name] = str(tmp_path / name)
    return [names.get(a, a) for a in cmd.argv]


def test_self_time_excludes_children(isolated, tmp_path):
    cli = run.import_program()
    cmd = _first("norm", "integer")
    tracer = tracing.Tracer()
    tracer.cmd = 0
    tracer.install()
    try:
        code, _, err, _ = run.execute(cli, _argv(cmd, tmp_path))
    finally:
        tracer.restore()
    assert code == 0, err
    names = [tracer.names[k] for k in tracer.name_of]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
    assert {"free.free_norm_flow", "flow.min_cost_transport",
            "dual_lp.maximize"} <= set(names)
    spans = range(len(tracer))
    duration = [tracer.end[k] - tracer.start[k] for k in spans]
    for k in spans[1:]:
        p = tracer.parent[k]
        assert tracer.start[p] <= tracer.start[k] <= tracer.end[k] \
            <= tracer.end[p]
    totals = tracer.layer_totals()
    children = sum(duration[k] for k in spans if tracer.parent[k] == 0)
    calls, total, self_s = totals["cli.main"]
    assert calls == 1 and total == pytest.approx(duration[0])
    assert self_s == pytest.approx(total - children)
    # Self times partition the root span: each instant is counted once.
    assert sum(t[2] for t in totals.values()) == pytest.approx(duration[0])


def _output(cmd, tmp_path):
    from lipfree import cli
    code, out, err, _ = run.execute(cli, _argv(cmd, tmp_path))
    assert code == 0, err
    checks.check(cmd, code, out)
    return json.loads(out)


def _rejects(cmd, report):
    with pytest.raises(checks.CheckError):
        checks.check(cmd, 0, json.dumps(report))


def test_norm_checker_rejects_wrong_norm(tmp_path):
    cmd = _first("norm", "rational")
    report = _output(cmd, tmp_path)
    wrong = str(checks.Fraction(report["dual_norm"]) + 1)
    _rejects(cmd, {**report, "dual_norm": wrong, "flow_norm": wrong})
    _rejects(cmd, {**report, "optimal_flow": report["optimal_flow"][1:]})


def test_doubling_checker_rejects_broken_cover(tmp_path):
    cmd = _first("doubling", "path")
    report = _output(cmd, tmp_path)
    k = next(i for i, e in enumerate(report["scales"]) if e["count"] > 1)
    entry = report["scales"][k]
    broken = {**entry, "count": entry["count"] - 1,
              "cover": entry["cover"][1:]}
    _rejects(cmd, {**report, "scales": report["scales"][:k] + [broken]
                   + report["scales"][k + 1:]})


def test_witness_checker_rejects_non_inverse(tmp_path):
    cmd = _first("witness", "check-unimodular")
    report = _output(cmd, tmp_path)
    images = json.loads(json.dumps(report["inverse_images"]))
    row = next(iter(images.values()))
    label = next(iter(row))
    row[label] = str(checks.Fraction(row[label]) + 1)
    _rejects(cmd, {**report, "inverse_images": images})


def test_suite_checker_rejects_failed_battery():
    cmd = gen.suite_command(1, 2, 4)
    report = {"numeric_mode": "exact", "all_passed": False, "spaces": 2,
              "batteries": [{"name": "x", "passed": False, "cases": 1}]}
    _rejects(cmd, report)


def test_ledger_flags_golden_mismatch(tmp_path):
    cmd = _first("norm", "integer")
    report = _output(cmd, tmp_path)
    ledger = run.Ledger({cmd.key: {"norm": "12345"}})
    assert ledger.check(cmd, 0, json.dumps(report), "") is None
    assert "golden" in ledger.failures[0]


@pytest.mark.parametrize("workload", ["norm", "witness", "doubling"])
def test_generator_is_seeded_and_never_repeats_a_space(workload):
    first = [c.key for c in gen.cycle(workload, 7, 0)]
    assert first == [c.key for c in gen.cycle(workload, 7, 0)]
    commands = gen.probes(workload) + [
        cmd for index in range(3) for cmd in gen.cycle(workload, 7, index)]
    assert len({c.key for c in commands}) == len(commands)
    spaces = [value.dist for cmd in commands for value in cmd.context.values()
              if isinstance(value, gen.Space)]
    assert len(set(spaces)) == len(spaces) >= len(commands)


def test_generator_and_checkers_do_not_import_lipfree():
    code = ("import sys; sys.path.insert(0, %r); import gen, checks; "
            "assert not [m for m in sys.modules if m.startswith('lipfree')]"
            % str(BENCH))
    subprocess.run([sys.executable, "-c", code], check=True)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "lipbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lipbench/run.py", "--workload", "norm", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
