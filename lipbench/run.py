"""lipfree benchmark: runs the real CLI in-process on seeded inputs.

    python3 lipbench/run.py --workload norm --seed 1 --seconds 20 --trace 0

One process, one thread and one closed-loop client per workload: each
command (`lipfree.cli.main(argv)`, stdout captured) starts when the previous
one has finished and its output has been checked.  `--workload all` runs the
four workloads one after another, each in its own process.

With `--trace 0` the run times commands untraced and reports the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` every command runs once with the
tracing wrappers of tracing.py installed and once without (its stdout must be
byte-identical), and the run reports the per-layer metrics.  Every time is
corrected for the machine's speed as speed.py describes; the header line
also gives the uncorrected figures.  Every line but the last is for people;
the last is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("norm", "witness", "doubling", "suite")
# Set-up is timed this many times and the median reported: one set-up lasts
# about as long as the machine's speed holds still, so fewer repeats let the
# median move between runs by more than a third of its bound.
SETUP_REPEATS = 25
# Enough commands that at least ten latency samples lie beyond the p90.
MIN_COMMANDS = 100
# No new cycle starts after this much loop time, so a run always ends well
# inside three minutes even on a much slower program.
LOOP_CAP_S = 110.0
OUT_DIR = ROOT / ".lipbench"


class ProgramMissing(Exception):
    pass


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_goldens() -> dict:
    """Input fingerprint -> unique values, as record_goldens.py wrote them."""
    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        return json.load(fh)["values"]


def import_program():
    """Import lipfree afresh from the checkout's own source tree."""
    src = ROOT / "src"
    if not (src / "lipfree" / "cli.py").is_file():
        raise ProgramMissing(f"no lipfree sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "lipfree" or n.startswith("lipfree.")]:
        del sys.modules[name]
    cli = importlib.import_module("lipfree.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"lipfree was imported from {cli.__file__}")
    return cli


def execute(cli, argv: list) -> tuple:
    """(exit code, stdout, stderr, seconds) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed run
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workdir:
    """Input files of a run, one set per command, never reused."""

    def __init__(self, workload: str):
        self.path = OUT_DIR / f"work-{workload}-{os.getpid()}"
        self.count = 0

    def argv(self, cmd) -> list:
        self.path.mkdir(parents=True, exist_ok=True)
        self.count += 1
        names = {}
        for name, text in cmd.files.items():
            target = self.path / f"c{self.count:06d}-{name}"
            target.write_text(text, encoding="utf-8")
            names[name] = os.path.relpath(target)
        return [names.get(a, a) for a in cmd.argv]

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Ledger:
    """Checks every output and counts attempts and failures."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failures = []
        self.golden_hits = 0

    def check(self, cmd, code: int, stdout: str, stderr: str,
              need_golden: bool = False):
        """The command's unique values, or None when it failed."""
        self.attempted += 1
        try:
            values = checks.check(cmd, code, stdout)
            want = self.goldens.get(cmd.key)
            if want is None and need_golden:
                raise checks.CheckError("no golden recorded for this input")
            if want is not None:
                self.golden_hits += 1
                if want != json.loads(json.dumps(values)):
                    raise checks.CheckError(
                        f"unique values {values} differ from golden {want}")
            return values
        except checks.CheckError as exc:
            detail = stderr.strip().splitlines()[-1:] if code else []
            self.failures.append(f"{cmd.kind} {cmd.argv[:3]}: {exc} "
                                 f"{' '.join(detail)}".strip())
            return None

    def fail(self, cmd, message: str) -> None:
        self.failures.append(f"{cmd.kind} {cmd.argv[:3]}: {message}")


def set_up(workload: str, work: Workdir, ledger: Ledger, meter):
    """Import lipfree and run the warm-up command, several times; returns
    the CLI module and the median set-up time."""
    warm = gen.probes(workload)[0]
    argv = work.argv(warm)
    times = []
    for _ in range(SETUP_REPEATS):
        (cli, (code, out, err, _)), seconds, scale = meter.timed(
            lambda: _import_and_run(argv))
        times.append(seconds * scale)
        ledger.check(warm, code, out, err, need_golden=True)
    return cli, statistics.median(times)


def _import_and_run(argv):
    cli = import_program()
    return cli, execute(cli, argv)


def run_probes(cli, workload: str, work: Workdir, ledger: Ledger) -> None:
    for cmd in gen.probes(workload)[1:]:
        code, out, err, _ = execute(cli, work.argv(cmd))
        ledger.check(cmd, code, out, err, need_golden=True)


def cycles(workload, seed, profile):
    index = 0
    while True:
        yield gen.cycle(workload, seed, index, profile)
        index += 1


def measure(cli, workload, seed, seconds, profile, work, ledger, meter,
            min_commands) -> dict:
    """Closed loop over whole cycles, untraced; latencies are corrected for
    machine speed, raw ones are kept for the header line."""
    latencies, raw, cases = [], [], 0
    started = time.perf_counter()
    for batch in cycles(workload, seed, profile):
        for cmd in batch:
            argv = work.argv(cmd)
            (code, out, err, dt), _, scale = meter.timed(
                lambda: execute(cli, argv))
            values = ledger.check(cmd, code, out, err)
            latencies.append(dt * scale)
            raw.append(dt)
            if values is not None:
                cases += checks.cases(cmd, values)
        if (sum(raw) >= seconds and len(raw) >= min_commands
                or time.perf_counter() - started > LOOP_CAP_S):
            break
    return {"latencies": latencies, "raw": raw, "cases": cases}


def measure_traced(cli, workload, seed, seconds, profile, work, ledger,
                   meter, tracer) -> dict:
    """Each command runs traced and untraced, for the byte comparison and the
    overhead figure; which of the two goes first alternates from one command
    to the next, so neither side always runs warm."""
    traced_s = untraced_s = raw_s = 0.0
    commands = 0
    started = time.perf_counter()
    for batch in cycles(workload, seed, profile):
        for cmd in batch:
            argv = work.argv(cmd)
            if commands % 2:
                plain = _untraced(cli, argv, meter)
            tracer.cmd = commands
            tracer.install()
            try:
                (code, out, err, dt), _, scale = meter.timed(
                    lambda: execute(cli, argv))
            finally:
                tracer.restore()
            if not commands % 2:
                plain = _untraced(cli, argv, meter)
            code2, out2, dt2, scale2 = plain
            tracer.scales.append(scale)
            commands += 1
            traced_s += dt * scale
            untraced_s += dt2 * scale2
            raw_s += dt + dt2
            if ledger.check(cmd, code, out, err) is not None and (
                    out != out2 or code != code2):
                ledger.fail(cmd, "traced stdout differs from untraced stdout")
        if raw_s >= seconds or time.perf_counter() - started > LOOP_CAP_S:
            break
    return {"commands": commands, "traced_s": traced_s,
            "untraced_s": untraced_s}


def _untraced(cli, argv, meter) -> tuple:
    (code, out, _, dt), _, scale = meter.timed(lambda: execute(cli, argv))
    return code, out, dt, scale


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = run["latencies"]
    busy = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": len(lat) / busy,
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": p90 * 1000,
        "cases_per_s": run["cases"] / busy,
        "setup_s": setup_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 profile=gen.FULL, spans_path=None) -> dict:
    """One run; returns the result object printed as the last line."""
    bench = load_benchmark()
    ledger = Ledger(load_goldens())
    work = Workdir(workload)
    meter = speed.Speedometer()
    try:
        cli, setup_s = set_up(workload, work, ledger, meter)
        run_probes(cli, workload, work, ledger)
        if traced:
            tracer = tracing.Tracer()
            run = measure_traced(cli, workload, seed, seconds, profile, work,
                                 ledger, meter, tracer)
            names = [m["name"] for m in bench["per_layer"]]
            values = tracing.layer_metrics(tracer, names, run["commands"],
                                         run["traced_s"], run["untraced_s"])
            specs = bench["per_layer"]
            path = spans_path or OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz"
            tracer.write(path)
            header = (f"traced commands={run['commands']} spans="
                      f"{len(tracer)} written to {os.path.relpath(path)}")
        else:
            run = measure(cli, workload, seed, seconds, profile, work, ledger,
                          meter,
                          MIN_COMMANDS if profile is gen.FULL else 0)
            values = end_to_end(run, setup_s)
            specs = bench["end_to_end"]
            raw = run["raw"]
            header = (f"untraced commands={len(raw)} (latency samples="
                      f"{len(raw)}); uncorrected ops_per_s="
                      f"{len(raw) / sum(raw):.4g} latency_p50_ms="
                      f"{statistics.median(raw) * 1000:.4g}")
    finally:
        meter.release()
        work.remove()
    failed = len(ledger.failures)
    print(f"lipbench workload={workload} seed={seed} {header} "
          f"golden_checked={ledger.golden_hits}")
    for spec in specs:
        print(f"  {spec['name']:<44} {values[spec['name']]:>14.6g} "
              f"{spec['unit']}")
    print(f"  {'failed_frac':<44} {failed / ledger.attempted:>14.6g} "
          f"frac ({failed} of {ledger.attempted} commands)")
    for line in ledger.failures[:20]:
        print(f"  FAILED {line}")
    return {"correct": failed == 0, "attempted": ledger.attempted,
            "failed": failed,
            "metrics": {s["name"]: {"value": values[s["name"]],
                                    "unit": s["unit"]} for s in specs}}


def run_all(seed: int, seconds: float, trace_flag: int) -> dict:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace_flag)], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {workload} exited "
                               f"{proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (ProgramMissing, OSError, RuntimeError) as exc:
        print(f"lipbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
