"""Run the benchmark over several seeds and summarise each metric.

    python3 lipbench/collect.py --runs 10 [--trace 0|1] [--out FILE]

For every workload of BENCHMARK.json it runs `run.py` for run_seconds once
per seed (seeds 1..runs), one run at a time, and prints per metric the
median, the quartiles and the spread (quartile distance over the median),
marking an end-to-end spread that is not below a third of the metric's
bound; the exit code is 1 when there is one.  `--out` writes the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed checks:\n"
                           + "\n".join(lines[:-1]))
    return result


def summarise(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0, "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [one_run(workload, seed, bench["run_seconds"], args.trace)
                for seed in range(1, args.runs + 1)]
        summary[workload] = {}
        print(f"{workload}: {args.runs} runs")
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload][name] = stats
            flag = ""
            if name in bounds and stats["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread over a third of bound {bounds[name]}"
                steady = False
            print(f"  {name:<44} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
