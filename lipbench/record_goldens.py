"""Record the unique values of the benchmark's inputs at the current commit.

    python3 lipbench/record_goldens.py

Runs the probe commands and the first cycle of seeds 0..10 of every
workload, checks each output, and writes lipbench/goldens.json, which maps
each input fingerprint to its norms, operator norms, condition numbers,
covering counts or suite case counts.  A failing check aborts the recording.
Re-record only when a change of the program is meant to change these values
or the generator changes the inputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import checks
import gen
import run

SEEDS = range(0, 11)


def main() -> int:
    cli = run.import_program()
    values = {}
    work = run.Workdir("goldens")
    try:
        for workload in run.WORKLOADS:
            commands = gen.probes(workload)
            for seed in SEEDS:
                commands += gen.cycle(workload, seed, 0)
            for cmd in commands:
                code, out, err, _ = run.execute(cli, work.argv(cmd))
                try:
                    values[cmd.key] = checks.check(cmd, code, out)
                except checks.CheckError as exc:
                    print(f"{workload} {cmd.argv[:3]}: {exc}\n{err}",
                          file=sys.stderr)
                    return 1
            print(f"{workload}: {len(commands)} commands recorded")
    finally:
        work.remove()
    lines = [f"  {json.dumps(key)}: {json.dumps(values[key])}"
             for key in sorted(values)]
    text = '{"values": {\n' + ",\n".join(lines) + "\n}}\n"
    (run.HERE / "goldens.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
