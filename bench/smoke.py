"""Smoke test of the benchmark's output checks.

    python3 bench/smoke.py

Runs three small CLI operations from this checkout (``run`` on example1,
``check`` on example2, and a 50-trial ``run`` on example3), confirms that
the oracle accepts each output as written, then perturbs the verdict and
the CSV one way at a time and confirms that every perturbation is
rejected.  Exits 0 when all of that holds and 1 otherwise; takes a few
seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import oracle
from run import ROOT, spawn


def _edit_json(key, change):
    def edit(files):
        report = json.loads(files["verdict"])
        report[key] = change(report[key])
        files["verdict"] = json.dumps(report)
    return edit


def _edit_csv(pick, change):
    """Apply `change` to the first CSV row that `pick` selects."""
    def edit(files):
        lines = files["csv"].split("\n")
        idx = next(i for i, line in enumerate(lines[1:], 1) if pick(line.split(",")))
        new = change(lines[idx].split(","))
        lines[idx : idx + 1] = [] if new is None else [",".join(new)]
        files["csv"] = "\n".join(lines)
    return edit


def _shift(col, delta):
    def change(row):
        row[col] = repr(float(row[col]) + delta)
        return row
    return change


def _to_block_start(row):
    """Move a dense row of the first block onto t_0 = 0, the open end of
    its window (t_0, t_0 + h]."""
    row[0] = "0.0"
    return row


VERDICT_EDITS = {
    "predicted value off by 1e-6": _edit_json("predicted_value", lambda v: v + 1e-6),
    "solvable flipped": _edit_json("solvable", lambda v: not v),
}
RUN_EDITS = {
    "converged flipped": _edit_json("converged", lambda v: not v),
    "sample value off by 1e-6": _edit_csv(lambda r: r[4] == "sample" and r[0] != "0.0", _shift(2, 1e-6)),
    "sample row dropped": _edit_csv(lambda r: r[4] == "sample", lambda r: None),
}
DENSE_EDITS = {
    "dense value off by 1e-6": _edit_csv(lambda r: r[4] == "dense", _shift(2, 1e-6)),
    "dense row moved to t_k": _edit_csv(lambda r: r[4] == "dense", _to_block_start),
}

CASES = [
    ("run", "example1.cfg", [], {**VERDICT_EDITS, **RUN_EDITS, **DENSE_EDITS}),
    ("check", "example2.cfg", [], VERDICT_EDITS),
    ("run", "example3.cfg", ["--trials", "50"], {**VERDICT_EDITS, **RUN_EDITS}),
]


def main() -> int:
    work = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    failures = 0
    for command, cfg_name, extra, edits in CASES:
        cfg = ROOT / "presets" / cfg_name
        sys_ = oracle.read_system(cfg)
        sys_.trials = int(extra[1]) if extra else sys_.trials
        expected = oracle.Expected.build(sys_, with_trajectory=command == "run")
        out = work / "out"
        argv = [command, str(cfg), *extra] + (["--out", str(out)] if command == "run" else [])
        op, stdout = spawn(argv, work)
        if op.code != 0:
            print(f"FAIL {command} {cfg_name}: exit code {op.code}")
            failures += 1
            continue
        original = {"verdict": stdout.decode() if command == "check" else (out / "verdict.json").read_text()}
        if command == "run":
            original["csv"] = (out / "trajectory.csv").read_text()

        def check(files):
            errors = expected.check_verdict(json.loads(files["verdict"]), ran=command == "run")
            if command == "run":
                (work / "trajectory.csv").write_text(files["csv"])
                errors += expected.check_csv(work / "trajectory.csv")
            return errors

        errors = check(dict(original))
        print(f"{'ok  ' if not errors else 'FAIL'} {command} {cfg_name} as written: accepted"
              + (f" -- {errors}" if errors else ""))
        failures += bool(errors)
        for label, edit in edits.items():
            files = dict(original)
            edit(files)
            errors = check(files)
            print(f"{'ok  ' if errors else 'FAIL'} {command} {cfg_name} {label}: "
                  + (f"rejected ({errors[0]})" if errors else "accepted"))
            failures += not errors
    shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
