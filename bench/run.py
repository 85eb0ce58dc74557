"""The repository benchmark: one CLI operation per workload, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ``hybridconsensus`` operation in a fresh
process, waits for it to exit, and only then starts the next, until S
seconds of operations have been measured (at least MIN_OPS of them).
Inputs come from ``--seed`` (see workloads.py).  Every output is checked
against the oracle in oracle.py outside the timed region; an operation
whose exit code, verdict or files fail the check counts as failed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off,
each from the median over the run's operations:
  wall_per_ref wall time of one operation, spawn to exit, divided by the
               time of the reference computation (reference_s), timed
               before the first operation and after every one
  cpu_per_ref  user + system CPU time of that child (os.wait4), divided
               by the same reference time
  setup_s      wall time of ``bounds`` on the same config, run SETUP_REPS
               times, one before each of the first operations: start-up,
               import, config and edge-list read
  peak_rss_mb  ru_maxrss of that one child (os.wait4), in MiB
  pass_frac    operations that passed every check / operations attempted
The raw wall and CPU seconds are printed and kept in the report.
``--trace 1`` runs the same loop, then the operation once more in-process
under tracing.py, and reports the per-layer metrics.

The last line of standard output is the JSON result; a full report with
the environment, the samples and the inputs' parameters is written to
``.bench_work/<workload>-seed<N>-<pid>/report.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HC = BENCH / "hc.py"
MIN_OPS = 3
SETUP_REPS = 9
#: known defect, run once per benchmark run and reported, never gated: the
#: dense tau grid arange(1, d+1) * (h/d) can overshoot h by one ulp, and
#: `run` then exits 2 with OutOfWindow.  The workloads' two-significant-digit
#: h values never trip it.
REPRODUCER = ["run", str(ROOT / "presets" / "example1.cfg"), "--h", "0.103"]


@dataclass
class Op:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    errors: tuple = ()


def spawn(argv: list[str], cwd: Path) -> tuple[Op, bytes]:
    """Run the CLI in a fresh process; resource use of that child only."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HC), *argv], cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    return op, out_path.read_bytes()


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


class Runner:
    """Runs and checks one workload's operations."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl, self.work = wl, work
        self.expected = oracle.Expected.build(wl.sys, wl.command == "run")
        self.outdir = work / "out"
        self.reference: str | None = None  # digest of the first verified output
        self.nu_err = 0.0

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.wl.command, str(self.wl.cfg)]
        return argv + ["--out", str(outdir)] if self.wl.command == "run" else argv

    def outputs(self, stdout: bytes, outdir: Path) -> list[str]:
        """Findings on one operation's outputs.  The first passing output is
        checked in full against the oracle; every later one must equal it
        byte for byte."""
        if self.wl.command == "check":
            blobs = [stdout]
        else:
            files = [outdir / "trajectory.csv", outdir / "verdict.json"]
            if not all(f.is_file() for f in files):
                return ["run wrote no trajectory.csv / verdict.json"]
            blobs = [f.read_bytes() for f in files]
        key = digest(*blobs)
        if key == self.reference:
            return []
        if self.reference is not None:
            return ["output differs byte for byte from the first operation's"]
        errors = self.verify(blobs, outdir)
        if not errors:
            self.reference = key
        return errors

    def verify(self, blobs: list[bytes], outdir: Path) -> list[str]:
        try:
            report = json.loads(blobs[-1])
            errors = self.expected.check_verdict(report, ran=self.wl.command == "run")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed verdict: {exc!r}"]
        if report["predicted_value"] is not None and self.expected.pred.value is not None:
            self.nu_err = abs(report["predicted_value"] - self.expected.pred.value)
        if self.wl.command == "run":
            errors += self.expected.check_csv(outdir / "trajectory.csv")
        return errors

    def operation(self) -> Op:
        shutil.rmtree(self.outdir, ignore_errors=True)
        op, stdout = spawn(self.argv(self.outdir), self.work)
        if op.code != 0:
            op.errors = (f"exit code {op.code}: {(self.work / 'stderr.txt').read_text()[-300:]}",)
        else:
            op.errors = tuple(self.outputs(stdout, self.outdir))
        return op

    def setup(self) -> tuple[float, list[str]]:
        op, stdout = spawn(["bounds", str(self.wl.cfg)], self.work)
        if op.code != 0:
            return op.wall, [f"bounds exit code {op.code}"]
        got = dict(line.partition(" = ")[::2] for line in stdout.decode().splitlines())
        errors = [f"bounds {key} = {got.get('bound_' + key)}, oracle {want!r}"
                  for key, want in self.expected.bounds.items()
                  if got.get("bound_" + key) != repr(want)]
        return op.wall, errors

    def traced(self, memory: bool) -> tuple[dict, list[str]]:
        out_json = self.work / ("memory.json" if memory else "spans.json")
        outdir = self.work / ("out-memory" if memory else "out-traced")
        shutil.rmtree(outdir, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(out_json)]
        cmd += ["--memory"] if memory else []
        subprocess.run(cmd + ["--", *self.argv(outdir)], cwd=self.work, check=True,
                       stdout=subprocess.DEVNULL)
        result = json.loads(out_json.read_text())
        if result["exit_code"] != 0:
            return result, [f"traced run exit code {result['exit_code']}"]
        errors = self.outputs(result["stdout"].encode(), outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return result, [f"traced run: {e}" for e in errors]


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        env["git_rev"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--", "src", "presets", "bench"],
                                capture_output=True, text=True).stdout
        env["git_dirty"] = bool(status.strip())
    else:
        env["git_rev"], env["git_dirty"] = "unknown (not a git checkout)", None
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        return {}


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS will use (the CLI child inherits the same
    environment, hence the same default)."""
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        return None
    for lib in sorted({p for p in maps if "openblas" in p and p.endswith(".so")}):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


_REF_STEP = np.full((6, 6), 1.0 / 6.0)
_REF_MATRIX = np.random.default_rng(0).standard_normal((300, 300))


def reference_s() -> float:
    """Wall time of a fixed computation that mixes what the workloads do: an
    interpreted loop, small numpy products in a loop, and a dense SVD on the
    default BLAS threads.  A shared host's speed can drift by 30% and more
    over minutes, which the load average inside a virtual machine cannot
    see; timed between the operations, this computation drifts with it, and
    the time metrics are reported in its units.  It runs in the benchmark's own process and
    uses nothing from the package, so a change to the package cannot move
    it."""
    start, acc, x = time.perf_counter(), 0, np.ones(6)
    for i in range(300_000):
        acc += i * i
    for _ in range(20_000):
        x = _REF_STEP @ x
    np.linalg.svd(_REF_MATRIX)
    return time.perf_counter() - start


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values), "values": values}


def counts(wl: workloads.Workload, runner: Runner, untraced_compute_s: float) -> dict:
    sys_, ran = wl.sys, wl.command == "run"
    csv = runner.work / "out" / "trajectory.csv"
    deterministic = ran and sys_.case != 3
    trials = sys_.trials if sys_.case == 3 else 1
    return {
        "state_bytes": trials * (sys_.steps + 1) * sys_.n * 8 if ran else 0,
        "dense_points": sys_.steps * sys_.m * sys_.dense_per_step if deterministic else 0,
        "matvecs": trials * sys_.steps if ran else 0,
        "csv_rows": csv.read_bytes().count(b"\n") - 1 if ran else 0,
        "csv_bytes": csv.stat().st_size if ran else 0,
        "roots_tried": oracle.roots_tried(sys_),
        "nu_err": runner.nu_err,
        "untraced_compute_s": untraced_compute_s,
    }


#: the layers each workload was chosen for, and their share of the traced total
FOCUS = {
    "paper-gossip": ("engine.monte_carlo_mean_s",),
    "large-sampled": ("engine.simulate_deterministic_s", "reporting.csv_lines_s",
                      "reporting.write_csv_s", "reporting.verdict_s"),
    "large-check": ("spectral.left_eigenvector_s", "graphs.structure_s"),
    "large-gossip-check": ("protocols.case_matrix_s",),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("BENCHMARK.json", "src/hybridconsensus/cli.py", "presets/example1.cfg",
                           "presets/example3.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a hybridconsensus checkout, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "phase_s": {}}
    clock = [time.perf_counter()]

    def lap(phase: str) -> None:
        now = time.perf_counter()
        report["phase_s"][phase], clock[0] = now - clock[0], now

    wl = workloads.generate(args.workload, args.seed, ROOT, work)
    runner = Runner(wl, work)
    report["inputs"] = wl.params
    lap("generate_and_oracle")

    # untimed and ungated; also compiles the package's bytecode before timing
    (work / "repro").mkdir()
    repro, _ = spawn(REPRODUCER + ["--out", str(work / "repro")], work / "repro")
    report["defect_reproducer"] = {"exit_code": repro.code,
                                   "stderr": (work / "repro" / "stderr.txt").read_text().strip()}
    lap("reproducer")

    load_before = os.getloadavg()
    refs, setups, ops = [reference_s()], [], []
    measured = 0.0
    while measured < args.seconds or (len(ops) < MIN_OPS and measured < 3 * args.seconds):
        if len(setups) < SETUP_REPS:  # spread over the run, so both sample the same machine state
            setups.append(runner.setup())
        ops.append(runner.operation())
        refs.append(reference_s())
        measured += ops[-1].wall
    setups += [runner.setup() for _ in range(SETUP_REPS - len(setups))]
    load_after = os.getloadavg()
    lap("loop")

    failed = sum(1 for op in ops if op.errors)
    other_errors = [e for _, errors in setups for e in errors]
    samples = {"wall_s": [op.wall for op in ops], "cpu_s": [op.cpu for op in ops],
               "reference_s": refs, "setup_s": [t for t, _ in setups],
               "peak_rss_mb": [op.rss_mb for op in ops]}
    med = {k: statistics.median(v) for k, v in samples.items()}
    metrics = {"wall_per_ref": med["wall_s"] / med["reference_s"],
               "cpu_per_ref": med["cpu_s"] / med["reference_s"],
               "setup_s": med["setup_s"], "peak_rss_mb": med["peak_rss_mb"],
               "pass_frac": (len(ops) - failed) / len(ops)}
    report["samples"] = {k: quartiles(v) for k, v in samples.items()}
    report["end_to_end"] = metrics
    report["loadavg"] = {"before": load_before, "after": load_after,
                         "contended": max(load_before[0], load_after[0]) > (os.cpu_count() or 1)}

    if args.trace:
        timed, errors = runner.traced(memory=False)
        lap("traced")
        memory, mem_errors = runner.traced(memory=True) if wl.command == "run" else (None, [])
        lap("memory")
        other_errors += errors + mem_errors
        untraced = med["wall_s"] - med["setup_s"]
        metrics = tracing.layer_metrics(timed, memory, counts(wl, runner, untraced))
        share = sum(metrics[k] for k in FOCUS[wl.name]) / metrics["cli.traced_total_s"]
        report["per_layer"], report["focus_share"] = metrics, {"layers": FOCUS[wl.name], "share": share}
    report["errors"] = sorted({e for op in ops for e in op.errors}) + other_errors

    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "repro", ignore_errors=True)
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, {failed} failed; inputs {wl.params}")
    print(f"defect reproducer `run presets/example1.cfg --h 0.103`: exit code {repro.code}"
          f" (not gated) {report['defect_reproducer']['stderr'][-80:]}")
    print(f"loadavg before {load_before[0]:.2f} after {load_after[0]:.2f}"
          + ("  (contended)" if report["loadavg"]["contended"] else ""))
    print(f"medians: wall {med['wall_s']:.4f} s, cpu {med['cpu_s']:.4f} s,"
          f" reference {1000 * med['reference_s']:.2f} ms")
    if args.trace:
        print(f"focus share {'+'.join(FOCUS[wl.name])} = {share:.3f} of the traced total")
    for error in report["errors"][:10]:
        print(f"FAIL: {error}")
    print(f"report: {work / 'report.json'}")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0 and not other_errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
