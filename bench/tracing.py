"""Traced in-process run of one CLI operation, and the per-layer metrics.

    python3 bench/tracing.py OUT.json [--memory] -- run CONFIG --out DIR

Imports ``hybridconsensus.cli`` (timing the import), then replaces every
public function of every package module with a wrapper that records a
span (name, start, end, parent).  Each wrapper is installed under every
module attribute bound to that function, because callers resolve the
names they imported at call time: ``cli.verify_run``,
``analysis.monte_carlo_mean``, ``protocols.check_stochastic``,
``engine.gossip_pair_matrix`` and so on.  The spans therefore nest the
way the CLI calls them.  Nothing in the package's sources is edited.

The scalar interpolants are left unwrapped: they run once per dense
point, and a span each would cost more than the work it times.

With ``--memory`` no spans are kept; instead tracemalloc runs only
inside the engine and CSV-writing calls and records their peak
allocation, so its overhead never reaches the timed spans.

Spans stay in memory and are written to OUT.json when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNTRACED = {"continuous_interpolant", "gossip_interpolant"}
MEMORY_SPANS = {
    "engine.simulate_deterministic": "engine",
    "engine.simulate_gossip": "engine",
    "engine.monte_carlo_mean": "engine",
    "reporting.write_trajectory_csv": "reporting",
}
#: return-value fields kept from a span, by span name
RESULTS = {"spectral.left_eigenvector": lambda r: float(r.residual)}


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.results: dict[str, float] = {}
        self.peaks: dict[str, int] = {}

    def wrap(self, name: str, fn):
        if self.memory:
            return self._wrap_memory(name, fn) if name in MEMORY_SPANS else fn
        spans, stack, keep = self.spans, self.stack, RESULTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if keep is not None:
                self.results[name] = keep(result)
            return result

        return traced

    def _wrap_memory(self, name: str, fn):
        layer = MEMORY_SPANS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[layer] = max(self.peaks.get(layer, 0), peak)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("hybridconsensus")]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    memory = "--memory" in argv[1 : argv.index("--")]
    cli_argv = argv[argv.index("--") + 1 :]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hybridconsensus.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer(memory)
    tracer.install()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(cli_argv)
    out.write_text(json.dumps({
        "import_s": import_s, "exit_code": code, "stdout": stdout.getvalue(),
        "spans": tracer.spans, "results": tracer.results, "peaks": tracer.peaks,
    }))
    return 0


# --- per-layer metrics from the spans ---------------------------------------


class Spans:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for idx, (_, _, _, parent) in enumerate(spans):
            self.children.setdefault(parent, []).append(idx)

    def dur(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def named(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def total(self, *names: str) -> float:
        """Summed duration of the named spans not nested in one another."""
        picked = set(self.named(*names))
        return sum(self.dur(i) for i in picked if not self._inside(i, picked))

    def self_time(self, *names: str) -> float:
        return sum(self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))
                   for i in self.named(*names))

    def _inside(self, idx: int, picked: set[int]) -> bool:
        parent = self.spans[idx][3]
        while parent != -1:
            if parent in picked:
                return True
            parent = self.spans[parent][3]
        return False


MB = 2.0**20


def layer_metrics(timed: dict, memory: dict | None, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.  `counts` holds the values the
    benchmark computes from the workload and its oracle."""
    s = Spans(timed["spans"])
    (root,) = s.named("cli.main")
    total = s.dur(root)
    others = sum(s.dur(c) for c in s.children.get(root, ()) if not s.spans[c][0].startswith("cli."))
    peaks = memory["peaks"] if memory else {}
    return {
        "engine.monte_carlo_mean_s": s.total("engine.monte_carlo_mean"),
        "engine.peak_alloc_mb": peaks.get("engine", 0) / MB,
        "engine.state_bytes": counts["state_bytes"],
        "engine.simulate_deterministic_s": s.total("engine.simulate_deterministic"),
        "engine.dense_points": counts["dense_points"],
        "engine.matvecs": counts["matvecs"],
        "reporting.csv_lines_s": s.total("reporting.trajectory_csv_lines"),
        "reporting.write_csv_s": s.self_time("reporting.write_trajectory_csv"),
        "reporting.csv_rows": counts["csv_rows"],
        "reporting.csv_bytes": counts["csv_bytes"],
        "reporting.peak_alloc_mb": peaks.get("reporting", 0) / MB,
        "reporting.verdict_s": s.total("reporting.verdict_report", "reporting.write_verdict_json"),
        "spectral.left_eigenvector_s": s.total("spectral.left_eigenvector"),
        "graphs.structure_s": s.total("graphs.has_spanning_tree", "graphs.is_connected_undirected"),
        "graphs.roots_tried": counts["roots_tried"],
        "protocols.case_matrix_s": s.total(
            "protocols.case1_matrix", "protocols.case2_matrix", "protocols.gossip_expected_matrix"),
        "protocols.pair_matrix_calls": len(s.named("protocols.gossip_pair_matrix")),
        "spectral.check_stochastic_s": s.total("spectral.check_stochastic"),
        "spectral.check_stochastic_calls": len(s.named("spectral.check_stochastic")),
        "analysis.decide_s": s.total("analysis.decide"),
        "analysis.decide_self_s": s.self_time("analysis.decide"),
        "analysis.verify_run_self_s": s.self_time("analysis.verify_run"),
        "config.load_config_s": s.total("config.load_config"),
        "cli.import_s": timed["import_s"],
        "cli.self_s": total - others,
        "cli.traced_total_s": total,
        "cli.trace_overhead_ratio": total / max(counts["untraced_compute_s"], 1e-9),
        "spectral.nu_residual": timed["results"].get("spectral.left_eigenvector", 0.0),
        "spectral.nu_err": counts["nu_err"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
