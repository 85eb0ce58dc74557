"""Machine-readable outputs: long-form trajectory CSV and verdict JSON.

Floats are written with repr (the shortest string that round-trips), so
identical runs produce byte-identical files and values read back exactly.
Files are written as bytes with `\n` line ends on any platform.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import ConsensusVerdict
from .config import KEYS, ExperimentConfig
from .engine import MonteCarloSummary, Trajectory, dense_tau_grid
from .protocols import PROTOCOLS, HybridSystem

CSV_HEADER = "t,agent,value,kind,record"


def _reprs(x: np.ndarray) -> list[str]:
    """repr of every float in x, computed once per distinct bit pattern.
    Keyed on bits, not values: -0.0 == 0.0, but their reprs differ."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def trajectory_csv_lines(sys: HybridSystem, traj: Trajectory | MonteCarloSummary) -> list[str]:
    """Rows `t,agent,value,kind,record`; agent ids are 1-based as in the
    edge-list format.  Block k is the n sample rows at t_k, then the dense
    rows of interval k at t_k + tau, agent by agent; the last block has
    sample rows only.  Monte-Carlo summaries emit their mean states."""
    mc = isinstance(traj, MonteCarloSummary)
    states = traj.mean_states if mc else traj.sample_states
    dense = np.empty((0, sys.m, 0)) if mc else traj.dense
    (K, m, d), n, times = dense.shape, sys.n, traj.sample_times
    dense_t = np.arange(K)[:, None] * sys.h + dense_tau_grid(sys.h, d)  # k*h + tau
    t = _reprs(np.r_[np.hstack([np.repeat(times[:K, None], n, 1), np.tile(dense_t, m)]).ravel(),
                     np.repeat(times[K:], n)])
    value = _reprs(np.r_[np.hstack([states[:K], dense.reshape(K, m * d)]).ravel(),
                         states[K:].ravel()])
    agents = [f",{i + 1}," for i in range(n)]
    ends = [",continuous,sample"] * m + [",discrete,sample"] * (n - m)  # agents < m continuous
    tail = len(times) - K
    agent = (agents + [a for a in agents[:m] for _ in range(d)]) * K + agents * tail
    end = (ends + [",continuous,dense"] * (m * d)) * K + ends * tail
    return [CSV_HEADER, *map("".join, zip(t, agent, value, end))]


def write_trajectory_csv(
    sys: HybridSystem, traj: Trajectory | MonteCarloSummary, path: str | Path
) -> None:
    lines = trajectory_csv_lines(sys, traj)
    with open(path, "wb") as f:  # in blocks of rows: no whole-file copy of the text
        for i in range(0, len(lines), 8192):
            f.write(("\n".join(lines[i : i + 8192]) + "\n").encode())


def _finite_or_none(value: float) -> float | None:
    return value if value == value and abs(value) != float("inf") else None


def verdict_report(
    cfg: ExperimentConfig, sys: HybridSystem, verdict: ConsensusVerdict
) -> dict:
    return {
        "solvable": verdict.solvable,
        "condition": verdict.condition,
        "predicted_value": verdict.predicted_value,
        "measured_final_disagreement": verdict.measured_final_disagreement,
        "converged": verdict.converged,
        "bounds": {
            f"case{c}": _finite_or_none(spec.bound(sys)) for c, spec in PROTOCOLS.items()
        },
        "config": {
            **{key.name: getattr(cfg, key.name) for key in KEYS},
            "graph": str(cfg.graph_path),
        },
    }


def write_verdict_json(report: dict, path: str | Path) -> None:
    Path(path).write_bytes((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
