"""Machine-readable outputs: long-form trajectory CSV and verdict JSON.

Floats are serialized with repr, so identical runs produce byte-identical
files and values round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analysis import ConsensusVerdict
from .config import KEYS, ExperimentConfig
from .engine import MonteCarloSummary, Trajectory, dense_tau_grid
from .protocols import PROTOCOLS, HybridSystem

CSV_HEADER = "t,agent,value,kind,record"


def _kind(sys: HybridSystem, agent: int) -> str:
    return "continuous" if sys.is_continuous(agent) else "discrete"


def trajectory_csv_lines(sys: HybridSystem, traj: Trajectory | MonteCarloSummary) -> list[str]:
    """Rows `t,agent,value,kind,record`; agent ids are 1-based as in the
    edge-list format.  Sample block k is followed by the dense rows of
    interval k, at t_k + tau.  Monte-Carlo summaries emit their mean states."""
    lines = [CSV_HEADER]
    if isinstance(traj, MonteCarloSummary):
        states, dense, taus = traj.mean_states, [], []
    else:
        states, dense = traj.sample_states, traj.dense.tolist()
        taus = dense_tau_grid(sys.h, traj.dense.shape[2]).tolist()
    kinds = [_kind(sys, agent) for agent in range(sys.n)]
    for k, (t, row) in enumerate(zip(traj.sample_times.tolist(), states.tolist())):
        for agent, value in enumerate(row):
            lines.append(f"{t!r},{agent + 1},{value!r},{kinds[agent]},sample")
        if k < len(dense):
            for agent, values in enumerate(dense[k]):
                for tau, value in zip(taus, values):
                    lines.append(f"{k * sys.h + tau!r},{agent + 1},{value!r},{kinds[agent]},dense")
    return lines


def write_trajectory_csv(
    sys: HybridSystem, traj: Trajectory | MonteCarloSummary, path: str | Path
) -> None:
    Path(path).write_text("\n".join(trajectory_csv_lines(sys, traj)) + "\n")


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
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
