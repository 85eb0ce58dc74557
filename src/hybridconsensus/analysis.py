"""Consensus solvability decisions, spectral value prediction, and
convergence measurement of produced trajectories."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .engine import RunConfig, Trajectory, monte_carlo_mean, simulate_deterministic
from .protocols import HybridSystem, bound, case_matrix, protocol
from .spectral import left_eigenvector


class ConsensusVerdict(NamedTuple):
    solvable: bool
    condition: str
    predicted_value: float | None
    measured_final_disagreement: float | None
    converged: bool


def decide(sys: HybridSystem, case: int) -> ConsensusVerdict:
    """Solvability and spectrally predicted consensus value (no simulation).

    The case's iteration (or expected) matrix P links i to j exactly where
    i hears j (in case 3: over a scheduled edge).  Consensus is solvable
    exactly when P has one closed class: a directed spanning tree in cases
    1-2, scheduled edges that connect the graph in case 3.  That is when the
    left Perron vector nu of P is unique, and the predicted value is nu^T x0;
    otherwise `left_eigenvector` gives None and the verdict is not solvable.
    The class must also be aperiodic, or P's powers cycle: a positive
    diagonal makes it so, unless e^{-d_ii h} underflows to 0 (Remark 1).
    """
    perron = left_eigenvector(case_matrix(sys, case))  # also enforces the h bound
    solvable = perron is not None and perron.period == 1
    holds = protocol(case).condition[solvable]
    if perron is not None and not solvable:
        holds = f"the root class is periodic, with period {perron.period}"
    condition = f"{holds}; h = {sys.h} < bound = {bound(sys, case)}"
    value = float(perron.nu @ sys.x0) if solvable else None
    return ConsensusVerdict(solvable, condition, value, None, False)


def verify_run(sys: HybridSystem, case: int, cfg: RunConfig) -> tuple[ConsensusVerdict, Trajectory]:
    """Simulate and fill in the measured half of the verdict.

    The measured disagreement is max_i x_i - min_i x_i at the last sampled
    instant (of the mean states in case 3).  converged requires both it and
    the per-agent gap to the predicted value to fall below cfg.tol, widened by
    the 4-standard-error band of the final Monte-Carlo mean (zero in cases 1-2).
    """
    verdict = decide(sys, case)
    if case == 3:
        traj = monte_carlo_mean(sys, cfg)
    else:
        traj = simulate_deterministic(sys, case, cfg)
    final = traj.sample_states[-1]
    measured = float(final.max()) - float(final.min())  # np.ptp's bits, or inf without a warning
    converged = False
    if verdict.solvable:
        slack = 4.0 * traj.stderr  # no gap is taken when the spread fails, as an infinite one does
        converged = bool(measured < cfg.tol + float(slack.max())
                         and np.all(np.abs(final - verdict.predicted_value) < cfg.tol + slack))
    verdict = verdict._replace(measured_final_disagreement=measured, converged=converged)
    return verdict, traj
