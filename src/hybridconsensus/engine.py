"""Trajectory execution: sampled-map iteration with dense intra-sample
states (cases 1-2), and the Monte-Carlo mean of seeded gossip runs (case 3).

Randomness comes from numpy's PCG64 generator so that a (seed, trial)
pair reproduces a trajectory bit-for-bit on any platform.  Gossip edges
are drawn by inverse CDF over the schedule's cumulative probabilities in
sorted edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import GossipSchedule, HybridSystem, pair_gains, protocol


@dataclass(frozen=True)
class RunConfig:
    steps: int
    dense_per_step: int = 10
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.dense_per_step < 0:
            raise ValueError("dense_per_step must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    sample_times: np.ndarray  # (K+1,)
    sample_states: np.ndarray  # (K+1, n)
    dense: np.ndarray  # (K, m, dense_per_step): agent i at t_k + dense_tau_grid[j]


@dataclass(frozen=True)
class MonteCarloSummary:
    sample_times: np.ndarray
    mean_states: np.ndarray  # (K+1, n) empirical mean over trials
    stderr: np.ndarray  # (K+1, n) standard error of the mean


def dense_tau_grid(h: float, dense_per_step: int) -> np.ndarray:
    """Offsets j*h/dense_per_step, j = 1..dense_per_step; the last is exactly h."""
    return np.linspace(0.0, h, dense_per_step + 1)[1:]


def simulate_deterministic(sys: HybridSystem, case: int, cfg: RunConfig) -> Trajectory:
    """Iterate the case-1/2 sampled map; dense states of continuous agents.

    Agent i < m drifts from x_k[i] along (A x_k - d x_k)[i] by the case's
    dense gain f(d_ii, tau): tau under zero-order hold, (1 - e^{-d tau}) / d
    when self-observing.
    """
    spec = protocol(case)
    M = spec.matrix(sys, None).entries
    states = np.empty((cfg.steps + 1, sys.n))
    states[0] = sys.x0
    for k in range(cfg.steps):
        states[k + 1] = M @ states[k]
    a = sys.graph.weights[: sys.m]
    d = a.sum(axis=1)
    f = spec.dense_gain(d[:, None], dense_tau_grid(sys.h, cfg.dense_per_step))
    x = states[:-1]
    pull = x @ a.T - x[:, : sys.m] * d  # (K, m)
    return Trajectory(
        sample_times=np.arange(cfg.steps + 1) * sys.h,
        sample_states=states,
        dense=x[:, : sys.m, None] + f * pull[:, :, None],
    )


def _draw_edges(sched: GossipSchedule, steps: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(sched.probs)
    cum[-1] = 1.0  # guard against round-off in the last bin
    u = rng.random(steps)
    return np.searchsorted(cum, u, side="right")


def monte_carlo_mean(
    sys: HybridSystem, sched: GossipSchedule, cfg: RunConfig
) -> MonteCarloSummary:
    """Empirical mean and standard error of the sampled states over
    independent gossip trials; trial r draws its edges with seed cfg.seed + r.

    The trials run side by side: each draw is applied as a two-row update
    of the (trials, n) state, and the mean and standard error over trials
    are kept per step.
    """
    if cfg.trials < 2:
        raise ValueError("monte_carlo_mean needs trials >= 2")
    sched.validate_against(sys.graph)
    edges = np.array(sched.edges)
    gains = pair_gains(sys, sched.edges, sys.h)  # also enforces the h bound
    choice = np.stack(
        [_draw_edges(sched, cfg.steps, cfg.seed + r) for r in range(cfg.trials)], axis=1
    )
    x = np.tile(sys.x0, (cfg.trials, 1))
    rows = np.arange(cfg.trials)
    mean = np.empty((cfg.steps + 1, sys.n))
    stderr = np.empty((cfg.steps + 1, sys.n))
    for k in range(cfg.steps + 1):
        if k:
            e = choice[k - 1]
            i, j = edges[e, 0], edges[e, 1]
            xi, xj = x[rows, i], x[rows, j]
            x[rows, i] = xi + gains[e, 0] * (xj - xi)
            x[rows, j] = xj + gains[e, 1] * (xi - xj)
        mean[k] = x.mean(axis=0)
        stderr[k] = x.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    return MonteCarloSummary(
        sample_times=np.arange(cfg.steps + 1) * sys.h, mean_states=mean, stderr=stderr
    )
