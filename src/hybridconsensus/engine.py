"""Trajectory execution: sampled-map iteration, dense intra-sample states,
seeded gossip runs and Monte-Carlo aggregation.

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
    drawn_edges: tuple[tuple[int, int], ...] | None = None  # gossip runs only


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


def _gossip(
    sys: HybridSystem, sched: GossipSchedule, steps: int, seed: int, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `trials` independent gossip chains side by side; trial r draws
    its edges with seed + r.  Each draw is applied as a two-row update of
    the (trials, n) state, and the mean and standard error over trials are
    kept per step.  Returns the drawn edge indices (steps, trials), the
    means and the standard errors (steps + 1, n)."""
    sched.validate_against(sys.graph)
    edges = np.array(sched.edges)
    gains = pair_gains(sys, sched.edges, sys.h)  # also enforces the h bound
    choice = np.stack([_draw_edges(sched, steps, seed + r) for r in range(trials)], axis=1)
    x = np.tile(sys.x0, (trials, 1))
    rows = np.arange(trials)
    mean = np.empty((steps + 1, sys.n))
    stderr = np.zeros((steps + 1, sys.n))
    for k in range(steps + 1):
        if k:
            e = choice[k - 1]
            i, j = edges[e, 0], edges[e, 1]
            xi, xj = x[rows, i], x[rows, j]
            x[rows, i] = xi + gains[e, 0] * (xj - xi)
            x[rows, j] = xj + gains[e, 1] * (xi - xj)
        mean[k] = x.mean(axis=0)
        if trials > 1:
            stderr[k] = x.std(axis=0, ddof=1) / math.sqrt(trials)
    return choice, mean, stderr


def simulate_gossip(
    sys: HybridSystem, sched: GossipSchedule, cfg: RunConfig
) -> Trajectory:
    """One seeded gossip run: at each t_k a single edge is drawn i.i.d. and
    its pair matrix applied; everyone else holds state.  Between samples
    only the drawn endpoints move, so only their dense states change."""
    choice, states, _ = _gossip(sys, sched, cfg.steps, cfg.seed, trials=1)
    choice = choice[:, 0]
    edges = np.array(sched.edges)[choice]  # (K, 2)
    x = states[:-1]
    dense = np.repeat(x[:, : sys.m, None], cfg.dense_per_step, axis=2)
    for col, tau in enumerate(dense_tau_grid(sys.h, cfg.dense_per_step)):
        g = pair_gains(sys, sched.edges, tau)[choice]  # (K, 2) drawn endpoints' gains
        for end in (0, 1):
            k = np.flatnonzero(edges[:, end] < sys.m)  # steps moving a continuous agent
            i, j = edges[k, end], edges[k, 1 - end]
            dense[k, i, col] = x[k, i] + g[k, end] * (x[k, j] - x[k, i])
    return Trajectory(
        sample_times=np.arange(cfg.steps + 1) * sys.h,
        sample_states=states,
        dense=dense,
        drawn_edges=tuple(sched.edges[c] for c in choice),
    )


def monte_carlo_mean(
    sys: HybridSystem, sched: GossipSchedule, cfg: RunConfig
) -> MonteCarloSummary:
    """Empirical mean and standard error of the sampled states over
    independent gossip trials; trial r runs with seed cfg.seed + r."""
    if cfg.trials < 2:
        raise ValueError("monte_carlo_mean needs trials >= 2")
    _, mean, stderr = _gossip(sys, sched, cfg.steps, cfg.seed, cfg.trials)
    return MonteCarloSummary(
        sample_times=np.arange(cfg.steps + 1) * sys.h, mean_states=mean, stderr=stderr
    )
