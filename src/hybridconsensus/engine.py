"""Trajectory execution: sampled-map iteration with dense intra-sample
states (cases 1-2), and the Monte-Carlo mean of seeded gossip runs (case 3).

Randomness comes from numpy's PCG64 generator so that a (seed, trial)
pair reproduces a trajectory bit-for-bit on any platform.  Gossip edges
are drawn by inverse CDF over the schedule's cumulative probabilities in
sorted edge order.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .protocols import GossipSchedule, HybridSystem, pair_gains, protocol


@dataclass(frozen=True)
class RunConfig:
    """A run's counts.  Each has a floor, checked here for every caller;
    `min_trials` raises the trials floor (case 3's standard error needs two)."""

    steps: int
    dense_per_step: int = 10
    seed: int = 0
    trials: int = 1000
    min_trials: InitVar[int] = 1

    def __post_init__(self, min_trials):
        for name, floor in (("steps", 0), ("dense_per_step", 0), ("seed", 0),
                            ("trials", min_trials)):
            value = getattr(self, name)
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's sampled states, and its continuous agents' states between samples.
    Case 3 gives the mean over trials, with its standard error and no dense
    states; cases 1-2 give one run, whose standard error is zero."""

    sample_times: np.ndarray  # (K+1,)
    sample_states: np.ndarray  # (K+1, n)
    dense: np.ndarray  # (K, m, dense_per_step): agent i at t_k + dense_tau_grid[j]
    stderr: np.ndarray  # (K+1, n) standard error of the mean over trials


def dense_tau_grid(h: float, dense_per_step: int) -> np.ndarray:
    """Offsets j*h/dense_per_step, j = 1..dense_per_step; the last is exactly h."""
    return np.linspace(0.0, h, dense_per_step + 1)[1:]


def simulate_deterministic(sys: HybridSystem, case: int, cfg: RunConfig) -> Trajectory:
    """Iterate the case-1/2 sampled map on its edges; dense states of continuous agents.

    Agent i < m moves from x_k[i] along (A x_k - d x_k)[i] by the case's dense
    gain f(d_ii, tau): tau under zero-order hold, (1 - e^{-d tau}) / d when
    self-observing.  So at t_k + tau it is the blend (1 - s) x_k[i] + s x_{k+1}[i]
    of two samples, s = f(d_ii, tau) / f(d_ii, h), and exactly x_{k+1}[i] at h.
    """
    spec, n, m = protocol(case), sys.n, sys.m
    P, ii = spec.matrix(sys, None), np.arange(n)
    # one bincount a step, with the diagonal folded in last in each row
    rows, cols, vals = np.r_[P.rows, ii], np.r_[P.cols, ii], np.r_[P.vals, P.diag]
    states = np.empty((cfg.steps + 1, n))
    states[0] = sys.x0
    for k, x in enumerate(states[:-1]):
        states[k + 1] = np.bincount(rows, vals * x[cols], minlength=n)
    f = spec.dense_gain(sys.graph.in_degrees()[:m, None], dense_tau_grid(sys.h, cfg.dense_per_step))
    s = f / f[..., -1:]  # the last column is f(d_ii, h), divided by itself: s = 1 there
    dense = (1 - s) * states[:-1, :m, None]
    dense += s * states[1:, :m, None]
    return Trajectory(
        sample_times=np.arange(cfg.steps + 1) * sys.h,
        sample_states=states,
        dense=dense,
        stderr=np.broadcast_to(0.0, states.shape),  # read-only zeros, no memory
    )


def _draw_edges(sched: GossipSchedule, steps: int, seed: int) -> np.ndarray:
    u = np.random.Generator(np.random.PCG64(seed)).random(steps)
    return np.searchsorted(sched.cumulative, u, side="right")


def monte_carlo_mean(sys: HybridSystem, sched: GossipSchedule, cfg: RunConfig) -> Trajectory:
    """Empirical mean and standard error of the sampled states over
    independent gossip trials; trial r draws its edges with seed cfg.seed + r.

    The trials run side by side: each draw is applied as a two-row update
    of the (trials, n) state, and the mean and standard error over trials
    are kept per step.
    """
    if cfg.trials < 2:
        raise ValueError("monte_carlo_mean needs trials >= 2")
    gains = pair_gains(sys, sched)  # also checks the schedule and h
    # a trial or step count too large to allocate fails here, before any draw
    x = np.tile(sys.x0, (cfg.trials, 1))
    mean, stderr = np.empty((2, cfg.steps + 1, sys.n))
    choice = np.empty((cfg.steps, cfg.trials), np.intp)
    for r in range(cfg.trials):
        choice[:, r] = _draw_edges(sched, cfg.steps, cfg.seed + r)
    rows = np.arange(cfg.trials)
    for k in range(cfg.steps + 1):
        if k:
            e = choice[k - 1]
            i, j = sched.i[e], sched.j[e]
            xi, xj = x[rows, i], x[rows, j]
            x[rows, i] = xi + gains[e, 0] * (xj - xi)
            x[rows, j] = xj + gains[e, 1] * (xi - xj)
        mean[k] = x.mean(axis=0)
        stderr[k] = x.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    return Trajectory(
        sample_times=np.arange(cfg.steps + 1) * sys.h,
        sample_states=mean,
        dense=np.empty((cfg.steps, sys.m, 0)),
        stderr=stderr,
    )
