"""Trajectory execution: sampled-map iteration, with the blend weights that
give the intra-sample states from two consecutive samples (cases 1-2), and
the Monte-Carlo mean of seeded gossip runs, with its standard error at the
last step (case 3).

Randomness comes from numpy's PCG64 generator so that a (seed, trial)
pair reproduces a trajectory bit-for-bit on any platform.  `monte_carlo_mean`
is the one place gossip edges are drawn: by inverse CDF over the cumulative
probabilities of the system's schedule, in sorted edge order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsensusError
from .protocols import HybridSystem, case_matrix, gains, pair_gains
from .spectral import _edge_product


class RunConfig:
    """A run's counts and its convergence tolerance, checked here for every
    caller: `tol` must be positive and finite, and each count has a floor;
    `trials` needs two in every case, for case 3's standard error.
    The class attributes are the config keys' defaults."""

    steps, dense_per_step, seed, trials, tol = 200, 10, 0, 1000, 1e-8

    def __init__(self, steps: int, dense_per_step: int = dense_per_step, seed: int = seed,
                 trials: int = trials, tol: float = tol):
        if not (tol > 0 and math.isfinite(tol)):
            raise ConsensusError(f"tol must be positive and finite, got {tol}")
        for name, value, floor in (("steps", steps, 0), ("dense_per_step", dense_per_step, 0),
                                   ("seed", seed, 0), ("trials", trials, 2)):
            if value < floor:
                raise ConsensusError(f"{name} must be >= {floor}, got {value}")
        self.steps, self.dense_per_step = steps, dense_per_step
        self.seed, self.trials, self.tol = seed, trials, tol


class Trajectory:
    """A run's sampled states, and the weights that blend two of them into a
    continuous agent's state between samples: agent i < m at t_k + dense_tau_grid[j]
    is (1 - s) x_k[i] + s x_{k+1}[i], s = blend[i, j].  Case 3 gives the mean over
    trials, with the final step's standard error and no blend columns; cases 1-2
    give one run, whose standard error is zero."""

    def __init__(self, sample_states: np.ndarray, blend: np.ndarray, stderr: np.ndarray):
        self.sample_states = sample_states  # (K+1, n): state k at t_k = k*h
        self.blend = blend  # (m, dense_per_step): s; the last column is 1 exactly
        self.stderr = stderr  # (n,) standard error of the mean over trials at t_K


def dense_tau_grid(h: float, dense_per_step: int) -> np.ndarray:
    """Offsets j*h/dense_per_step, j = 1..dense_per_step; the last is exactly h."""
    return np.linspace(0.0, h, dense_per_step + 1)[1:]


def simulate_deterministic(sys: HybridSystem, case: int, cfg: RunConfig) -> Trajectory:
    """Iterate the case-1/2 sampled map on its edges; blend weights of continuous agents.

    Agent i < m moves from x_k[i] along (A x_k - d x_k)[i] by its gain
    f = `gains(sys, case, tau)`: tau under zero-order hold, (1 - e^{-d tau}) / d
    when self-observing.  So at t_k + tau it is the blend (1 - s) x_k[i] + s x_{k+1}[i]
    of two samples, s = f(d_ii, tau) / f(d_ii, h), and exactly x_{k+1}[i] at h.
    """
    # the blend gains first: they reject case 3, which has no sampled map, before any step
    f = gains(sys, case, dense_tau_grid(sys.h, cfg.dense_per_step))[: sys.m]
    P = case_matrix(sys, case)
    states = np.empty((cfg.steps + 1, sys.n))
    states[0] = sys.x0
    for k, x in enumerate(states[:-1]):
        states[k + 1] = _edge_product(P.rows, P.cols, P.vals, x)
    s = f / f[:, -1:]  # the last column is f(d_ii, h), divided by itself: s = 1 there
    return Trajectory(sample_states=states, blend=s, stderr=np.zeros(sys.n))


def monte_carlo_mean(sys: HybridSystem, cfg: RunConfig) -> Trajectory:
    """Empirical mean of the sampled states over independent gossip trials
    on the system's schedule, and its standard error at the last step.  Trial
    r draws its edges from PCG64(cfg.seed + r): each uniform u picks the first
    edge whose cumulative probability exceeds u, the last cumulative value taken as 1.

    The trials run side by side: each draw is applied as a two-row update
    of the (trials, n) state, and the mean over trials is kept per step.
    """
    gains, sched = pair_gains(sys), sys.schedule  # pair_gains checks the schedule and h
    # a trial or step count too large to allocate fails here, before any draw
    x = np.tile(sys.x0, (cfg.trials, 1))
    mean = np.empty((cfg.steps + 1, sys.n))
    # the draws are the run's largest array: one byte each up to 256 edges, not np.intp's eight
    choice = np.empty((cfg.steps, cfg.trials), np.min_scalar_type(len(sched.probs) - 1))
    cumulative = np.cumsum(sched.probs)
    cumulative[-1] = 1.0  # guard against round-off in the last bin
    for r in range(cfg.trials):
        u = np.random.Generator(np.random.PCG64(cfg.seed + r)).random(cfg.steps)
        choice[:, r] = np.searchsorted(cumulative, u, side="right")
    rows = np.arange(cfg.trials)
    mean[0] = x.mean(axis=0)
    for k, e in enumerate(choice, start=1):
        i, j = sched.i[e], sched.j[e]
        xi, xj = x[rows, i], x[rows, j]
        x[rows, i] = xi + gains[e, 0] * (xj - xi)
        x[rows, j] = xj + gains[e, 1] * (xi - xj)
        mean[k] = x.mean(axis=0)
    return Trajectory(
        sample_states=mean,
        blend=np.empty((sys.m, 0)),
        # hypot sums the squared deviations scaled, so the error is finite when the states are
        stderr=np.hypot.reduce(x - mean[-1], axis=0) / math.sqrt((cfg.trials - 1) * cfg.trials),
    )
