"""One-step iteration matrices and intra-sample closed forms for the three
consensus protocols of a hybrid (continuous/discrete) multi-agent system.

Agents 0..m-1 are continuous-time, agents m..n-1 are discrete-time; all
agents share the sampling grid t_k = k*h.

* Case 1: everyone acts on neighbour states frozen at t_k (zero-order hold);
  sampled map I - h*L.
* Case 2: continuous agents additionally observe their own state in real
  time; sampled map I - H*L with exponential gains on the continuous rows.
* Case 3: randomized gossip on a symmetric graph; at each t_k a single edge
  interacts through a pair matrix Phi_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricGraph,
    InvalidSchedule,
    NotAnEdge,
    NotContinuousAgent,
    OutOfWindow,
    SamplingPeriodTooLarge,
)
from .graphs import WeightedDigraph, build_matrices
from .spectral import StochasticMatrix, check_stochastic


@dataclass(frozen=True)
class HybridSystem:
    """Graph, agent-kind split, sampling period and initial state."""

    graph: WeightedDigraph
    m: int  # agents 0..m-1 continuous, m..n-1 discrete
    h: float
    x0: np.ndarray

    def __post_init__(self):
        n = self.graph.n
        if not 0 <= self.m <= n:
            raise ValueError(f"m must lie in [0, {n}], got {self.m}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"sampling period must be positive, got {self.h}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got shape {x0.shape}")
        x0 = x0.copy()
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.graph.n

    def is_continuous(self, i: int) -> bool:
        return 0 <= i < self.m


@dataclass(frozen=True)
class GossipSchedule:
    """Edges of a symmetric graph with their selection probabilities."""

    edges: tuple[tuple[int, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        if len(edges) != len(probs):
            raise InvalidSchedule("edges and probs must have equal length")
        if len(edges) == 0:
            raise InvalidSchedule("schedule must list at least one edge")
        if any(not i < j for i, j in edges):
            raise InvalidSchedule("edges must be ordered pairs (i, j) with i < j")
        if len(set(edges)) != len(edges):
            raise InvalidSchedule("duplicate edge in schedule")
        # p in (0, 1]; the single-edge schedule necessarily has p = 1.
        if np.any(probs <= 0) or np.any(probs > 1):
            raise InvalidSchedule("each probability must lie in (0, 1]")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidSchedule(f"probabilities must sum to 1, got {probs.sum()!r}")
        order = sorted(range(len(edges)), key=lambda k: edges[k])
        edges = tuple(edges[k] for k in order)
        probs = probs[order].copy()
        probs.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, graph: WeightedDigraph) -> "GossipSchedule":
        edges = graph.edges()
        if not edges:
            raise InvalidSchedule("graph has no edges")
        return cls(tuple(edges), np.full(len(edges), 1.0 / len(edges)))

    def validate_against(self, graph: WeightedDigraph) -> None:
        if not graph.is_symmetric():
            raise AsymmetricGraph("gossip requires a symmetric graph")
        for i, j in self.edges:
            if not (0 <= i < graph.n and 0 <= j < graph.n) or graph.weights[i, j] <= 0:
                raise InvalidSchedule(f"({i}, {j}) is not an edge of the graph")


# --- sampling-period bounds --------------------------------------------------


def bound_case1(sys: HybridSystem) -> float:
    """Strict bound 1 / max_i d_ii."""
    dmax = float(sys.graph.in_degrees().max())
    return 1.0 / dmax if dmax > 0 else math.inf


def bound_case2(sys: HybridSystem) -> float:
    """Strict bound 1 / max over *discrete* agents' d_ii; +inf when m = n
    or no discrete agent has neighbours (continuous gains self-limit)."""
    if sys.m == sys.n:
        return math.inf
    dmax = float(sys.graph.in_degrees()[sys.m:].max())
    return 1.0 / dmax if dmax > 0 else math.inf


def bound_case3(sys: HybridSystem) -> float:
    """Strict bound 1 / max_ij a_ij."""
    amax = float(sys.graph.weights.max())
    return 1.0 / amax if amax > 0 else math.inf


def _require_h(sys: HybridSystem, bound: float, name: str) -> None:
    if not sys.h < bound:
        raise SamplingPeriodTooLarge(sys.h, bound, name)


def _exp_gain(d: float, tau: float) -> float:
    """(1 - e^{-d*tau}) / d, continued by its limit tau at d = 0."""
    return (1.0 - math.exp(-d * tau)) / d if d > 0 else tau


# --- iteration matrices ------------------------------------------------------


def iteration_matrix(graph: WeightedDigraph, gains: np.ndarray) -> StochasticMatrix:
    """I - diag(gains) * L for gains 0 < h_i < 1/d_ii (h_i arbitrary positive
    when d_ii = 0); stochastic with positive diagonal by construction."""
    gains = np.asarray(gains, dtype=float)
    d = graph.in_degrees()
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    bad = np.nonzero((d > 0) & (gains * d >= 1.0))[0]
    if bad.size:
        i = int(bad[0])
        raise SamplingPeriodTooLarge(float(gains[i]), 1.0 / float(d[i]), f"1/d_{i}{i}")
    L = build_matrices(graph).laplacian
    return check_stochastic(np.eye(graph.n) - gains[:, None] * L)


def case1_matrix(sys: HybridSystem) -> StochasticMatrix:
    """Sampled map I - h*L of the zero-order-hold protocol."""
    _require_h(sys, bound_case1(sys), "bound_case1 (1/max d_ii)")
    return iteration_matrix(sys.graph, np.full(sys.n, sys.h))


def case2_gain(sys: HybridSystem) -> np.ndarray:
    """Read-only diagonal of the gain matrix H: exponential gains on
    continuous rows, plain h on discrete rows."""
    _require_h(sys, bound_case2(sys), "bound_case2 (1/max discrete d_ii)")
    d = sys.graph.in_degrees()
    diag = np.full(sys.n, sys.h)
    for i in range(sys.m):
        diag[i] = _exp_gain(float(d[i]), sys.h)
    diag.setflags(write=False)
    return diag


def case2_matrix(sys: HybridSystem) -> StochasticMatrix:
    """Sampled map I - H*L of the self-observing protocol.

    Continuous rows are written with their exact closed form (diagonal
    e^{-d_ii h}, off-diagonal gain * a_ij): the gain satisfies
    gain * d_ii < 1 for any h, but evaluating 1 - gain * d_ii in floating
    point can underflow to 0 when d_ii * h is large (the Remark-1 regime
    where continuous in-degrees exceed 1/h).
    """
    gains = case2_gain(sys)  # also enforces the h bound
    d = sys.graph.in_degrees()
    L = build_matrices(sys.graph).laplacian
    M = np.eye(sys.n) - gains[:, None] * L
    for i in range(sys.m):
        if d[i] > 0:
            M[i] = gains[i] * sys.graph.weights[i]
            M[i, i] = math.exp(-d[i] * sys.h)
    return check_stochastic(M)


def pair_gains(sys: HybridSystem, edges, tau: float) -> np.ndarray:
    """Gains (g_i, g_j), one row per edge (i, j) with i < j, of the pair
    update x_i += g_i (x_j - x_i), x_j += g_j (x_i - x_j) over the window
    (t_k, t_k + tau]; Phi_ij takes tau = h.

    The factor depends on the kinds of the two endpoints:
    continuous-continuous averages symmetrically with factor
    (1 - e^{-2a tau})/2, continuous-discrete mixes factors 1 - e^{-a tau}
    and h*a, discrete-discrete uses h*a on both rows.  A discrete endpoint
    moves only at t_{k+1}.  Enforces the case-3 h bound.
    """
    _require_h(sys, bound_case3(sys), "bound_case3 (1/max a_ij)")
    gains = np.empty((len(edges), 2))
    for row, (i, j) in enumerate(edges):
        a = float(sys.graph.weights[i, j])
        if sys.is_continuous(j):  # agents 0..m-1 are continuous, so i < j is too
            gains[row] = (1.0 - math.exp(-2.0 * a * tau)) / 2.0
        elif sys.is_continuous(i):
            gains[row] = 1.0 - math.exp(-a * tau), sys.h * a
        else:
            gains[row] = sys.h * a
    return gains


def gossip_pair_matrix(sys: HybridSystem, i: int, j: int) -> StochasticMatrix:
    """Pair interaction matrix Phi_ij; rows other than i, j are identity."""
    if not sys.graph.is_symmetric():
        raise AsymmetricGraph("gossip requires a symmetric graph")
    if not 0 <= i < j < sys.n:
        raise NotAnEdge(f"need 0 <= i < j < n, got ({i}, {j})")
    if sys.graph.weights[i, j] <= 0:
        raise NotAnEdge(f"({i}, {j}) carries zero weight")
    gi, gj = pair_gains(sys, [(i, j)], sys.h)[0]
    phi = np.eye(sys.n)
    phi[i, i] -= gi
    phi[i, j] += gi
    phi[j, j] -= gj
    phi[j, i] += gj
    return check_stochastic(phi)


def gossip_expected_matrix(sys: HybridSystem, sched: GossipSchedule) -> StochasticMatrix:
    """Probability-weighted mean of the pair matrices, E(Phi) = I + sum_ij
    p_ij (Phi_ij - I), scattered in one pass from the pair gains."""
    sched.validate_against(sys.graph)
    i, j = np.array(sched.edges).T
    g = (pair_gains(sys, sched.edges, sys.h) * sched.probs[:, None]).T
    expected = np.eye(sys.n)
    np.add.at(expected, (np.r_[i, i, j, j], np.r_[i, j, j, i]), np.r_[-g[0], g[0], -g[1], g[1]])
    return check_stochastic(expected)


# --- intra-sample closed forms ----------------------------------------------


def _check_window(sys: HybridSystem, tau: float) -> None:
    if not 0.0 < tau <= sys.h:
        raise OutOfWindow(f"tau = {tau} outside (0, {sys.h}]")


def continuous_interpolant(
    case: int, sys: HybridSystem, x_k: np.ndarray, i: int, tau: float
) -> float:
    """State of continuous agent i at t_k + tau under case 1 or 2.

    Case 1 drifts linearly toward the frozen neighbour mix; case 2 relaxes
    exponentially toward it.  At tau = h both coincide with row i of the
    corresponding one-step matrix.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    if not sys.is_continuous(i):
        raise NotContinuousAgent(f"agent {i} is discrete (m = {sys.m})")
    _check_window(sys, tau)
    x_k = np.asarray(x_k, dtype=float)
    a_row = sys.graph.weights[i]
    pull = float(a_row @ (x_k - x_k[i]))
    if case == 1:
        factor = tau
    else:
        factor = _exp_gain(float(a_row.sum()), tau)
    return float(x_k[i] + factor * pull)


def gossip_interpolant(
    sys: HybridSystem,
    x_k: np.ndarray,
    selected: tuple[int, int] | None,
    i: int,
    tau: float,
) -> float:
    """State of continuous agent i at t_k + tau during a gossip interval.

    A participating agent relaxes toward its partner with weight beta:
    (1 + e^{-2a tau})/2 for a continuous partner, e^{-a tau} for a
    discrete one.  Unselected agents hold their sampled state.
    """
    if not sys.is_continuous(i):
        raise NotContinuousAgent(f"agent {i} is discrete (m = {sys.m})")
    _check_window(sys, tau)
    x_k = np.asarray(x_k, dtype=float)
    if selected is None or i not in selected:
        return float(x_k[i])
    a, b = selected
    partner = b if i == a else a
    w = float(sys.graph.weights[i, partner])
    if w <= 0:
        raise NotAnEdge(f"selected pair ({a}, {b}) is not an edge")
    if sys.is_continuous(partner):
        beta = (1.0 + math.exp(-2.0 * w * tau)) / 2.0
    else:
        beta = math.exp(-w * tau)
    return float(beta * x_k[i] + (1.0 - beta) * x_k[partner])
