"""One-step iteration matrices and intra-sample gains for the three
consensus protocols of a hybrid (continuous/discrete) multi-agent system.

Agents 0..m-1 are continuous-time, agents m..n-1 are discrete-time; all
agents share the sampling grid t_k = k*h.

* Case 1: everyone acts on neighbour states frozen at t_k (zero-order hold);
  sampled map I - h*L.
* Case 2: continuous agents additionally observe their own state in real
  time; sampled map I - H*L with exponential gains on the continuous rows.
* Case 3: randomized gossip on a symmetric graph; at each t_k one of its
  edges (i, j), drawn with probability p_ij, interacts through a pair
  matrix Phi_ij, whose gains `pair_gains` gives; the builder returns their
  expected matrix E(Phi).

Every builder returns its matrix in edge form (see `spectral`), written from
the graph's edges.  Cases 1 and 2 share one writer of I - diag(g) L, where
L = D - A and d_ii = sum_j a_ij: g_i a_ij on the edges, and the diagonal in
closed form.

`PROTOCOLS` is the case table: for each case its sampling-period bound,
matrix builder, consensus condition and intra-sample gain.  `protocol(case)`
looks a case up and is the one place an unknown case is rejected.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AsymmetricGraph, InvalidSchedule, SamplingPeriodTooLarge, UnknownCase
from .graphs import WeightedDigraph
from .spectral import StochasticMatrix, check_stochastic


@dataclass(frozen=True, eq=False)
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
            raise ValueError(f"sampling period must be positive and finite, got {self.h}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got shape {x0.shape}")
        finite = np.isfinite(x0)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"x0 must be finite, got x0[{bad}] = {float(x0[bad])}")
        x0 = x0.copy()
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True, eq=False)
class GossipSchedule:
    """The edges of a symmetric graph with their selection probabilities.

    Edge e joins `i[e]` < `j[e]` with weight `vals[e]`: the graph's entries
    with i < j in stored order, so sorted by i, then j.  `probs` gives one
    probability per edge in that order, each in (0, 1], summing to 1.
    """

    graph: WeightedDigraph
    probs: np.ndarray
    i: np.ndarray = field(init=False, repr=False)
    j: np.ndarray = field(init=False, repr=False)
    vals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g, probs = self.graph, np.array(self.probs, dtype=float)  # a copy, made read-only
        if not g.is_symmetric:
            raise AsymmetricGraph("gossip requires a symmetric graph")
        upper = g.rows < g.cols
        if len(probs) != upper.sum():
            raise InvalidSchedule(
                f"probs must give one value for each of the graph's {upper.sum()} edges, "
                f"got {len(probs)}"
            )
        # p in (0, 1]; the single-edge schedule necessarily has p = 1.  Both
        # tests are written so that NaN, which compares False, fails them.
        if not np.all((probs > 0) & (probs <= 1)):
            raise InvalidSchedule("each probability must lie in (0, 1]")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise InvalidSchedule(f"probabilities must sum to 1, got {probs.sum()!r}")
        for name, value in (("i", g.rows[upper]), ("j", g.cols[upper]), ("vals", g.vals[upper]),
                            ("probs", probs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """The cumulative probabilities, for drawing edges by inverse CDF."""
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0  # guard against round-off in the last bin
        cum.setflags(write=False)
        return cum

    @classmethod
    def uniform(cls, graph: WeightedDigraph) -> "GossipSchedule":
        e = len(graph.vals)  # each edge twice if symmetric, so 2 / e is 1 / |E| to the bit
        return cls(graph, np.full(e // 2, 2.0 / e))


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
    return 1.0 / float(sys.graph.vals.max())  # a graph has at least one edge


def _require_h(sys: HybridSystem, bound: float, name: str) -> None:
    if not sys.h < bound:
        raise SamplingPeriodTooLarge(sys.h, bound, name)


def exp_gain(rate: np.ndarray, tau) -> np.ndarray:
    """(1 - e^{-rate*tau}) / rate elementwise, continued by its limit tau at
    rate = 0.  -expm1 keeps full precision however weak the link: 1 - exp(-x)
    keeps none of it once x is below the float spacing at 1 (~1e-16)."""
    rate = np.asarray(rate, dtype=float)
    safe = np.where(rate > 0, rate, 1.0)
    return np.where(rate > 0, -np.expm1(-safe * tau) / safe, tau)


# --- iteration matrices ------------------------------------------------------


def _sampled_map(graph: WeightedDigraph, gains: np.ndarray, diag: np.ndarray) -> StochasticMatrix:
    """I - diag(gains) * L in edge form: gains_i * a_ij on the graph's
    edges, `diag` (the closed form of 1 - gains_i * d_ii) on the diagonal."""
    vals = gains[graph.rows] * graph.vals
    return check_stochastic(StochasticMatrix(diag, graph.rows, graph.cols, vals))


def case1_matrix(sys: HybridSystem) -> StochasticMatrix:
    """Sampled map I - h*L of the zero-order-hold protocol."""
    _require_h(sys, bound_case1(sys), "bound_case1 (1/max d_ii)")
    return _sampled_map(sys.graph, np.full(sys.n, sys.h), 1.0 - sys.h * sys.graph.in_degrees())


def case2_gain(sys: HybridSystem) -> np.ndarray:
    """Read-only diagonal of the gain matrix H: exponential gains on
    continuous rows, plain h on discrete rows."""
    _require_h(sys, bound_case2(sys), "bound_case2 (1/max discrete d_ii)")
    diag = np.full(sys.n, sys.h)
    diag[: sys.m] = exp_gain(sys.graph.in_degrees()[: sys.m], sys.h)
    diag.setflags(write=False)
    return diag


def case2_matrix(sys: HybridSystem) -> StochasticMatrix:
    """Sampled map I - H*L of the self-observing protocol.

    Continuous rows are written with their exact closed form (diagonal
    e^{-d_ii h}, off-diagonal gain * a_ij): the gain satisfies
    gain * d_ii < 1 for any h, but evaluating 1 - gain * d_ii in floating
    point can underflow to 0 when d_ii * h is large (the Remark-1 regime
    where continuous in-degrees exceed 1/h).  A continuous row with d_ii = 0
    comes out as an identity row.
    """
    gains = case2_gain(sys)  # also enforces the h bound
    m, d = sys.m, sys.graph.in_degrees()
    return _sampled_map(sys.graph, gains, np.r_[np.exp(-d[:m] * sys.h), 1.0 - gains[m:] * d[m:]])


def pair_gains(sys: HybridSystem, sched: GossipSchedule) -> np.ndarray:
    """Gains (g_i, g_j) of Phi_ij, one row per scheduled edge (i, j): the pair
    update x_i += g_i (x_j - x_i), x_j += g_j (x_i - x_j) over (t_k, t_k + h].

    The factor depends on the kinds of the two endpoints:
    continuous-continuous averages symmetrically with factor
    (1 - e^{-2a h})/2, continuous-discrete mixes factors 1 - e^{-a h} and
    h*a, discrete-discrete uses h*a on both rows.  A discrete endpoint moves
    only at t_{k+1}.  Raises InvalidSchedule for a schedule built on a graph
    other than `sys.graph`, and enforces the case-3 h bound.
    """
    if sched.graph is not sys.graph:
        raise InvalidSchedule("the schedule was built on another graph than the system's")
    _require_h(sys, bound_case3(sys), "bound_case3 (1/max a_ij)")
    i, j, a, h = sched.i, sched.j, sched.vals, sys.h
    both, mixed, held = -np.expm1(-2.0 * a * h) / 2.0, -np.expm1(-a * h), h * a
    # agents 0..m-1 are continuous, so a continuous j makes i continuous too
    gi = np.where(j < sys.m, both, np.where(i < sys.m, mixed, held))
    gj = np.where(j < sys.m, both, held)
    return np.stack([gi, gj], axis=1)


def gossip_expected_matrix(sys: HybridSystem, sched: GossipSchedule) -> StochasticMatrix:
    """Probability-weighted mean of the pair matrices, E(Phi) = I + sum_ij
    p_ij (Phi_ij - I), in edge form from the pair gains: p_ij g_i at (i, j),
    p_ij g_j at (j, i).  The diagonal accumulates from 1 in edge order, the
    i-ends' -p_ij g_i first, then the j-ends' -p_ij g_j."""
    i, j = sched.i, sched.j
    g = (pair_gains(sys, sched) * sched.probs[:, None]).T
    diag = np.ones(sys.n)
    np.add.at(diag, np.r_[i, j], -np.r_[g[0], g[1]])
    rows, cols, vals = np.r_[i, j], np.r_[j, i], np.r_[g[0], g[1]]
    order = np.lexsort((cols, rows))
    return check_stochastic(StochasticMatrix(diag, rows[order], cols[order], vals[order]))


# --- the case table -----------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    """What the paper fixes for one case."""

    bound: Callable[[HybridSystem], float]  # strict sampling-period bound
    matrix: Callable[[HybridSystem, GossipSchedule | None], StochasticMatrix]
    # the consensus condition, (fails, holds): exactly one closed class of
    # the matrix, whose off-diagonal pattern is the interaction graph
    condition: tuple[str, str]
    # f(d_ii, tau): continuous agent i moves x_i += f * (A x - d x)_i by
    # t_k + tau; None for gossip, whose pairs move by `pair_gains`
    dense_gain: Callable[[np.ndarray, np.ndarray], np.ndarray] | None


def _gossip_matrix(sys: HybridSystem, sched: GossipSchedule | None) -> StochasticMatrix:
    if sched is None:
        raise ValueError("case 3 requires a gossip schedule")
    return gossip_expected_matrix(sys, sched)


_SPANNING_TREE = ("graph has no directed spanning tree", "graph has a directed spanning tree")

# The entries call the builders by their global names when called, so a
# wrapper later bound to a module attribute (a tracer, a test spy) sees it.
PROTOCOLS = {
    1: Protocol(
        lambda sys: bound_case1(sys),
        lambda sys, sched: case1_matrix(sys),
        _SPANNING_TREE,
        lambda d, tau: tau,
    ),
    2: Protocol(
        lambda sys: bound_case2(sys),
        lambda sys, sched: case2_matrix(sys),
        _SPANNING_TREE,
        lambda d, tau: exp_gain(d, tau),
    ),
    3: Protocol(
        lambda sys: bound_case3(sys),
        lambda sys, sched: _gossip_matrix(sys, sched),
        ("scheduled edges do not connect the graph", "scheduled edges connect the graph"),
        None,
    ),
}


def protocol(case: int) -> Protocol:
    """The case table's entry for `case`."""
    if case not in PROTOCOLS:
        raise UnknownCase(f"case must be 1, 2 or 3, got {case}")
    return PROTOCOLS[case]
