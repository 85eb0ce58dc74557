"""One-step iteration matrices and intra-sample gains for the three
consensus protocols of a hybrid (continuous/discrete) multi-agent system.

Agents 0..m-1 are continuous-time, agents m..n-1 are discrete-time; all
agents share the sampling grid t_k = k*h.

* Cases 1 and 2 share one sampled map, I - H*L, and one bound on h.  They
  differ only in which agents observe their own state between samples, and
  so get exponential gains: none in case 1 (zero-order hold, H = h*I), the
  continuous agents in case 2.  `_observers` is the one place that tells
  the two cases apart.
* Case 3: randomized gossip on a symmetric graph; at each t_k one of its
  edges (i, j), drawn with probability p_ij, interacts through a pair
  matrix Phi_ij, whose gains `pair_gains` gives; `case_matrix` returns
  their expected matrix E(Phi).

`case_matrix` writes the off-diagonal entries from the graph's edges, and
the diagonal; the `StochasticMatrix` constructor folds the two into its
edge form and checks the result.  Cases 1 and 2 write I - diag(g) L, where
L = D - A and d_ii = sum_j a_ij: g_i a_ij on the edges, the diagonal in
closed form.

`PROTOCOLS` is the case table: for each case the name of its
sampling-period bound and its consensus condition.  `protocol(case)` looks
a case up and is the one place an unknown case is rejected.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsensusError
from .graphs import WeightedDigraph
from .spectral import StochasticMatrix


class HybridSystem:
    """Graph, agent-kind split (agents 0..m-1 continuous, m..n-1 discrete),
    sampling period and initial state, held as a read-only copy, and case 3's
    gossip `schedule` on the graph, built from `probs` (None without them)."""

    def __init__(self, graph: WeightedDigraph, m: int, h: float, x0: np.ndarray, probs=None):
        n, x0 = graph.n, np.array(x0, dtype=float)
        if x0.ndim != 1:
            raise ConsensusError(f"x0 must be a vector, got shape {x0.shape}")
        if len(x0) != n:
            raise ConsensusError(f"x0 has length {len(x0)}, graph has n = {n}")
        if not 0 <= m <= n:
            raise ConsensusError(f"m must lie in [0, {n}], got {m}")
        if not (h > 0 and math.isfinite(h)):
            raise ConsensusError(f"sampling period must be positive and finite, got {h}")
        finite = np.isfinite(x0)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ConsensusError(f"x0 must be finite, got x0[{bad}] = {float(x0[bad])}")
        x0.setflags(write=False)
        self.graph, self.m, self.h, self.x0 = graph, m, h, x0
        self.schedule = None if probs is None else GossipSchedule(graph, probs)

    @property
    def n(self) -> int:
        return self.graph.n


class GossipSchedule:
    """The edges of a symmetric graph with their selection probabilities: a system's `schedule`.

    Edge e joins `i[e]` < `j[e]` with weight `vals[e]`: the graph's entries
    with i < j in stored order, so sorted by i, then j.  `probs` gives one
    probability per edge in that order, each in (0, 1], summing to 1;
    'uniform' gives each edge 1 / |E|.  The arrays are read-only;
    `engine.monte_carlo_mean` draws the edges from them.
    """

    def __init__(self, graph: WeightedDigraph, probs):
        if not graph.is_symmetric():
            raise ConsensusError("gossip requires a symmetric graph")
        e = len(graph.vals)  # each edge twice, so 2 / e is 1 / |E| to the bit
        uniform = isinstance(probs, str) and probs == "uniform"
        probs = np.full(e // 2, 2.0 / e) if uniform else np.array(probs, dtype=float)  # a copy
        upper = graph.rows < graph.cols
        if len(probs) != upper.sum():
            raise ConsensusError(
                f"probs must give one value for each of the graph's {upper.sum()} edges, "
                f"got {len(probs)}"
            )
        # p in (0, 1]; the single-edge schedule necessarily has p = 1.  Both
        # tests are written so that NaN, which compares False, fails them.
        if not np.all((probs > 0) & (probs <= 1)):
            raise ConsensusError("each probability must lie in (0, 1]")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise ConsensusError(f"probabilities must sum to 1, got {float(probs.sum())!r}")
        self.probs = probs
        self.i, self.j, self.vals = graph.rows[upper], graph.cols[upper], graph.vals[upper]
        for a in (self.i, self.j, self.vals, probs):
            a.setflags(write=False)


# --- sampling-period bounds and gains ----------------------------------------


def _observers(sys: HybridSystem, case: int) -> int:
    """The count k of agents 0..k-1 that observe their own state between
    samples in case 1 or 2: the m continuous agents in case 2, none under
    case 1's zero-order hold.  Every other agent holds its input until t_{k+1}."""
    if protocol(case) is PROTOCOLS[3]:  # protocol() rejects an unknown case
        raise ConsensusError("case 3 has no sampled map; its pairs move by pair_gains")
    return sys.m if case == 2 else 0


def bound(sys: HybridSystem, case: int) -> float:
    """Strict sampling-period bound.  Case 3: 1 / max_ij a_ij.  Cases 1-2:
    1 / max d_ii over the agents that hold their input; +inf when none of
    them has neighbours (a self-observing agent's gain self-limits)."""
    if case == 3:
        return 1.0 / float(sys.graph.vals.max())  # a graph has at least one edge
    dmax = float(sys.graph.in_degrees[_observers(sys, case):].max(initial=0.0))
    return 1.0 / dmax if dmax > 0 else math.inf


def _require_h(sys: HybridSystem, case: int) -> None:
    limit = bound(sys, case)
    if not sys.h < limit:
        name = protocol(case).bound_name
        raise ConsensusError(f"h = {sys.h} must be strictly below {name} = {limit}")


def gains(sys: HybridSystem, case: int, tau=None) -> np.ndarray:
    """Read-only gains g_i(tau) of cases 1-2, by which agent i moves
    x_i += g_i (A x - d x)_i by t_k + tau: tau if it holds its input,
    (1 - e^{-d_ii tau}) / d_ii if it observes its own state.  The default tau = h
    gives the diagonal of H; an array of offsets gives each agent a row.  Enforces
    the h bound."""
    k, tau = _observers(sys, case), np.asarray(sys.h if tau is None else tau, dtype=float)
    _require_h(sys, case)  # after _observers, which refuses case 3 at any h
    d = sys.graph.in_degrees[:k].reshape(-1, *[1] * tau.ndim)
    g = np.broadcast_to(tau, (sys.n, *tau.shape)).copy()
    # (1 - e^{-d tau}) / d, continued by its limit tau at d = 0.  -expm1 keeps full
    # precision however weak the link: 1 - exp(-x) keeps none of it once x is
    # below the float spacing at 1 (~1e-16).
    g[:k] = np.where(d > 0, -np.expm1(-d * tau) / np.where(d > 0, d, 1.0), tau)
    g.setflags(write=False)
    return g


# --- iteration matrices ------------------------------------------------------


def case_matrix(sys: HybridSystem, case: int) -> StochasticMatrix:
    """The case's one-step matrix: the sampled map I - H*L in cases 1-2, the
    expected matrix E(Phi) of the system's schedule in case 3.

    E(Phi) = I + sum_ij p_ij (Phi_ij - I) is written from the pair gains:
    p_ij g_i at (i, j), p_ij g_j at (j, i).  Its diagonal accumulates from 1
    in edge order, the i-ends' -p_ij g_i first, then the j-ends' -p_ij g_j.

    Self-observing rows are written in their exact closed form (diagonal
    e^{-d_ii h}, off-diagonal gain * a_ij): gain * d_ii < 1 for any h, but
    1 - gain * d_ii in floating point can underflow to 0 when d_ii * h is
    large (the Remark-1 regime, continuous in-degrees above 1/h).  Such a
    row with d_ii = 0 comes out as an identity row.
    """
    if case == 3:
        pair, sched = pair_gains(sys), sys.schedule  # pair_gains checks the schedule
        rows, cols = np.r_[sched.i, sched.j], np.r_[sched.j, sched.i]
        vals = (pair * sched.probs[:, None]).T.ravel()  # the g_i, then the g_j
        diag = np.ones(sys.n)
        np.add.at(diag, rows, -vals)
        return StochasticMatrix(diag, rows, cols, vals)
    H = gains(sys, case)  # also enforces the h bound
    k, g, d = _observers(sys, case), sys.graph, sys.graph.in_degrees
    diag = np.r_[np.exp(-d[:k] * sys.h), 1.0 - H[k:] * d[k:]]
    return StochasticMatrix(diag, g.rows, g.cols, H[g.rows] * g.vals)


def pair_gains(sys: HybridSystem) -> np.ndarray:
    """Gains (g_i, g_j) of Phi_ij, one row per scheduled edge (i, j): the pair
    update x_i += g_i (x_j - x_i), x_j += g_j (x_i - x_j) over (t_k, t_k + h].

    The factor depends on the kinds of the two endpoints:
    continuous-continuous averages symmetrically with factor
    (1 - e^{-2a h})/2, continuous-discrete mixes factors 1 - e^{-a h} and
    h*a, discrete-discrete uses h*a on both rows.  A discrete endpoint moves
    only at t_{k+1}.  Every case-3 path calls this: it rejects a system
    without a schedule, and enforces the case-3 h bound.
    """
    if sys.schedule is None:
        raise ConsensusError("case 3 requires a gossip schedule")
    _require_h(sys, 3)
    i, j, a, h = sys.schedule.i, sys.schedule.j, sys.schedule.vals, sys.h
    both, mixed, held = -np.expm1(-2.0 * a * h) / 2.0, -np.expm1(-a * h), h * a
    # agents 0..m-1 are continuous, so a continuous j makes i continuous too
    gi = np.where(j < sys.m, both, np.where(i < sys.m, mixed, held))
    gj = np.where(j < sys.m, both, held)
    return np.stack([gi, gj], axis=1)


# --- the case table -----------------------------------------------------------


class Protocol(NamedTuple):
    """What the paper fixes for one case."""

    bound_name: str  # the strict sampling-period bound, as an error names it
    # the consensus condition, (fails, holds): exactly one closed class of
    # the matrix, whose off-diagonal pattern is the interaction graph
    condition: tuple[str, str]


_SPANNING_TREE = ("graph has no directed spanning tree", "graph has a directed spanning tree")

PROTOCOLS = {
    1: Protocol("bound_case1 (1/max d_ii)", _SPANNING_TREE),
    2: Protocol("bound_case2 (1/max discrete d_ii)", _SPANNING_TREE),
    3: Protocol(
        "bound_case3 (1/max a_ij)",
        ("scheduled edges do not connect the graph", "scheduled edges connect the graph"),
    ),
}


def protocol(case: int) -> Protocol:
    """The case table's entry for `case`."""
    if case not in PROTOCOLS:
        raise ConsensusError(f"case must be 1, 2 or 3, got {case}")
    return PROTOCOLS[case]
