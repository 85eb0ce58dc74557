"""Reference implementations that the tests check the package against.

No command reaches these: each restates a formula of the paper in its most
direct form (full pair matrices, the Laplacian, scalar closed forms, matrix
powers), so that the shipped kernels, which take shortcuts, have something
plain to agree with.
"""

import math
from pathlib import Path

import numpy as np

from hybridconsensus import (
    GossipSchedule,
    HybridSystem,
    PerronVector,
    RunConfig,
    StochasticMatrix,
    Trajectory,
    WeightedDigraph,
    check_stochastic,
)
from hybridconsensus.engine import _draw_edges, dense_tau_grid
from hybridconsensus.errors import (
    AsymmetricGraph,
    ConsensusError,
    NotStochastic,
    SamplingPeriodTooLarge,
)
from hybridconsensus.graphs import strong_components
from hybridconsensus.protocols import case2_gain, pair_gains


class NotRankOne(Exception):
    """Matrix powers did not converge to a rank-one limit; the graph
    associated with the matrix lacks a spanning tree."""


# --- graphs -------------------------------------------------------------------


def dense(g: WeightedDigraph) -> np.ndarray:
    """The n x n weights A, a_ij at (i, j), written from the graph's entries."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = g.vals
    return a


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """L = D - A, D = diag(row sums)."""
    return np.diag(g.in_degrees()) - dense(g)


def has_spanning_tree(g: WeightedDigraph) -> bool:
    """True iff some root's information reaches every vertex, i.e. exactly
    one class is closed.  On a symmetric graph this is connectivity."""
    return len(strong_components(g.n, g.rows, g.cols)[1]) == 1


def nonconsensus_witness(sys: HybridSystem) -> np.ndarray:
    """Initial state pinning two closed classes at 0 and 1.

    Exists exactly when the graph has no spanning tree; the two classes
    never hear each other, so disagreement stays at 1 forever.
    """
    g = sys.graph
    label, closed = strong_components(g.n, g.rows, g.cols)
    if len(closed) < 2:
        raise ConsensusError("graph has a spanning tree; no witness exists")
    x0 = np.full(sys.n, 0.5)
    x0[label == closed[0]] = 0.0
    x0[label == closed[1]] = 1.0
    return x0


def write_edge_list(g: WeightedDigraph, path: str | Path) -> None:
    """Write the edge-list format; weights use repr so reads are bit-exact."""
    lines, a = [f"n {g.n}"], dense(g)
    for i in range(g.n):
        for j in range(g.n):
            w = a[i, j]
            if w > 0:
                lines.append(f"{i + 1} {j + 1} {float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# --- matrices -----------------------------------------------------------------


def edge_form(matrix) -> StochasticMatrix:
    """A dense square array's diagonal and nonzero off-diagonal entries: the
    form `check_stochastic` takes."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotStochastic(-1, float("nan"))
    rows, cols = np.nonzero(m)
    rows, cols = rows[rows != cols], cols[rows != cols]
    return StochasticMatrix(m.diagonal().copy(), rows, cols, m[rows, cols])


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
    return check_stochastic(edge_form(np.eye(graph.n) - gains[:, None] * laplacian(graph)))


def case_matrix_dense(
    sys: HybridSystem, case: int, sched: GossipSchedule | None = None
) -> np.ndarray:
    """The case matrix as an n x n array built from the dense weights.  Cases
    1-2: g_i a_ij off the diagonal, and on it the closed form 1 - g_i d_ii
    (e^{-d_ii h} on case 2's continuous rows).  Case 3: I plus every pair
    gain, scattered by np.add.at in the order (i, i), (i, j), (j, j), (j, i).
    The package builds the same matrix from the edges, bit for bit."""
    if case == 3:
        i, j = sched.i, sched.j
        g = (pair_gains_at(sys, i, j, sys.h) * sched.probs[:, None]).T
        expected = np.eye(sys.n)
        np.add.at(expected, (np.r_[i, i, j, j], np.r_[i, j, j, i]), np.r_[-g[0], g[0], -g[1], g[1]])
        return expected
    d, m = sys.graph.in_degrees(), sys.m
    gains = np.full(sys.n, sys.h) if case == 1 else case2_gain(sys)
    M = gains[:, None] * dense(sys.graph)
    if case == 1:
        np.fill_diagonal(M, 1.0 - sys.h * d)
    else:
        np.fill_diagonal(M, np.r_[np.exp(-d[:m] * sys.h), 1.0 - gains[m:] * d[m:]])
    return M


def pair_gains_at(sys: HybridSystem, i, j, tau: float) -> np.ndarray:
    """Gains (g_i, g_j), one row per edge (i[e], j[e]) with i < j, of the
    pair update x_i += g_i (x_j - x_i), x_j += g_j (x_i - x_j) over
    (t_k, t_k + tau], from the paper's closed forms pair by pair: a
    continuous pair meets at rate 2a, (1 - e^{-2a tau})/2 each; a continuous
    end relaxes toward a held discrete partner, 1 - e^{-a tau}; a discrete
    end takes h a at t_{k+1}."""
    gains, weights = [], dense(sys.graph)
    for a, b in zip(np.atleast_1d(i).tolist(), np.atleast_1d(j).tolist()):
        w = weights[a, b]
        if b < sys.m:  # agents 0..m-1 are continuous, and a < b
            gains.append(2 * [-np.expm1(-2.0 * w * tau) / 2.0])
        else:
            gains.append([-np.expm1(-w * tau) if a < sys.m else sys.h * w, sys.h * w])
    return np.array(gains).reshape(-1, 2)


def gossip_pair_matrix(sys: HybridSystem, i: int, j: int) -> StochasticMatrix:
    """Pair interaction matrix Phi_ij; rows other than i, j are identity."""
    if not sys.graph.is_symmetric:
        raise AsymmetricGraph("gossip requires a symmetric graph")
    if not 0 <= i < j < sys.n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j})")
    if dense(sys.graph)[i, j] <= 0:
        raise ValueError(f"({i}, {j}) carries zero weight")
    gi, gj = pair_gains_at(sys, [i], [j], sys.h)[0]
    phi = np.eye(sys.n)
    phi[i, i] -= gi
    phi[i, j] += gi
    phi[j, j] -= gj
    phi[j, i] += gj
    return check_stochastic(edge_form(phi))


def sia_limit(
    P: StochasticMatrix, tol: float = 1e-12, max_iter: int = 200
) -> tuple[np.ndarray, PerronVector]:
    """Limit of P^k by repeated squaring; raises NotRankOne if the powers
    settle on (or never reach) a limit whose rows disagree.

    A NotRankOne outcome signals that the graph associated with P has no
    spanning tree (necessity direction of the SIA equivalence).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Q = P.entries
    for _ in range(max_iter):
        Q_next = Q @ Q
        if np.max(np.abs(Q_next - Q)) < tol:
            spread = float(np.max(Q_next.max(axis=0) - Q_next.min(axis=0)))
            if spread < tol:
                nu = Q_next.mean(axis=0)
                nu = nu / nu.sum()
                residual = float(np.max(np.abs(P.entries.T @ nu - nu)))
                return Q_next, PerronVector(nu=nu, residual=residual)
            raise NotRankOne(
                f"powers converged but rows disagree (column spread {spread:.3e})"
            )
        Q = Q_next
    raise NotRankOne(f"no rank-one limit after {max_iter} squarings")


# --- intra-sample closed forms ------------------------------------------------


def _check_window(sys: HybridSystem, i: int, tau: float) -> None:
    if not 0 <= i < sys.m:
        raise ValueError(f"agent {i} is discrete (m = {sys.m})")
    if not 0.0 < tau <= sys.h:
        raise ValueError(f"tau = {tau} outside (0, {sys.h}]")


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
    _check_window(sys, i, tau)
    x_k = np.asarray(x_k, dtype=float)
    a_row = dense(sys.graph)[i]
    pull = float(a_row @ (x_k - x_k[i]))
    d = float(a_row.sum())
    if case == 1 or d == 0:
        factor = tau
    else:
        factor = -math.expm1(-d * tau) / d
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
    _check_window(sys, i, tau)
    x_k = np.asarray(x_k, dtype=float)
    if selected is None or i not in selected:
        return float(x_k[i])
    a, b = selected
    partner = b if i == a else a
    w = float(dense(sys.graph)[i, partner])
    if w <= 0:
        raise ValueError(f"selected pair ({a}, {b}) is not an edge")
    if partner < sys.m:
        beta = (1.0 + math.exp(-2.0 * w * tau)) / 2.0
    else:
        beta = math.exp(-w * tau)
    return float(beta * x_k[i] + (1.0 - beta) * x_k[partner])


# --- single gossip runs -------------------------------------------------------


def simulate_gossip(
    sys: HybridSystem, sched: GossipSchedule, cfg: RunConfig
) -> tuple[Trajectory, tuple[tuple[int, int], ...]]:
    """One seeded gossip run and the edges it drew.

    The edges are the ones `monte_carlo_mean` draws for the trial seeded
    cfg.seed.  Each sample applies the drawn edge's full pair matrix; between
    samples only the drawn endpoints move, by the pair gains at each tau.
    """
    pair_gains(sys, sched)  # checks the schedule against the system and h
    c = _draw_edges(sched, cfg.steps, cfg.seed)
    drawn = tuple(zip(sched.i[c].tolist(), sched.j[c].tolist()))
    states = np.empty((cfg.steps + 1, sys.n))
    states[0] = sys.x0
    for k, (i, j) in enumerate(drawn):
        states[k + 1] = gossip_pair_matrix(sys, i, j).entries @ states[k]
    dense = np.repeat(states[:-1, : sys.m, None], cfg.dense_per_step, axis=2)
    for col, tau in enumerate(dense_tau_grid(sys.h, cfg.dense_per_step)):
        for k, edge in enumerate(drawn):
            x = states[k]
            for end, g in zip(edge, pair_gains_at(sys, [edge[0]], [edge[1]], tau)[0]):
                other = edge[0] + edge[1] - end
                if end < sys.m:
                    dense[k, end, col] = x[end] + g * (x[other] - x[end])
    times = np.arange(cfg.steps + 1) * sys.h
    return Trajectory(times, states, dense, np.broadcast_to(0.0, states.shape)), drawn
