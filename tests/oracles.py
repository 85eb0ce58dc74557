"""Reference implementations that the tests check the package against.

No command reaches these: each restates a formula of the paper in its most
direct form (full pair matrices, the Laplacian, scalar closed forms, matrix
powers), so that the shipped kernels, which take shortcuts, have something
plain to agree with.
"""

import bisect
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from hybridconsensus.engine import Trajectory
from hybridconsensus.errors import ConsensusError, ParseError
from hybridconsensus.graphs import WeightedDigraph, strong_components
from hybridconsensus.protocols import HybridSystem, pair_gains
from hybridconsensus.spectral import PerronVector, StochasticMatrix

# x(0) of the paper's simulation examples, which presets/example{1,2,3}.cfg state
PAPER_X0 = (-13.0, 14.0, 3.0, -9.0, -3.0, 6.0)


class NotRankOne(Exception):
    """Matrix powers did not converge to a rank-one limit; the graph
    associated with the matrix lacks a spanning tree."""


# --- graphs -------------------------------------------------------------------


def dense(g: WeightedDigraph | StochasticMatrix) -> np.ndarray:
    """The n x n array written from the entries: a graph's weights A, or a
    matrix in edge form, whose diagonal is among its entries."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = g.vals
    return a


def digraph(w: np.ndarray) -> WeightedDigraph:
    """The graph whose n x n weights are `w`, built from its nonzero entries:
    the inverse of `dense`."""
    rows, cols = np.nonzero(w)
    return WeightedDigraph(len(w), rows, cols, w[rows, cols])


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """L = D - A, D = diag(row sums)."""
    return np.diag(g.in_degrees) - dense(g)


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
    label, closed, _ = strong_components(g.n, g.rows, g.cols)
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


def read_edge_list_by_line(path: Path) -> tuple[np.ndarray, ...]:
    """(rows, cols, vals, in-degrees) of the edge-list file `path`, whose
    header is taken as valid, or the reader's `ParseError`.  Each line is
    checked in full before the next is read, and a repeated pair is found
    in a dict of the pairs seen so far; the in-degrees are the row sums of
    the dense weights."""
    n, seen = None, {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8-sig").split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if n is None:
            n = int(tokens[1])
            continue
        if len(tokens) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j w'")
        try:
            i, j, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad edge entry") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{path}:{lineno}: index out of range 1..{n}")
        if (i, j) in seen:
            first = seen[i, j][0]
            raise ParseError(f"{path}:{lineno}: duplicate edge {i} {j} (first on line {first})")
        seen[i, j] = lineno, w
    edges = [(i - 1, j - 1, w) for (i, j), (_, w) in sorted(seen.items()) if w != 0]
    if not all(math.isfinite(w) for _, _, w in edges):
        raise ParseError(f"{path}: weights must be finite")
    if any(w < 0 for _, _, w in edges):
        raise ParseError(f"{path}: weights must be nonnegative")
    if any(i == j for i, j, _ in edges):
        raise ParseError(f"{path}: self-loops (nonzero diagonal) are not allowed")
    if not edges:
        raise ParseError(f"{path}: graph must contain at least one edge")
    rows, cols, vals = (np.array(c) for c in zip(*edges))
    a = np.zeros((n, n))
    a[rows, cols] = vals
    return rows, cols, vals, a.sum(axis=1)


# --- matrices -----------------------------------------------------------------


def edge_form(matrix) -> StochasticMatrix:
    """The checked matrix whose entries are the dense square array's: its
    diagonal, and its nonzero off-diagonal entries in row-major order."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConsensusError("row -1 violates stochasticity (residual nan)")
    rows, cols = np.nonzero((m != 0) & ~np.eye(len(m), dtype=bool))
    return StochasticMatrix(m.diagonal(), rows, cols, m[rows, cols])


def iteration_matrix(graph: WeightedDigraph, gains: np.ndarray) -> StochasticMatrix:
    """I - diag(gains) * L for gains 0 < h_i < 1/d_ii (h_i arbitrary positive
    when d_ii = 0); stochastic with positive diagonal by construction."""
    gains = np.asarray(gains, dtype=float)
    d = graph.in_degrees
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    bad = np.nonzero((d > 0) & (gains * d >= 1.0))[0]
    if bad.size:
        i = int(bad[0])
        h, limit = float(gains[i]), 1.0 / float(d[i])
        raise ConsensusError(f"h = {h} must be strictly below 1/d_{i}{i} = {limit}")
    return edge_form(np.eye(graph.n) - gains[:, None] * laplacian(graph))


def case_matrix_dense(sys: HybridSystem, case: int) -> np.ndarray:
    """The case matrix as an n x n array built from the dense weights.  Cases
    1-2: g_i a_ij off the diagonal, and on it the closed form 1 - g_i d_ii
    (e^{-d_ii h} on case 2's continuous rows), with the gains g_i computed
    here, not taken from the package.  Case 3: I plus every pair gain of the
    system's schedule, scattered by np.add.at in the order (i, i), (i, j),
    (j, j), (j, i).  The package builds the same matrix from the edges, bit
    for bit."""
    if case == 3:
        i, j = sys.schedule.i, sys.schedule.j
        g = (pair_gains_at(sys, i, j) * sys.schedule.probs[:, None]).T
        expected = np.eye(sys.n)
        np.add.at(expected, (np.r_[i, i, j, j], np.r_[i, j, j, i]), np.r_[-g[0], g[0], -g[1], g[1]])
        return expected
    d, m = sys.graph.in_degrees, sys.m
    gains = np.full(sys.n, sys.h)
    if case == 2:  # (1 - e^{-d h}) / d on the continuous rows, its limit h where d = 0
        c = np.flatnonzero(d[:m] > 0)
        gains[c] = -np.expm1(-d[c] * sys.h) / d[c]
    M = gains[:, None] * dense(sys.graph)
    if case == 1:
        np.fill_diagonal(M, 1.0 - sys.h * d)
    else:
        np.fill_diagonal(M, np.r_[np.exp(-d[:m] * sys.h), 1.0 - gains[m:] * d[m:]])
    return M


def pair_gains_at(sys: HybridSystem, i, j) -> np.ndarray:
    """Gains (g_i, g_j), one row per edge (i[e], j[e]) with i < j, of the
    pair update x_i += g_i (x_j - x_i), x_j += g_j (x_i - x_j) over one
    sampling period (t_k, t_{k+1}], from the paper's closed forms pair by
    pair: a continuous pair meets at rate 2a, (1 - e^{-2a h})/2 each; a
    continuous end relaxes toward a held discrete partner, 1 - e^{-a h}; a
    discrete end takes h a at t_{k+1}."""
    gains, weights, h = [], dense(sys.graph), sys.h
    for a, b in zip(np.atleast_1d(i).tolist(), np.atleast_1d(j).tolist()):
        w = weights[a, b]
        if b < sys.m:  # agents 0..m-1 are continuous, and a < b
            gains.append(2 * [-np.expm1(-2.0 * w * h) / 2.0])
        else:
            gains.append([-np.expm1(-w * h) if a < sys.m else h * w, h * w])
    return np.array(gains).reshape(-1, 2)


def gossip_pair_matrix(sys: HybridSystem, i: int, j: int) -> StochasticMatrix:
    """Pair interaction matrix Phi_ij; rows other than i, j are identity."""
    if not sys.graph.is_symmetric:
        raise ConsensusError("gossip requires a symmetric graph")
    if not 0 <= i < j < sys.n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j})")
    if dense(sys.graph)[i, j] <= 0:
        raise ValueError(f"({i}, {j}) carries zero weight")
    gi, gj = pair_gains_at(sys, [i], [j])[0]
    phi = np.eye(sys.n)
    phi[i, i] -= gi
    phi[i, j] += gi
    phi[j, j] -= gj
    phi[j, i] += gj
    return edge_form(phi)


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
    Q = dense(P)
    for _ in range(max_iter):
        Q_next = Q @ Q
        Q_next /= Q_next.sum(axis=1, keepdims=True)  # keeps the row sums from drifting off 1
        if np.max(np.abs(Q_next - Q)) < tol:
            spread = float(np.max(Q_next.max(axis=0) - Q_next.min(axis=0)))
            if spread < tol:
                nu = Q_next.mean(axis=0)
                nu = nu / nu.sum()
                residual = float(np.max(np.abs(dense(P).T @ nu - nu)))
                return Q_next, PerronVector(nu=nu, residual=residual, period=1)
            raise NotRankOne(
                f"powers converged but rows disagree (column spread {spread:.3e})"
            )
        Q = Q_next
    raise NotRankOne(f"no rank-one limit after {max_iter} squarings")


def exact_nu(P: StochasticMatrix) -> list[Fraction]:
    """nu of P in exact rational arithmetic: every float entry is the rational
    it stands for, and GTH runs on P's root class with exact sums, products
    and quotients.  GTH reads only off-diagonal entries, so this is the exact
    nu of the matrix whose diagonal is 1 minus the rest of its row."""
    label, closed, _ = strong_components(P.n, P.rows, P.cols)
    if len(closed) != 1:
        raise ConsensusError(f"{len(closed)} closed classes: nu is not unique")
    root = np.flatnonzero(label == closed[0]).tolist()
    at = {v: k for k, v in enumerate(root)}
    W = [[Fraction(0)] * len(root) for _ in root]
    for i, j, v in zip(P.rows.tolist(), P.cols.tolist(), P.vals.tolist()):
        if i != j and i in at:  # a closed class's rows hear only the class
            W[at[i]][at[j]] = Fraction(v)
    # GTH: eliminate states n-1..1, folding each one's paths into the rest
    for k in range(len(W) - 1, 0, -1):
        out = sum(W[k][:k])
        for i in range(k):
            if W[i][k]:
                W[i][k] /= out
                for j in range(k):
                    if j != i:
                        W[i][j] += W[i][k] * W[k][j]
    pi = [Fraction(1)]
    for j in range(1, len(W)):
        pi.append(sum(pi[i] * W[i][j] for i in range(j)))
    nu = [Fraction(0)] * P.n
    for v, p in zip(root, pi):
        nu[v] = p / sum(pi)
    return nu


def period_by_powers(P: StochasticMatrix, cls: np.ndarray) -> int:
    """The period of the strong class `cls` of P: the gcd of the lengths of its
    cycles.  Each simple cycle is at most len(cls) long and shows as a nonzero
    diagonal entry of that power of the class's 0-1 block."""
    a = (dense(P)[np.ix_(cls, cls)] > 0).astype(int)
    walks, period = np.eye(len(cls), dtype=int), 0
    for k in range(1, len(cls) + 1):
        walks = np.minimum(walks @ a, 1)
        if walks.diagonal().any():
            period = math.gcd(period, k)
    return period


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


def dense_states(traj: Trajectory) -> np.ndarray:
    """(K, m, d) states of the continuous agents between samples, the values the
    CSV writer prints as dense rows: (1 - s) x_k[i] + s x_{k+1}[i], s = blend[i, j],
    formed one value at a time in Python floats."""
    x, blend = traj.sample_states.tolist(), traj.blend.tolist()
    values = [[(1 - s) * a[i] + s * b[i] for i, row in enumerate(blend) for s in row]
              for a, b in zip(x, x[1:])]
    return np.array(values, dtype=float).reshape(len(x) - 1, *traj.blend.shape)


# --- single gossip runs -------------------------------------------------------


def draw_edges(sys: HybridSystem, steps: int, seed: int) -> list[int]:
    """The edges, by index into the system's schedule, that a gossip trial
    seeded `seed` draws: each of PCG64(seed)'s uniforms u picks the first edge
    whose running sum of probabilities, in Python floats with the last taken
    as 1, exceeds u."""
    cumulative = list(itertools.accumulate(sys.schedule.probs.tolist()))
    cumulative[-1] = 1.0
    u = np.random.Generator(np.random.PCG64(seed)).random(steps)
    return [bisect.bisect_right(cumulative, v) for v in u.tolist()]


def simulate_gossip(
    sys: HybridSystem, steps: int, seed: int
) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """One seeded gossip run: its (K+1, n) sampled states and the edges it drew.

    The edges are the ones `draw_edges` gives for `seed`, as `monte_carlo_mean`
    must draw them too.  Each sample applies the drawn edge's full pair matrix.
    """
    pair_gains(sys)  # checks that the system has a schedule, and h
    edges = list(zip(sys.schedule.i.tolist(), sys.schedule.j.tolist()))
    drawn = tuple(edges[e] for e in draw_edges(sys, steps, seed))
    states = np.empty((steps + 1, sys.n))
    states[0] = sys.x0
    for k, (i, j) in enumerate(drawn):
        states[k + 1] = dense(gossip_pair_matrix(sys, i, j)) @ states[k]
    return states, drawn
