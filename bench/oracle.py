"""Independent oracle for the benchmark's output checks.

Everything here is rebuilt from the config and edge-list files with the
paper's formulas, using numpy and scipy only; nothing is imported from
the package under test, so a change that makes the package fast but
wrong is caught.

* solvability: ``scipy.sparse.csgraph`` (one closed strongly connected
  class for cases 1-2, one connected component for case 3);
* consensus weights nu: ``scipy.linalg.null_space`` of P^T - I;
* sampled trajectories: direct iteration of the rebuilt P;
* dense points: the intra-sample closed forms of cases 1-2;
* gossip Monte-Carlo means: a vectorised re-run over all trials with the
  same per-trial PCG64 seeds and inverse-CDF edge draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

PAPER_X0 = (-13.0, 14.0, 3.0, -9.0, -3.0, 6.0)
PAPER_H = 0.2
CSV_HEADER = "t,agent,value,kind,record"

#: agreement with the oracle, in units of max(1, max |x0|)
VALUE_RTOL = 1e-9


@dataclass
class System:
    """What the CLI reads, parsed independently of the package."""

    weights: np.ndarray
    case: int
    m: int
    h: float
    x0: np.ndarray
    steps: int = 200
    dense_per_step: int = 10
    seed: int = 0
    trials: int = 1000
    tol: float = 1e-8

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.x0))))


def read_edges(path: Path) -> np.ndarray:
    lines = [ln.split("#", 1)[0].split() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][1])
    w = np.zeros((n, n))
    for i, j, v in lines[1:]:
        w[int(i) - 1, int(j) - 1] = float(v)
    return w


def read_system(cfg_path: Path) -> System:
    pairs = {}
    for raw in cfg_path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    weights = read_edges(cfg_path.parent / pairs.pop("graph"))
    x0_text = pairs.pop("x0", "paper")
    if x0_text == "paper":
        x0, h = np.array(PAPER_X0), float(pairs.pop("h", PAPER_H))
    else:
        x0, h = np.array([float(v) for v in x0_text.replace(",", " ").split()]), float(pairs.pop("h"))
    if pairs.pop("probs", "uniform") != "uniform":
        raise ValueError("the oracle models uniform gossip probabilities only")
    conv = {"case": int, "m": int, "steps": int, "dense_per_step": int, "seed": int,
            "trials": int, "tol": float}
    return System(weights=weights, x0=x0, h=h, **{k: conv[k](v) for k, v in pairs.items()})


# --- structure --------------------------------------------------------------


def root_class(w: np.ndarray) -> np.ndarray | None:
    """Vertices of the unique closed strongly connected class of the
    "listens to" graph (edge i -> j when a_ij > 0), or None when there are
    zero or several closed classes (no directed spanning tree)."""
    graph = csr_matrix(w > 0)
    count, label = connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    leaves = np.zeros(count, dtype=bool)
    leaves[label[rows][label[rows] != label[cols]]] = True  # listens outside its class
    closed = np.nonzero(~leaves)[0]
    return np.nonzero(label == closed[0])[0] if len(closed) == 1 else None


def solvable(sys: System) -> bool:
    if sys.case == 3:
        return connected_components(csr_matrix(sys.weights > 0), directed=False)[0] == 1
    return root_class(sys.weights) is not None


def roots_tried(sys: System) -> int:
    """Breadth-first searches the seed's structural test makes: one per
    candidate root, in index order, until a root-class vertex is tried
    (spanning tree), or one from vertex 0 (undirected connectivity)."""
    if sys.case == 3:
        return 1
    roots = root_class(sys.weights)
    return sys.n if roots is None else int(roots.min()) + 1


# --- matrices ---------------------------------------------------------------


def bounds(sys: System) -> dict[str, float]:
    d = sys.weights.sum(axis=1)
    discrete = float(d[sys.m:].max()) if sys.m < sys.n else 0.0
    return {
        "case1": 1.0 / float(d.max()),
        "case2": 1.0 / discrete if discrete > 0 else math.inf,
        "case3": 1.0 / float(sys.weights.max()),
    }


def gains(sys: System) -> np.ndarray:
    """Per-row gains of I - diag(g) L: h, or (1 - e^{-d h}) / d on the
    continuous rows under case 2."""
    g = np.full(sys.n, sys.h)
    if sys.case == 2:
        d = sys.weights[: sys.m].sum(axis=1)
        pos = d > 0
        g[: sys.m][pos] = -np.expm1(-d[pos] * sys.h) / d[pos]
    return g


def gossip_edges(sys: System):
    """Edges i < j in sorted order with the two rows' update factors."""
    i, j = np.nonzero(np.triu(sys.weights))
    a = sys.weights[i, j]
    ci, cj = i < sys.m, j < sys.m
    gi = np.where(ci, np.where(cj, -np.expm1(-2 * a * sys.h) / 2, -np.expm1(-a * sys.h)), sys.h * a)
    gj = np.where(ci & cj, gi, sys.h * a)
    return i, j, gi, gj


def iteration_matrix(sys: System) -> np.ndarray:
    """P = I - diag(g) L for cases 1-2; E(Phi) under uniform gossip for case 3."""
    if sys.case in (1, 2):
        lap = np.diag(sys.weights.sum(axis=1)) - sys.weights
        return np.eye(sys.n) - gains(sys)[:, None] * lap
    i, j, gi, gj = gossip_edges(sys)
    p = 1.0 / len(i)
    P = np.eye(sys.n)
    np.add.at(P, (i, i), -p * gi)
    np.add.at(P, (i, j), p * gi)
    np.add.at(P, (j, j), -p * gj)
    np.add.at(P, (j, i), p * gj)
    return P


@dataclass
class Prediction:
    solvable: bool
    value: float | None


def predict(sys: System, P: np.ndarray | None = None) -> Prediction:
    P = iteration_matrix(sys) if P is None else P
    if not solvable(sys):
        return Prediction(False, None)
    basis = null_space(P.T - np.eye(sys.n), rcond=1e-10)
    if basis.shape[1] != 1:
        raise ValueError(f"oracle null space has dimension {basis.shape[1]}")
    nu = basis[:, 0] / basis[:, 0].sum()
    return Prediction(True, float(nu @ sys.x0))


def second_eigenvalue(P: np.ndarray) -> float:
    mags = np.sort(np.abs(np.linalg.eigvals(P)))
    return float(mags[-2])


# --- trajectories -----------------------------------------------------------


def sampled_states(sys: System, P: np.ndarray) -> np.ndarray:
    states = np.empty((sys.steps + 1, sys.n))
    states[0] = sys.x0
    for k in range(sys.steps):
        states[k + 1] = P @ states[k]
    return states


def dense_values(sys: System, states: np.ndarray) -> np.ndarray:
    """(steps, m, dense) closed-form states of the continuous agents at
    t_k + tau_j, tau_j = j h / dense."""
    w = sys.weights[: sys.m]
    pull = states[:-1] @ w.T - states[:-1, : sys.m] * w.sum(axis=1)  # (steps, m)
    tau = np.arange(1, sys.dense_per_step + 1) * (sys.h / sys.dense_per_step)
    if sys.case == 1:
        factor = np.broadcast_to(tau, (sys.m, len(tau)))
    else:
        d = w.sum(axis=1)[:, None]
        factor = np.where(d > 0, -np.expm1(-d * tau) / np.where(d > 0, d, 1.0), tau)
    return states[:-1, : sys.m, None] + factor[None] * pull[:, :, None]


def monte_carlo(sys: System) -> tuple[np.ndarray, np.ndarray]:
    """Mean sampled states over trials and the final standard error; trial
    r draws its edges from PCG64(seed + r) by inverse CDF."""
    i, j, gi, gj = gossip_edges(sys)
    cum = np.cumsum(np.full(len(i), 1.0 / len(i)))
    cum[-1] = 1.0
    draws = np.empty((sys.trials, sys.steps), dtype=np.intp)
    for r in range(sys.trials):
        u = np.random.Generator(np.random.PCG64(sys.seed + r)).random(sys.steps)
        draws[r] = np.searchsorted(cum, u, side="right")
    x = np.tile(sys.x0, (sys.trials, 1))
    rows = np.arange(sys.trials)
    means = np.empty((sys.steps + 1, sys.n))
    means[0] = sys.x0
    for k in range(sys.steps):
        e = draws[:, k]
        a, b = i[e], j[e]
        xa, xb = x[rows, a], x[rows, b]
        x[rows, a] = xa + gi[e] * (xb - xa)
        x[rows, b] = xb + gj[e] * (xa - xb)
        means[k + 1] = x.mean(axis=0)
    return means, x.std(axis=0, ddof=1) / math.sqrt(sys.trials)


# --- output checks ----------------------------------------------------------


def read_csv(path: Path):
    """Columns of trajectory.csv: t, agent, value, is_continuous, is_dense."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"bad CSV header {header!r}")
        t, agent, value, cont, dense = [], [], [], bytearray(), bytearray()
        for line in fh:
            ts, ag, val, kind, rec = line.rstrip("\n").split(",")
            t.append(float(ts))
            agent.append(int(ag))
            value.append(float(val))
            if kind not in ("continuous", "discrete") or rec not in ("sample", "dense"):
                raise ValueError(f"bad kind/record in row {line!r}")
            cont.append(kind == "continuous")
            dense.append(rec == "dense")
    return (np.array(t), np.array(agent), np.array(value),
            np.frombuffer(bytes(cont), dtype=bool), np.frombuffer(bytes(dense), dtype=bool))


@dataclass
class Expected:
    """Oracle results for one generated system, built once per run."""

    sys: System
    pred: Prediction
    bounds: dict
    states: np.ndarray | None = None  # sampled states (trial means for case 3)
    stderr: np.ndarray | None = None
    dense: np.ndarray | None = None

    @classmethod
    def build(cls, sys: System, with_trajectory: bool) -> "Expected":
        P = iteration_matrix(sys)
        exp = cls(sys, predict(sys, P), bounds(sys))
        if with_trajectory:
            if sys.case == 3:
                exp.states, exp.stderr = monte_carlo(sys)
            else:
                exp.states = sampled_states(sys, P)
                exp.dense = dense_values(sys, exp.states) if sys.dense_per_step else None
        return exp

    def close(self, got, want) -> bool:
        return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= VALUE_RTOL * self.sys.scale))

    def check_verdict(self, report: dict, ran: bool) -> list[str]:
        errors = []
        sys, pred = self.sys, self.pred
        if report["solvable"] != pred.solvable:
            errors.append(f"solvable = {report['solvable']}, oracle says {pred.solvable}")
        elif pred.solvable and not (
            report["predicted_value"] is not None and self.close(report["predicted_value"], pred.value)
        ):
            errors.append(f"predicted_value = {report['predicted_value']!r}, oracle {pred.value!r}")
        for key, want in self.bounds.items():
            got = report["bounds"][key]
            if not (got is None and math.isinf(want) or got is not None and math.isclose(got, want, rel_tol=1e-12)):
                errors.append(f"bound {key} = {got!r}, oracle {want!r}")
        cfg = report["config"]
        for key in ("case", "m", "h", "steps", "dense_per_step", "seed", "trials", "tol"):
            if cfg[key] != getattr(sys, key):
                errors.append(f"config echo {key} = {cfg[key]!r}, input {getattr(sys, key)!r}")
        if cfg["x0"] != sys.x0.tolist():
            errors.append("config echo x0 differs from the input")
        if ran:
            if report["converged"] != pred.solvable:
                errors.append(f"converged = {report['converged']}, solvable = {pred.solvable}")
            final = self.states[-1]
            if not self.close(report["measured_final_disagreement"], final.max() - final.min()):
                errors.append("measured_final_disagreement differs from the oracle trajectory")
        elif report["converged"] or report["measured_final_disagreement"] is not None:
            errors.append("check must not report a measured outcome")
        return errors

    def check_csv(self, path: Path) -> list[str]:
        sys = self.sys
        try:
            t, agent, value, cont, dense = read_csv(path)
        except ValueError as exc:
            return [str(exc)]
        d = sys.dense_per_step if sys.case != 3 else 0
        rows = (sys.steps + 1) * sys.n + sys.steps * sys.m * d
        if len(t) != rows:
            return [f"CSV has {len(t)} rows, expected (steps+1)*n + steps*m*dense = {rows}"]
        errors = []
        block = sys.n + sys.m * d
        pos = np.arange(rows)
        k, off = pos // block, pos % block
        is_dense = off >= sys.n
        want_agent = np.where(is_dense, (off - sys.n) // max(d, 1), off) + 1
        if not np.array_equal(dense, is_dense):
            errors.append("sample/dense rows are not in per-step blocks")
        if not np.array_equal(agent, want_agent):
            errors.append("agent column out of order")
        if not np.array_equal(cont, want_agent <= sys.m):
            errors.append("kind column disagrees with m")
        if errors:
            return errors
        sample_t, sample_v = t[~is_dense], value[~is_dense].reshape(sys.steps + 1, sys.n)
        if not self.close(sample_t, np.repeat(np.arange(sys.steps + 1) * sys.h, sys.n)):
            errors.append("sample times are off the grid k*h")
        if not self.close(sample_v, self.states):
            gap = float(np.max(np.abs(sample_v - self.states)))
            errors.append(f"sample states differ from the oracle by up to {gap:.3e}")
        final_gap = np.abs(sample_v[-1] - self.pred.value)
        slack = 4.0 * self.stderr if sys.case == 3 else 0.0
        if not np.all(final_gap < sys.tol + slack):
            errors.append(f"final sample rows miss the prediction by {final_gap.max():.3e}")
        if d:
            t_k = sample_t.reshape(sys.steps + 1, sys.n)[:-1, 0]
            dense_t = t[is_dense].reshape(sys.steps, sys.m, d)
            lo, hi = t_k[:, None, None], (t_k + sys.h)[:, None, None]
            outside = int(np.count_nonzero((dense_t <= lo) | (dense_t > hi)))
            if outside:
                errors.append(f"{outside} dense rows lie outside (t_k, t_k + h] of their block")
            tau = np.arange(1, d + 1) * (sys.h / d)
            if not self.close(dense_t, lo + tau):
                errors.append("dense times are off the grid t_k + j*h/dense")
            if not self.close(value[is_dense].reshape(sys.steps, sys.m, d), self.dense):
                errors.append("dense values differ from the closed form")
        return errors
