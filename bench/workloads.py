"""Seeded workload generator.

Each workload is one CLI operation on inputs made from the workload seed:
the generator writes the edge list and the ``.cfg`` file that the CLI then
reads, and the program receives nothing else.  ``paper-gossip`` runs the
shipped ``presets/example3.cfg`` unmodified, so its seed changes nothing.

Why each workload exists (the layer whose mechanism it exercises):

* ``paper-gossip``: the gossip Monte-Carlo kernel in ``engine`` and its
  (trials, steps+1, n) state array; graphs, spectral and reporting are idle.
* ``large-sampled``: dense intra-sample interpolation in ``engine`` and
  CSV writing in ``reporting``; the Monte-Carlo kernel is not used.
* ``large-check``: ``check`` skips engine and reporting; the SVD in
  ``spectral.left_eigenvector`` and the per-root BFS sweep in
  ``graphs.has_spanning_tree`` dominate.
* ``large-gossip-check``: building E(Phi) in ``protocols`` from one dense
  pair matrix per edge, each checked row by row in ``spectral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

NAMES = ("paper-gossip", "large-sampled", "large-check", "large-gossip-check")

#: steps = predicted steps to tol times this margin, rounded up to a multiple of 100
STEP_MARGIN = 1.05
#: the lowest leader label in large-check; pinned so every seed scans the
#: same candidate roots before the spanning-tree search succeeds
FIRST_LEADER = 250
#: in-weight of large-sampled's weak listener; sets |lambda_2| = 1 - h * 0.6
SLOW_WEIGHT = 0.6


@dataclass
class Workload:
    name: str
    command: str  # "run" or "check"
    cfg: Path
    sys: oracle.System
    params: dict


def _two_digits_below(x: float) -> float:
    """x rounded down to two significant digits, as the presets write h."""
    exp = math.floor(math.log10(x)) - 1
    return math.floor(x / 10.0**exp) * 10.0**exp


def _write(out: Path, name: str, weights: np.ndarray, keys: dict) -> Path:
    rows, cols = np.nonzero(weights)
    lines = [f"n {weights.shape[0]}"]
    lines += [f"{i + 1} {j + 1} {float(weights[i, j])!r}" for i, j in zip(rows, cols)]
    (out / f"{name}.edges").write_text("\n".join(lines) + "\n")
    cfg = out / f"{name}.cfg"
    body = [f"graph = {name}.edges"] + [f"{k} = {v}" for k, v in keys.items()]
    cfg.write_text("\n".join(body) + "\n")
    return cfg


def _relabel(w: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The vertex at hidden position p gets label perm[p]."""
    out = np.zeros_like(w)
    out[np.ix_(perm, perm)] = w
    return out


def _x0(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.round(rng.uniform(-10.0, 10.0, n), 6)


def _large_sampled(rng: np.random.Generator) -> oracle.System:
    """n = 100, case 2: a random spanning tree in a hidden order plus 8
    random extra in-edges per vertex, unit weights, so every discrete
    in-degree is 9 and h is the same for every seed.  The last vertex in
    the hidden order is a weak listener: it hears only its tree parent,
    with weight SLOW_WEIGHT, and nobody hears it.  Its column of P is
    diagonal, so its diagonal entry is exactly |lambda_2| and the step count
    is the same for every seed."""
    n, m, dense, extra = 100, 50, 4, 8
    w = np.zeros((n, n))
    for p in range(1, n):
        w[p, rng.integers(0, p)] = 1.0
    sink = n - 1
    w[sink, w[sink] > 0] = SLOW_WEIGHT
    for p in range(n - 1):
        free = np.nonzero((w[p] == 0) & (np.arange(n) != p) & (np.arange(n) != sink))[0]
        w[p, rng.choice(free, extra, replace=False)] = 1.0
    w = _relabel(w, rng.permutation(n))
    x0 = _x0(rng, n)
    h = _two_digits_below(0.5 / w[m:].sum(axis=1).max())
    sys = oracle.System(w, case=2, m=m, h=h, x0=x0, dense_per_step=dense, tol=1e-8)
    lam = oracle.second_eigenvalue(oracle.iteration_matrix(sys))
    needed = math.log(sys.tol / (x0.max() - x0.min())) / math.log(lam)
    sys.steps = int(math.ceil(needed * STEP_MARGIN / 100.0)) * 100
    return sys


def _large_check(rng: np.random.Generator) -> oracle.System:
    """n = 1000, case 2: a 3-agent leader ring; every follower listens to 4
    random agents earlier in a hidden order.  Labels are shuffled, with the
    lowest leader label pinned at FIRST_LEADER and the labels below it
    given to followers spread evenly over the hidden order, so the
    spanning-tree search scans the same number of roots, with about the
    same reach, for every seed."""
    n, m, fan_in = 1000, 500, 4
    w = np.zeros((n, n))
    w[0, 2] = w[1, 0] = w[2, 1] = 1.0
    for p in range(3, n):
        w[p, rng.choice(p, min(p, fan_in), replace=False)] = 1.0
    perm = np.empty(n, dtype=np.intp)
    early = 3 + np.arange(FIRST_LEADER) * ((n - 3) // FIRST_LEADER)
    late = np.setdiff1d(np.arange(1, n), early)
    perm[early] = rng.permutation(FIRST_LEADER)
    perm[0] = FIRST_LEADER
    perm[late] = FIRST_LEADER + 1 + rng.permutation(len(late))
    w = _relabel(w, perm)
    x0 = _x0(rng, n)
    h = _two_digits_below(0.5 / w[m:].sum(axis=1).max())
    return oracle.System(w, case=2, m=m, h=h, x0=x0)


def _large_gossip_check(rng: np.random.Generator) -> oracle.System:
    """n = 250, case 3: a random spanning tree plus n random chords
    (2n - 1 undirected edges), weights drawn from U(0.2, 1)."""
    n, m = 250, 125
    w = np.zeros((n, n))
    for p in range(1, n):
        q = rng.integers(0, p)
        w[p, q] = w[q, p] = rng.uniform(0.2, 1.0)
    chords = 0
    while chords < n:
        p, q = rng.integers(0, n, 2)
        if p != q and w[p, q] == 0:
            w[p, q] = w[q, p] = rng.uniform(0.2, 1.0)
            chords += 1
    w = _relabel(w, rng.permutation(n))
    x0 = _x0(rng, n)
    h = _two_digits_below(0.5 / w.max())
    return oracle.System(w, case=3, m=m, h=h, x0=x0)


_GENERATORS = {
    "large-sampled": ("run", _large_sampled),
    "large-check": ("check", _large_check),
    "large-gossip-check": ("check", _large_gossip_check),
}


def generate(name: str, seed: int, root: Path, out: Path) -> Workload:
    """Write the workload's inputs under `out` and describe them."""
    if name == "paper-gossip":
        cfg = root / "presets" / "example3.cfg"
        command, sys = "run", oracle.read_system(cfg)
    else:
        command, make = _GENERATORS[name]
        rng = np.random.default_rng([seed, NAMES.index(name)])
        sys = make(rng)
        keys = {"case": sys.case, "m": sys.m, "h": repr(sys.h),
                "x0": ", ".join(repr(float(v)) for v in sys.x0),
                "steps": sys.steps, "dense_per_step": sys.dense_per_step,
                "seed": sys.seed, "trials": sys.trials, "tol": repr(sys.tol)}
        if sys.case == 3:
            keys["probs"] = "uniform"
        cfg = _write(out, name, sys.weights, keys)
    edges = int(np.count_nonzero(sys.weights))
    params = {
        "n": sys.n, "edges": edges // 2 if sys.case == 3 else edges, "case": sys.case,
        "m": sys.m, "h": sys.h, "steps": sys.steps, "trials": sys.trials if sys.case == 3 else 1,
        "dense_per_step": sys.dense_per_step if sys.case != 3 else 0,
        "lambda2_abs": oracle.second_eigenvalue(oracle.iteration_matrix(sys)), "seed": sys.seed,
    }
    return Workload(name, command, cfg, sys, params)
