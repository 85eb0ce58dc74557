import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridconsensus.engine import dense_tau_grid
from hybridconsensus.graphs import WeightedDigraph
from hybridconsensus.protocols import HybridSystem
from hybridconsensus.reporting import CSV_HEADER
from oracles import dense_states, digraph

PRESETS = Path(__file__).resolve().parents[1] / "presets"


@pytest.fixture
def presets_dir() -> Path:
    return PRESETS


def run_cli(*args, env=None) -> subprocess.CompletedProcess:
    """`python -m hybridconsensus ARGS` in a fresh interpreter, its output captured as text."""
    return subprocess.run(
        [sys.executable, "-m", "hybridconsensus", *args], capture_output=True, text=True, env=env
    )


def two_node(m: int, h: float = 0.2, x0=(0.0, 1.0), probs=None) -> HybridSystem:
    """Agents 0 and 1 hearing each other at weight 1; the first m are continuous."""
    g = digraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return HybridSystem(graph=g, m=m, h=h, x0=np.array(x0), probs=probs)


def ring_graph(n: int = 6) -> WeightedDigraph:
    """Directed ring: agent i listens to agent i-1."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = 1.0
    return digraph(w)


def undirected_ring_with_chord(n: int = 6) -> WeightedDigraph:
    """Connected 0-1 symmetric graph with n + 1 edges (ring plus 0-3 chord)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = w[(i - 1) % n, i] = 1.0
    if n > 3:
        w[0, 3] = w[3, 0] = 1.0
    return digraph(w)


def random_spanning_graph(rng: np.random.Generator, n: int, extra: int = 0,
                          w_lo: float = 0.0, w_hi: float = 1.0) -> WeightedDigraph:
    """Random directed graph guaranteed to have a spanning tree rooted at 0.

    Vertex i > 0 listens to a random earlier vertex, so vertex 0 reaches
    everyone; `extra` additional random directed edges are sprinkled in.
    """
    w = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w[i, parent] = rng.uniform(w_lo, w_hi)
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = rng.uniform(w_lo, w_hi)
    if not np.any(w > 0):  # all tree draws hit weight 0
        w[1, 0] = 1.0
    return digraph(w)


def random_split_graph(rng: np.random.Generator, n: int) -> WeightedDigraph:
    """Two independent random blocks: never has a spanning tree."""
    assert n >= 4
    cut = int(rng.integers(2, n - 1))
    w = np.zeros((n, n))
    for lo, hi in ((0, cut), (cut, n)):
        size = hi - lo
        for i in range(lo + 1, hi):
            parent = int(rng.integers(lo, i))
            w[i, parent] = rng.uniform(0.1, 1.0)
        if size == 1:
            continue
        # a couple of extra intra-block edges
        for _ in range(2):
            i, j = rng.integers(lo, hi, size=2)
            if i != j:
                w[i, j] = rng.uniform(0.1, 1.0)
    if not np.any(w[:cut, :cut] > 0):
        w[1, 0] = 1.0
    if not np.any(w[cut:, cut:] > 0):
        w[n - 1, cut] = 1.0
    return digraph(w)


def random_symmetric_connected(rng: np.random.Generator, n: int,
                               w_lo: float = 0.2, w_hi: float = 1.0) -> WeightedDigraph:
    """Random connected undirected graph (spanning tree plus extra edges)."""
    w = np.zeros((n, n))
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w[i, parent] = w[parent, i] = rng.uniform(w_lo, w_hi)
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = w[j, i] = rng.uniform(w_lo, w_hi)
    return digraph(w)


def reference_csv_lines(sys, traj) -> list[str]:
    """The original per-row formatter, kept as the reference oracle for
    `reporting.trajectory_csv_blocks`: one f-string, two reprs per row."""
    lines = [CSV_HEADER]
    states, dense = traj.sample_states, dense_states(traj).tolist()
    taus = dense_tau_grid(sys.h, traj.blend.shape[1]).tolist()
    kinds = ["continuous" if i < sys.m else "discrete" for i in range(sys.n)]
    for k, row in enumerate(states.tolist()):
        for agent, value in enumerate(row):
            lines.append(f"{k * sys.h!r},{agent + 1},{value!r},{kinds[agent]},sample")
        if k < len(dense):
            for agent, values in enumerate(dense[k]):
                for tau, value in zip(taus, values):
                    lines.append(f"{k * sys.h + tau!r},{agent + 1},{value!r},{kinds[agent]},dense")
    return lines
