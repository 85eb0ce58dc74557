"""Weighted digraphs, Laplacians and the reachability properties the
consensus theorems condition on.

Convention: ``a[i, j] > 0`` means agent ``i`` receives information from
agent ``j`` (``j`` is a neighbour of ``i``).  Reachability questions
("a root disseminates to everyone") therefore walk the reversed edges:
the successors of vertex ``v`` are ``{i : a[i, v] > 0}``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AsymmetricGraph, InvalidGraph, ParseError


@dataclass(frozen=True)
class WeightedDigraph:
    """Nonnegative n x n adjacency structure, immutable after construction."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InvalidGraph(f"weights must be a square matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidGraph("weights must be finite")
        if np.any(w < 0):
            raise InvalidGraph("weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise InvalidGraph("self-loops (nonzero diagonal) are not allowed")
        if not np.any(w > 0):
            raise InvalidGraph("graph must contain at least one edge")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def in_degrees(self) -> np.ndarray:
        """d_ii = sum_j a_ij for every vertex."""
        return self.weights.sum(axis=1)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.weights, self.weights.T))

    def edges(self) -> list[tuple[int, int]]:
        """Unordered positive-weight pairs (i, j), i < j, of a symmetric graph."""
        if not self.is_symmetric():
            raise AsymmetricGraph("edge enumeration requires a symmetric graph")
        i_idx, j_idx = np.nonzero(np.triu(self.weights))
        return list(zip(i_idx.tolist(), j_idx.tolist()))


@dataclass(frozen=True)
class GraphMatrices:
    """Laplacian derived from a graph."""

    laplacian: np.ndarray


def build_matrices(g: WeightedDigraph) -> GraphMatrices:
    """Laplacian L = D - A, D = diag(row sums)."""
    return GraphMatrices(laplacian=np.diag(g.in_degrees()) - g.weights)


def _reachable(g: WeightedDigraph, root: int) -> np.ndarray:
    """Vertices that hear `root` (directly or through intermediaries)."""
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for i in np.nonzero(g.weights[:, v] > 0)[0]:
            if not seen[i]:
                seen[i] = True
                queue.append(int(i))
    return seen


def has_spanning_tree(g: WeightedDigraph) -> bool:
    """True iff some root's information reaches every vertex.

    Plain reachability sweep from each candidate root; O(n * (n + e)),
    fine at desk scale.
    """
    return any(_reachable(g, root).all() for root in range(g.n))


def dependency_closure(g: WeightedDigraph, v: int) -> frozenset[int]:
    """Smallest vertex set containing v that is closed under "listens to".

    The states of a closed set evolve independently of the rest of the
    network; disjoint closed sets are the witness that consensus fails.
    """
    seen = np.zeros(g.n, dtype=bool)
    seen[v] = True
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for j in np.nonzero(g.weights[u] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                queue.append(int(j))
    return frozenset(np.nonzero(seen)[0].tolist())


def is_connected_undirected(g: WeightedDigraph) -> bool:
    """Connectivity of a symmetric graph; rejects asymmetric input."""
    if not g.is_symmetric():
        raise AsymmetricGraph("connectivity check requires a_ij == a_ji")
    return bool(_reachable(g, 0).all())


# --- edge-list file format ---------------------------------------------------
#
#   # optional comments
#   n 6
#   1 2 0.5        ->  a_12 = 0.5  (1-based indices)


def read_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse the `n <count>` / `i j w` edge-list format."""
    path = Path(path)
    n = None
    entries: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"{path}:{lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad vertex count") from exc
            if n < 1:
                raise ParseError(f"{path}:{lineno}: vertex count must be positive")
            continue
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j w'")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad edge entry") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{path}:{lineno}: index out of range 1..{n}")
        entries.append((i - 1, j - 1, w))
    if n is None:
        raise ParseError(f"{path}: missing 'n <count>' header")
    weights = np.zeros((n, n))
    for i, j, w in entries:
        weights[i, j] = w
    try:
        return WeightedDigraph(weights)
    except InvalidGraph as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_edge_list(g: WeightedDigraph, path: str | Path) -> None:
    """Write the edge-list format; weights use repr so reads are bit-exact."""
    lines = [f"n {g.n}"]
    for i in range(g.n):
        for j in range(g.n):
            w = g.weights[i, j]
            if w > 0:
                lines.append(f"{i + 1} {j + 1} {float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
