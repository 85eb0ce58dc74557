"""Weighted digraphs, the structure the consensus theorems condition on, and
the edge-list file format.

Convention: ``a[i, j] > 0`` means agent ``i`` receives information from
agent ``j`` (``j`` is a neighbour of ``i``).  All structure comes from one
strongly-connected-class pass over this "listens to" graph: a closed class
hears nobody outside itself, so its states evolve on their own.  A directed
spanning tree exists exactly when one class is closed (the root class);
two closed classes never hear each other and so witness that consensus
fails.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
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
        w = w + 0.0  # a copy, with any -0.0 weight made +0.0
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


def strong_components(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(label, closed): the strong class of every vertex of the "listens
    to" graph of a nonnegative square array (edge i -> j wherever w[i, j] > 0
    and i != j), and the labels of the closed classes, which no edge leaves.

    One iterative pass of Tarjan's algorithm (SIAM J. Comput. 1972), so no
    recursion however long the paths; O(n + e) after the O(n^2) scan of w.
    """
    n = len(w)
    rows, cols = np.nonzero((np.asarray(w) > 0) & ~np.eye(n, dtype=bool))
    start, succ = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    index, low, label, stack, work = [-1] * n, [0] * n, [-1] * n, [], []
    tick, count = itertools.count(), 0

    def enter(v: int) -> None:
        index[v] = low[v] = next(tick)
        stack.append(v)
        work.append((v, iter(succ[start[v] : start[v + 1]])))

    for root in range(n):
        if index[root] < 0:
            enter(root)
        while work:
            v, todo = work[-1]
            for u in todo:
                if index[u] < 0:
                    enter(u)
                    break
                if label[u] < 0:  # visited, unlabelled: still on the stack
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = count
                    count += 1
    label = np.array(label, dtype=np.intp)
    closed = np.ones(count, dtype=bool)
    closed[label[rows][label[rows] != label[cols]]] = False
    return label, np.flatnonzero(closed)


# --- edge-list file format ---------------------------------------------------
#
#   # optional comments
#   n 6
#   1 2 0.5        ->  a_12 = 0.5  (1-based indices)


def content_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every line of the UTF-8 text file `path` that
    holds more than a `#` comment, with the comment and outer blanks cut."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    # "\n" only, as grep -n counts: str.splitlines also breaks at \f, U+2028 and
    # other characters a comment may hold.  read_text made \r\n and \r into \n.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse the `n <count>` / `i j w` edge-list format."""
    path = Path(path)
    n = None
    entries: dict[tuple[int, int], tuple[float, int]] = {}  # (i, j) -> (w, line number)
    for lineno, line in content_lines(path):
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
        first = entries.setdefault((i, j), (w, lineno))[1]
        if first != lineno:
            raise ParseError(f"{path}:{lineno}: duplicate edge {i} {j} (first on line {first})")
    if n is None:
        raise ParseError(f"{path}: missing 'n <count>' header")
    weights = np.zeros((n, n))
    for (i, j), (w, _) in entries.items():
        weights[i - 1, j - 1] = w
    try:
        return WeightedDigraph(weights)
    except InvalidGraph as exc:
        raise ParseError(f"{path}: {exc}") from exc
