"""Weighted digraphs, the structure the consensus theorems condition on, and
the edge-list file format.

Convention: ``a[i, j] > 0`` means agent ``i`` receives information from
agent ``j`` (``j`` is a neighbour of ``i``).  All structure comes from one
strongly-connected-class pass over this "listens to" graph: a closed class
hears nobody outside itself, so its states evolve on their own.  A directed
spanning tree exists exactly when one class is closed (the root class);
two closed classes never hear each other and so witness that consensus
fails.

A graph is held as its edges alone: the positive entries sorted by row,
then column, and the in-degrees.  The n x n weights are constructor input,
which the edge-list reader fills and then lets go.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidGraph, ParseError


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Nonnegative n x n adjacency structure, immutable after construction:
    the positive entries `vals` at (`rows`, `cols`), sorted by row, then
    column, and the in-degrees.  `weights` is constructor input only."""

    weights: InitVar[np.ndarray]
    n: int = field(init=False)
    rows: np.ndarray = field(init=False, repr=False)
    cols: np.ndarray = field(init=False, repr=False)
    vals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InvalidGraph(f"weights must be a square matrix, got shape {w.shape}")
        n = w.shape[0]
        at = np.flatnonzero(w != 0)  # NaN included, -0.0 not
        rows, cols = np.divmod(at, n)
        vals = w.ravel()[at]
        if not np.all(np.isfinite(vals)):
            raise InvalidGraph("weights must be finite")
        if np.any(vals < 0):
            raise InvalidGraph("weights must be nonnegative")
        if np.any(rows == cols):
            raise InvalidGraph("self-loops (nonzero diagonal) are not allowed")
        if not len(vals):
            raise InvalidGraph("graph must contain at least one edge")
        # numpy's pairwise row sums: `bounds` prints 1/max d_ii, whose last bit
        # a sum over the entries alone (np.bincount) can change
        degrees = w.sum(axis=1)
        object.__setattr__(self, "n", n)
        for name, value in (("rows", rows), ("cols", cols), ("vals", vals),
                            ("_in_degrees", degrees)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def in_degrees(self) -> np.ndarray:
        """d_ii = sum_j a_ij for every vertex (read-only, computed once)."""
        return self._in_degrees

    @cached_property
    def is_symmetric(self) -> bool:
        """a_ij = a_ji for every pair (computed on first use)."""
        t = np.lexsort((self.rows, self.cols))  # the transpose's entries, sorted by row
        return bool(
            np.array_equal(self.cols[t], self.rows)
            and np.array_equal(self.rows[t], self.cols)
            and np.array_equal(self.vals[t], self.vals)
        )


def strong_components(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(label, closed): the strong class of every vertex of the "listens
    to" graph on vertices 0..n-1 with the edges rows[e] -> cols[e] (sorted
    by row, none from a vertex to itself), and the labels of the closed
    classes, which no edge leaves.

    One iterative pass of Tarjan's algorithm (SIAM J. Comput. 1972), so no
    recursion however long the paths; O(n + e).
    """
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


def _columns(fields: list[list[str]]) -> tuple[list[int], list[int], list[float]]:
    """The i, j and w columns of `i j w` token lines, read by int, int and float."""
    i, j, w = zip(*fields) if fields else ((), (), ())
    return list(map(int, i)), list(map(int, j)), list(map(float, w))


def _parses(tokens: list[str]) -> bool:
    try:
        _columns([tokens])
    except ValueError:
        return False
    return True


def read_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse the `n <count>` / `i j w` edge-list format.

    The edge lines are read column by column.  Their checks run in the
    order a line-by-line reader makes them, each on the lines before the
    first that an earlier check rejected, so the error raised names the
    first bad line.  Duplicate `i j` pairs are found by sorting.
    """
    path = Path(path)
    lines = content_lines(path)
    lineno, line = next(lines, (None, ""))
    if lineno is None:
        raise ParseError(f"{path}: missing 'n <count>' header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"{path}:{lineno}: expected header 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad vertex count") from exc
    if n < 1:
        raise ParseError(f"{path}:{lineno}: vertex count must be positive")
    try:
        weights = np.zeros((n, n))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond any address space
        raise ParseError(f"{path}:{lineno}: no room for {n} x {n} weights: {exc}") from exc

    body = list(lines)
    fields = [text.split() for _, text in body]
    bad = next((k for k, tokens in enumerate(fields) if len(tokens) != 3), len(fields))
    error = "expected 'i j w'"
    try:
        i, j, w = _columns(fields[:bad])
    except ValueError:
        bad, error = next(k for k in range(bad) if not _parses(fields[k])), "bad edge entry"
        i, j, w = _columns(fields[:bad])
    if i and not (1 <= min(i) and max(i) <= n and 1 <= min(j) and max(j) <= n):
        bad = next(k for k, ij in enumerate(zip(i, j)) if not all(1 <= x <= n for x in ij))
        error = f"index out of range 1..{n}"
    rows, cols = np.array(i[:bad], dtype=np.intp) - 1, np.array(j[:bad], dtype=np.intp) - 1
    order = np.argsort(rows * n + cols, kind="stable")  # by row, then column, then line
    rows, cols, vals = rows[order], cols[order], np.array(w[:bad], dtype=float)[order]
    (again,) = np.nonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if again.size:  # the first line that repeats an earlier one
        s = again[np.argmin(order[again + 1])]
        bad, first = int(order[s + 1]), body[order[s]][0]
        error = f"duplicate edge {rows[s] + 1} {cols[s] + 1} (first on line {first})"
    if bad < len(body):
        raise ParseError(f"{path}:{body[bad][0]}: {error}")
    weights[rows, cols] = vals
    try:
        return WeightedDigraph(weights)
    except InvalidGraph as exc:
        raise ParseError(f"{path}: {exc}") from exc
