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
then column, and the in-degrees.  It is built from its entries in any
order, as the edge-list reader does; no n x n array is made.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ConsensusError, ParseError

# numbers in the dense buffer the in-degrees are summed from: 1 MB stays in
# cache, where 8 MB made a fresh process read an n=1000 graph 4 ms slower
_BLOCK = 2**17


def sorted_entries(n: int, rows, cols, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, vals) in edge form: sorted by row, then column,
    with a row's diagonal entry last.  Raises ConsensusError unless the three
    have one length, every index is an integer in 0..n-1, each pair is given
    once and n * (n + 1) fits an index."""
    if not len(rows) == len(cols) == len(vals):
        raise ConsensusError("rows, cols and vals must be of equal length")
    given = rows, cols
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if not all(a is b or np.array_equal(a, b) for a, b in zip((rows, cols), given)):
        raise ConsensusError("vertex indices must be integers")  # the cast truncated one
    if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
        raise ConsensusError(f"vertex indices must lie in 0..{n - 1}")
    if n > np.iinfo(np.intp).max // (n + 1):
        raise ConsensusError(f"no room for {n} vertices: n * (n + 1) overflows an index")
    key = rows * (n + 1) + np.where(rows == cols, n, cols)
    order = np.argsort(key, kind="stable")
    if np.any(np.diff(key[order]) == 0):
        raise ConsensusError("entries must name each pair once")
    return rows[order], cols[order], np.asarray(vals, dtype=float)[order]


class WeightedDigraph:
    """Nonnegative n x n adjacency structure: the weights `vals` at the
    integer indices (`rows`, `cols`), in any order, each pair once.  Zero
    weights are no edge and are dropped; the positive entries, sorted by row,
    then column, and the in-degrees d_ii = sum_j a_ij are held as read-only
    arrays.  Raises ConsensusError unless the entries pass `sorted_entries`,
    every weight is finite, nonnegative and off the diagonal, and one is positive."""

    def __init__(self, n: int, rows, cols, vals):
        rows, cols, vals = sorted_entries(n, rows, cols, vals)
        keep = vals != 0  # NaN included, -0.0 not
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if not np.all(np.isfinite(vals)):
            raise ConsensusError("weights must be finite")
        if np.any(vals < 0):
            raise ConsensusError("weights must be nonnegative")
        if np.any(rows == cols):
            raise ConsensusError("self-loops (nonzero diagonal) are not allowed")
        if not len(vals):
            raise ConsensusError("graph must contain at least one edge")
        # numpy's pairwise row sums, bit for bit the dense array's: `bounds` prints
        # 1/max d_ii, whose last bit a sum in entry order can change.  The rows with
        # entries fill one dense buffer of _BLOCK numbers a few at a time.
        degrees, (filled, slot) = np.zeros(n), np.unique(rows, return_inverse=True)
        step = max(1, _BLOCK // n)
        block = np.zeros((min(step, len(filled)), n))
        for lo in range(0, len(filled), step):
            a, b = np.searchsorted(slot, (lo, lo + step))
            at, here = (slot[a:b] - lo, cols[a:b]), filled[lo : lo + step]
            block[at] = vals[a:b]
            degrees[here] = block[: len(here)].sum(axis=1)
            block[at] = 0.0
        for a in (rows, cols, vals, degrees):
            a.setflags(write=False)
        self.n, self.rows, self.cols, self.vals, self.in_degrees = n, rows, cols, vals, degrees

    def is_symmetric(self) -> bool:
        """a_ij = a_ji for every pair."""
        transpose = sorted_entries(self.n, self.cols, self.rows, self.vals)
        return all(map(np.array_equal, transpose, (self.rows, self.cols, self.vals)))


def strong_components(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(label, closed, depth): the strong class of every vertex of the
    "listens to" graph on vertices 0..n-1 with the edges rows[e] -> cols[e]
    (sorted by row), the labels of the closed classes, which no edge leaves,
    and each vertex's depth in the search forest.  A self-loop changes no
    strong class, so a matrix's entries, diagonal included, may be passed as
    they are.

    A class's vertices span a subtree of the forest, so within a class the
    depth counts the steps of a path along its own edges from the vertex it
    was entered by.  The gcd of depth[i] + 1 - depth[j] over the class's
    edges i -> j is then its period, the gcd of its cycle lengths.

    One iterative pass of Tarjan's algorithm (SIAM J. Comput. 1972), so no
    recursion however long the paths; O(n + e).
    """
    start, succ = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    index, low, label, depth, stack, work = [-1] * n, [0] * n, [-1] * n, [0] * n, [], []
    tick, count = itertools.count(), 0

    def enter(v: int) -> None:
        index[v] = low[v] = next(tick)
        depth[v] = len(work)
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
    return label, np.flatnonzero(closed), np.array(depth, dtype=np.intp)


# --- edge-list file format ---------------------------------------------------
#
#   # optional comments
#   n 6
#   1 2 0.5        ->  a_12 = 0.5  (1-based indices)


def content_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every line of the UTF-8 text file `path` that
    holds more than a `#` comment, with the comment and outer blanks cut.
    A leading byte-order mark, which some editors write, is dropped."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    # "\n" only, as grep -n counts: str.splitlines also breaks at \f, U+2028 and
    # other characters a comment may hold.  read_text made \r\n and \r into \n.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def read_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse the `n <count>` / `i j w` edge-list format.

    Each edge line is checked once, as it is read: token count, `int`, `int`,
    `float`, index range, and a pair not given on an earlier line, so the
    error raised names the first bad line.  Every failure is a ParseError
    naming the file, the graph's own checks (a ConsensusError) included.
    """
    path = Path(path)
    lines = content_lines(path)
    header, line = next(lines, (None, ""))
    if header is None:
        raise ParseError(f"{path}: missing 'n <count>' header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"{path}:{header}: expected header 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"{path}:{header}: bad vertex count") from exc
    if n < 1:
        raise ParseError(f"{path}:{header}: vertex count must be positive")
    if n > np.iinfo(np.intp).max // (n + 1):  # the sort key of sorted_entries would overflow
        raise ParseError(f"{path}:{header}: no room for {n} vertices: n * (n + 1) overflows an index")

    vals, first = [], {}
    for lineno, text in lines:
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j w'")
        try:
            i, j, v = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad edge entry") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{path}:{lineno}: index out of range 1..{n}")
        seen = first.setdefault(i * n + j, lineno)  # below n * (n + 1), as the header checked
        if seen != lineno:
            raise ParseError(f"{path}:{lineno}: duplicate edge {i} {j} (first on line {seen})")
        vals.append(v)
    rows, cols = np.divmod(np.fromiter(first, dtype=np.intp, count=len(first)) - n - 1, n)
    try:
        return WeightedDigraph(n, rows, cols, vals)
    except ConsensusError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise ParseError(f"{path}:{header}: no room for {n} vertices: {exc}") from exc
