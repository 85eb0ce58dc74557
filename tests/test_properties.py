"""Property tests of the structural decision and the root-class nu, over the
conftest graph generators, with scipy's csgraph as the structural oracle;
of nu against exact rational GTH across weak bridges and the Remark-1
regime; of the in-degrees against the dense row sums; of the edge-list
reader against a line-by-line reference; of the edge-form case matrices
against their dense formula; and of the CSV writer against the per-row
reference formatter."""

import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hybridconsensus import graphs
from hybridconsensus.analysis import decide
from hybridconsensus.engine import RunConfig, Trajectory, monte_carlo_mean, simulate_deterministic
from hybridconsensus.errors import ConsensusError, ParseError
from hybridconsensus.graphs import WeightedDigraph, read_edge_list, strong_components
from hybridconsensus.protocols import HybridSystem, case_matrix
from hybridconsensus.reporting import trajectory_csv_blocks
from hybridconsensus.spectral import StochasticMatrix, _gth, left_eigenvector
from oracles import (
    PAPER_X0,
    NotRankOne,
    case_matrix_dense,
    dense,
    digraph,
    edge_form,
    exact_nu,
    has_spanning_tree,
    period_by_powers,
    read_edge_list_by_line,
    sia_limit,
    simulate_gossip,
)
from conftest import (
    PRESETS,
    random_spanning_graph,
    random_split_graph,
    random_symmetric_connected,
    reference_csv_lines,
)

# Same examples on every run and no per-example time limit, so these tests
# neither flake nor time out on a slow host; no example database.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def closed_classes(w: np.ndarray) -> list[np.ndarray]:
    """Vertex sets of the closed strong classes of the "listens to" graph."""
    graph = csr_matrix(w > 0)
    count, label = connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    leaves = set(label[rows][label[rows] != label[cols]].tolist())
    return [np.flatnonzero(label == c) for c in range(count) if c not in leaves]


@st.composite
def systems(draw):
    """(system, case): a spanning or split graph under case 1 or 2, or a
    connected symmetric graph under gossip, with h inside its bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(["spanning", "split", "symmetric"]))
    m = draw(st.integers(0, n))
    frac = draw(st.floats(0.05, 0.95))
    x0 = rng.uniform(-10.0, 10.0, n)
    if kind == "symmetric":
        g = random_symmetric_connected(rng, n)
        return HybridSystem(g, m=m, h=frac / dense(g).max(), x0=x0, probs="uniform"), 3
    if kind == "spanning":
        g = random_spanning_graph(rng, n, extra=int(rng.integers(0, 2 * n)))
    else:
        g = random_split_graph(rng, n)
    case = draw(st.sampled_from([1, 2]))
    d = g.in_degrees
    dmax = d.max() if case == 1 else max(d[m:].max(initial=0.0), 1e-9)
    return HybridSystem(g, m=m, h=frac / dmax, x0=x0), case


def loops_in_every_closed_class(P) -> bool:
    """Every closed class of P has a positive diagonal entry, so it is
    aperiodic: the hypothesis under which one closed class makes P SIA."""
    w = dense(P)
    return all(np.diag(w)[c].max() > 0 for c in closed_classes(w))


#: nu's entrywise relative error is at most NU_ERR_C * n * eps; over 3,000
#: random systems of this kind (n 3-8, cases 1-3) it was at most 0.43 * n * eps
NU_ERR_C = 2


def assert_nu_within_c_n_eps_of_exact(P, nu: np.ndarray) -> None:
    bound = Fraction(NU_ERR_C * P.n) * Fraction(np.finfo(float).eps)
    for got, want in zip(nu.tolist(), exact_nu(P)):
        assert got == 0.0 if want == 0 else abs(Fraction(got) - want) <= bound * want


# The directed 6-ring g1, all agents continuous, with d_ii * h = 1e3: every
# e^{-d_ii h} underflows, so P is the 6-cycle permutation, one closed class
# that is periodic, and P's powers have no limit: consensus is not solvable.
REMARK1_RING = (
    HybridSystem(read_edge_list(PRESETS / "g1.edges"), m=6, h=1e3, x0=PAPER_X0), 2)


@example(REMARK1_RING)
@given(systems())
def test_solvable_iff_one_closed_class_iff_sia(drawn):
    sys, case = drawn
    solvable = decide(sys, case).solvable
    P = case_matrix(sys, case)
    roots = closed_classes(dense(sys.graph))
    # the one closed class must be aperiodic too: in the Remark-1 regime
    # e^{-d_ii h} can underflow to 0 on every row of it
    assert solvable == (len(roots) == 1 and period_by_powers(P, roots[0]) == 1)
    if not loops_in_every_closed_class(P):
        return
    try:
        sia_limit(P)
        sia = True
    except NotRankOne:
        sia = False
    assert solvable == sia


@given(systems())
def test_classes_match_csgraph(drawn):
    g = drawn[0].graph
    w = dense(g)
    label, closed, _ = strong_components(g.n, g.rows, g.cols)
    _, want = connected_components(csr_matrix(w > 0), directed=True, connection="strong")
    # the same partition: labels correspond one to one
    pairs = set(zip(label.tolist(), want.tolist()))
    assert len(pairs) == len(set(want.tolist())) == label.max() + 1
    got = sorted(np.flatnonzero(label == c).tolist() for c in closed)
    assert got == sorted(c.tolist() for c in closed_classes(w))


@example(REMARK1_RING)
@given(systems())
def test_root_class_nu(drawn):
    sys, case = drawn
    roots = closed_classes(dense(sys.graph))
    if len(roots) != 1:
        return
    P = case_matrix(sys, case)
    nu = left_eigenvector(P).nu
    off = np.ones(sys.n, dtype=bool)
    off[roots[0]] = False
    assert np.all(nu[off] == 0.0) and np.all(nu[~off] > 0.0)
    if loops_in_every_closed_class(P):
        _, sia = sia_limit(P)
        assert np.max(np.abs(nu - sia.nu)) < 1e-10
    else:
        assert_nu_within_c_n_eps_of_exact(P, nu)
    value = decide(sys, case).predicted_value
    if value is None:  # the root class is periodic (Remark 1): there is no consensus value
        return
    slack = 1e-12 * np.max(np.abs(sys.x0))
    assert sys.x0.min() - slack <= value <= sys.x0.max() + slack


@st.composite
def bridged_systems(draw):
    """(system, case): two clusters, each a ring plus random chords
    with weights in [0.1, 1], joined by one bridge each way of weight 1 down
    to 1e-300 (symmetric under gossip).  Under case 1-2 the way back may be
    missing, which leaves one cluster transient.  Half the case-2 systems are
    all continuous with h up to 1e3, so d_ii * h >> 1 (Remark 1) and the
    diagonal e^{-d_ii h} underflows to 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, case = draw(st.integers(3, 8)), draw(st.sampled_from([1, 2, 3]))
    cut = draw(st.integers(1, n - 1))
    w = np.zeros((n, n))
    for lo, hi in ((0, cut), (cut, n)):
        ring = np.arange(lo, hi)
        w[ring, np.roll(ring, -1)] = rng.uniform(0.1, 1.0, hi - lo)
        i, j = rng.integers(lo, hi, (2, hi - lo))
        w[i, j] = rng.uniform(0.1, 1.0, hi - lo)
    np.fill_diagonal(w, 0.0)
    if case == 3:
        w = np.maximum(w, w.T)
    bridge = st.sampled_from([1.0, 1e-300]) | st.floats(0.0, 300.0).map(lambda e: 10.0 ** -e)
    a, b = int(rng.integers(0, cut)), int(rng.integers(cut, n))
    w[a, b] = draw(bridge)
    w[b, a] = w[a, b] if case == 3 else draw(bridge | st.just(0.0))
    g = digraph(w)
    m, d, frac = draw(st.integers(0, n)), g.in_degrees, draw(st.floats(0.05, 0.95))
    if case == 2 and draw(st.booleans()):
        return HybridSystem(g, m=n, h=10.0 ** draw(st.floats(1.0, 3.0)), x0=np.zeros(n)), 2
    limit = {1: d.max(), 2: max(d[m:].max(initial=0.0), 1e-9), 3: g.vals.max()}[case]
    probs = "uniform" if case == 3 else None
    return HybridSystem(g, m=m, h=frac / limit, x0=np.zeros(n), probs=probs), case


@given(bridged_systems())
def test_nu_within_c_n_eps_of_exact(drawn):
    """GTH's entrywise relative accuracy (O'Cinneide, Numer. Math. 1993): every
    entry of nu, however small, is within NU_ERR_C * n * eps of the exact nu
    of the float matrix, and nu is exactly zero off the root class."""
    sys, case = drawn
    P = case_matrix(sys, case)
    assert_nu_within_c_n_eps_of_exact(P, left_eigenvector(P).nu)


def test_exact_nu_of_two_states():
    """The exact oracle on [[1 - a, a], [b, 1 - b]], whose nu is (b, a) / (a + b)."""
    a, b = 1e-300, 0.3
    want = [Fraction(b) / (Fraction(a) + Fraction(b)), Fraction(a) / (Fraction(a) + Fraction(b))]
    assert exact_nu(edge_form([[1 - a, a], [b, 1 - b]])) == want


def bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(129, 300), st.floats(0.005, 0.3),
       st.sampled_from([1, 1000, graphs._BLOCK]))
def test_in_degrees_are_dense_row_sums(seed, n, density, block):
    """The in-degrees, summed from the entries a few rows at a time, are
    numpy's pairwise row sums of the dense weights bit for bit, built from
    the array and read from a file.  Rows wider than 128 entries are summed
    as two halves; the weights span 18 decades; some rows are empty; the
    row buffer holds one row, a few, or every row that has entries."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-15, 3, (n, n)) * (rng.random((n, n)) < density)
    w[rng.random(n) < 0.2] = 0.0
    np.fill_diagonal(w, 0.0)
    w[0, 1] = 1.0
    rows, cols = np.nonzero(w)
    lines = [f"n {n}"]
    lines += [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows, cols, w[rows, cols].tolist())]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(graphs, "_BLOCK", block):
        path = Path(tmp) / "g.edges"
        path.write_text("\n".join(lines) + "\n")
        built, read = digraph(w), read_edge_list(path)
    assert np.array_equal(bits(built.in_degrees), bits(w.sum(axis=1)))
    assert np.array_equal(bits(read.in_degrees), bits(w.sum(axis=1)))


@given(st.data())
def test_entries_in_any_order_build_the_same_records(data):
    """Any order of the same entries builds the same graph and the same
    stochastic matrix, array for array and bit for bit.  A pair given twice
    is rejected by both, before zero weights are dropped, and an entry at
    (i, i), which repeats the diagonal's pair, by the matrix."""
    n = data.draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, min_size=1, max_size=n * (n - 1), unique=True))
    weight = st.sampled_from([1.0, 0.5, 2.5, 3e-17, 0.0, -0.0])
    w = np.array(data.draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs))))
    w[0] = 1.0  # at least one edge
    rows, cols = (np.array(c) for c in zip(*pairs))
    diag = 1.0 / (1.0 + np.bincount(rows, w, minlength=n))
    p = w * diag[rows]  # the off-diagonal entries of a stochastic matrix with diagonal `diag`

    def records(at):
        g = WeightedDigraph(n, rows[at], cols[at], w[at])
        P = StochasticMatrix(diag, rows[at], cols[at], p[at])
        return [a.tobytes() for a in (g.rows, g.cols, g.vals, g.in_degrees, P.rows, P.cols, P.vals)]

    order = np.array(data.draw(st.permutations(range(len(pairs)))), dtype=np.intp)
    assert records(order) == records(np.arange(len(pairs)))

    k = data.draw(st.integers(0, len(pairs)))  # where the bad entry goes
    at = np.insert(order, k, data.draw(st.integers(0, len(pairs) - 1)))  # one pair twice
    with pytest.raises(ConsensusError, match="each pair once$"):
        WeightedDigraph(n, rows[at], cols[at], w[at])
    with pytest.raises(ConsensusError, match="each pair once$"):
        StochasticMatrix(diag, rows[at], cols[at], p[at])
    i = data.draw(st.integers(0, n - 1))
    with pytest.raises(ConsensusError, match="each pair once$"):
        StochasticMatrix(diag, np.insert(rows[order], k, i), np.insert(cols[order], k, i),
                         np.insert(p[order], k, data.draw(weight)))


@st.composite
def edge_files(draw):
    """The text of an edge-list file: a valid header, then a mix of good
    lines, lines of 2 or 4 tokens, non-integer and out-of-range indices,
    repeated pairs, zero, negative-zero, NaN and negative weights, and
    comments."""
    n = draw(st.integers(1, 6))
    lines, pairs = [f"n {n}"], []
    kinds = ["good"] * 8 + ["tokens", "not-int", "range", "repeat", "comment"]
    weights = 3 * ["1.0", "0.5", "2.5e-3", "1e-300"] + ["0.0", "-0.0", "nan", "-2", "-2"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        i, j, w = draw(st.integers(1, n)), draw(st.integers(1, n)), draw(st.sampled_from(weights))
        if kind == "repeat" and pairs:
            i, j = draw(st.sampled_from(pairs))
        elif kind in ("not-int", "range"):  # in the first or the second index column
            bad = draw(st.sampled_from(["x", "1.5"] if kind == "not-int" else ["0", str(n + 1)]))
            i, j = draw(st.permutations([bad, j]))
        line = f"{i} {j} {w}"
        if kind == "tokens":
            line = draw(st.sampled_from([f"{i} {j}", f"{line} {w}"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# a comment", "", f"{line}  # trailing"]))
        elif kind in ("good", "repeat"):
            pairs.append((i, j))
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(edge_files())
def test_reader_matches_line_by_line_reference(text):
    """The reader builds the rows, columns, weights and in-degrees that a
    line-by-line reader with a dict of seen pairs builds, bit for bit, or
    raises the same ParseError text."""

    def entries(path):
        g = read_edge_list(path)
        return g.rows, g.cols, g.vals, g.in_degrees

    def result(read, path):
        try:
            return read(path)
        except ParseError as exc:
            return str(exc)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text(text)
        got, want = result(entries, path), result(read_edge_list_by_line, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert [a.tolist() for a in got[:2]] == [a.tolist() for a in want[:2]]
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got[2:], want[2:]))


@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.sampled_from([1, 2, 3]),
       st.floats(0.05, 0.95))
def test_edge_form_matches_dense_formula(seed, n, case, frac):
    """An edge list with weak links (down to 1e-17 relative), zero-weight
    lines (0.0 and -0.0, some on the diagonal) and lines out of order reads
    back to its weights; the case matrix built from the edges is the dense
    formula bit for bit; its closed classes are scipy's; and nu is GTH on
    the dense root block, bit for bit."""
    rng = np.random.default_rng(seed)
    if case == 3:
        w = dense(random_symmetric_connected(rng, n))
    elif rng.random() < 0.8 or n < 4:
        w = dense(random_spanning_graph(rng, n, extra=int(rng.integers(0, 2 * n))))
    else:
        w = dense(random_split_graph(rng, n))
    # weak links, a pair scaled alike both ways so that gossip graphs stay symmetric
    weak = np.triu(rng.random((n, n)) < 0.3, 1)
    scale = np.where(weak, 10.0 ** -rng.integers(8, 18, (n, n)), 1.0)
    w *= scale * scale.T
    rows, cols = np.nonzero(w)
    lines = [f"{i + 1} {j + 1} {float(w[i, j])!r}" for i, j in zip(rows, cols)]
    zi, zj = np.nonzero(w == 0)
    for k in rng.choice(len(zi), size=min(len(zi), 4), replace=False):
        lines.append(f"{zi[k] + 1} {zj[k] + 1} {rng.choice(['0.0', '-0.0'])}")
    rng.shuffle(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text(f"n {n}\n" + "\n".join(lines) + "\n")
        g = read_edge_list(path)
    assert np.array_equal(bits(dense(g)), bits(w))
    assert np.array_equal(bits(g.in_degrees), bits(dense(g).sum(axis=1)))

    m = int(rng.integers(0, n + 1))
    d = g.in_degrees
    limit = {1: d.max(), 2: max(d[m:].max(initial=0.0), 1e-9), 3: w.max()}[case]
    probs = "uniform" if case == 3 else None
    sys = HybridSystem(g, m=m, h=frac / limit, x0=np.zeros(n), probs=probs)
    P = case_matrix(sys, case)
    assert np.array_equal(bits(dense(P)), bits(case_matrix_dense(sys, case)))

    label, closed, _ = strong_components(P.n, P.rows, P.cols)
    roots = closed_classes(dense(P))
    assert sorted(np.flatnonzero(label == c).tolist() for c in closed) == sorted(
        r.tolist() for r in roots)
    if len(roots) == 1:
        want = np.zeros(n)
        want[roots[0]] = _gth(dense(P)[np.ix_(roots[0], roots[0])])
        want /= want.sum()
        assert np.array_equal(bits(left_eigenvector(P).nu), bits(want))


@given(
    systems(),
    st.integers(0, 6),
    st.integers(0, 4),
    st.lists(st.sampled_from([0.0, -0.0]), max_size=4),
    st.booleans(),
)
def test_csv_matches_reference(drawn, steps, dense, zeros, mean):
    """Byte-identical rows for any run: deterministic, one gossip run's samples
    or a Monte-Carlo mean, with leading agents started at signed zeros."""
    sys, case = drawn
    x0 = sys.x0.copy()
    x0[: len(zeros)] = zeros  # n >= 4
    # a Python float h: the reference writes a numpy scalar's times as "np.float64(...)"
    probs = None if sys.schedule is None else sys.schedule.probs
    sys = HybridSystem(sys.graph, sys.m, float(sys.h), x0, probs)
    cfg = RunConfig(steps=steps, dense_per_step=dense, trials=2)
    if case != 3:
        traj = simulate_deterministic(sys, case, cfg)
    elif mean:
        traj = monte_carlo_mean(sys, cfg)
    else:  # one gossip run, as the mean's trials are: sample rows only
        traj = Trajectory(simulate_gossip(sys, steps, cfg.seed)[0], np.empty((sys.m, 0)), np.zeros(sys.n))
    want = "\n".join(reference_csv_lines(sys, traj)) + "\n"
    assert "".join(trajectory_csv_blocks(sys, traj)) == want


def test_long_directed_path():
    """Vertex i hears vertex i + 1 only, so the head is n - 1 and a search
    from vertex 0 runs 2,000 deep, twice Python's default recursion limit:
    the SCC pass must not recurse."""
    n, h = 2000, 0.5
    idx = np.arange(n - 1)
    w = np.zeros((n, n))
    w[idx, idx + 1] = 1.0
    assert has_spanning_tree(digraph(w))
    del w
    # the case-1 map I - hL, written in place to keep one n x n array alive
    P = np.eye(n)
    P[idx, idx] = 1.0 - h
    P[idx, idx + 1] = h
    nu = left_eigenvector(edge_form(P)).nu
    assert nu[-1] == 1.0 and not np.any(nu[:-1])
