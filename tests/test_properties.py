"""Property tests of the structural decision and the root-class nu, over the
conftest graph generators, with scipy's csgraph as the structural oracle;
of the edge-form case matrices against their dense formula; and of the CSV
writer against the per-row reference formatter."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hybridconsensus import (
    GossipSchedule,
    HybridSystem,
    RunConfig,
    WeightedDigraph,
    check_stochastic,
    decide,
    left_eigenvector,
    monte_carlo_mean,
    read_edge_list,
    simulate_deterministic,
)
from hybridconsensus.graphs import strong_components
from hybridconsensus.protocols import protocol
from hybridconsensus.spectral import _gth
from hybridconsensus.reporting import trajectory_csv_blocks
from oracles import NotRankOne, case_matrix_dense, dense, edge_form, has_spanning_tree, sia_limit, simulate_gossip
from conftest import (
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
    """(system, case, schedule): a spanning or split graph under case 1 or 2,
    or a connected symmetric graph under gossip, with h inside its bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(["spanning", "split", "symmetric"]))
    m = draw(st.integers(0, n))
    frac = draw(st.floats(0.05, 0.95))
    x0 = rng.uniform(-10.0, 10.0, n)
    if kind == "symmetric":
        g = random_symmetric_connected(rng, n)
        sys = HybridSystem(g, m=m, h=frac / dense(g).max(), x0=x0)
        return sys, 3, GossipSchedule.uniform(g)
    if kind == "spanning":
        g = random_spanning_graph(rng, n, extra=int(rng.integers(0, 2 * n)))
    else:
        g = random_split_graph(rng, n)
    case = draw(st.sampled_from([1, 2]))
    d = g.in_degrees()
    dmax = d.max() if case == 1 else max(d[m:].max(initial=0.0), 1e-9)
    return HybridSystem(g, m=m, h=frac / dmax, x0=x0), case, None


@given(systems())
def test_solvable_iff_one_closed_class_iff_sia(drawn):
    sys, case, sched = drawn
    solvable = decide(sys, case, sched).solvable
    try:
        sia_limit(protocol(case).matrix(sys, sched))
        sia = True
    except NotRankOne:
        sia = False
    assert solvable == (len(closed_classes(dense(sys.graph))) == 1) == sia


@given(systems())
def test_classes_match_csgraph(drawn):
    g = drawn[0].graph
    w = dense(g)
    label, closed = strong_components(g.n, g.rows, g.cols)
    _, want = connected_components(csr_matrix(w > 0), directed=True, connection="strong")
    # the same partition: labels correspond one to one
    pairs = set(zip(label.tolist(), want.tolist()))
    assert len(pairs) == len(set(want.tolist())) == label.max() + 1
    got = sorted(np.flatnonzero(label == c).tolist() for c in closed)
    assert got == sorted(c.tolist() for c in closed_classes(w))


@given(systems())
def test_root_class_nu(drawn):
    sys, case, sched = drawn
    roots = closed_classes(dense(sys.graph))
    if len(roots) != 1:
        return
    P = protocol(case).matrix(sys, sched)
    nu = left_eigenvector(P).nu
    off = np.ones(sys.n, dtype=bool)
    off[roots[0]] = False
    assert np.all(nu[off] == 0.0) and np.all(nu[~off] > 0.0)
    _, sia = sia_limit(P)
    assert np.max(np.abs(nu - sia.nu)) < 1e-10
    value = decide(sys, case, sched).predicted_value
    slack = 1e-12 * np.max(np.abs(sys.x0))
    assert sys.x0.min() - slack <= value <= sys.x0.max() + slack


def bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


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
    assert np.array_equal(bits(g.in_degrees()), bits(dense(g).sum(axis=1)))

    m = int(rng.integers(0, n + 1))
    d = g.in_degrees()
    limit = {1: d.max(), 2: max(d[m:].max(initial=0.0), 1e-9), 3: w.max()}[case]
    sys = HybridSystem(g, m=m, h=frac / limit, x0=np.zeros(n))
    sched = GossipSchedule.uniform(g) if case == 3 else None
    P = protocol(case).matrix(sys, sched)
    assert np.array_equal(bits(P.entries), bits(case_matrix_dense(sys, case, sched)))

    label, closed = strong_components(P.n, P.rows, P.cols)
    roots = closed_classes(P.entries)
    assert sorted(np.flatnonzero(label == c).tolist() for c in closed) == sorted(
        r.tolist() for r in roots)
    if len(roots) == 1:
        want = np.zeros(n)
        want[roots[0]] = _gth(P.entries[np.ix_(roots[0], roots[0])])
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
    """Byte-identical rows for any run: deterministic, one gossip run or a
    Monte-Carlo mean, with leading agents started at signed zeros."""
    sys, case, sched = drawn
    x0 = sys.x0.copy()
    x0[: len(zeros)] = zeros  # n >= 4
    # a Python float h: the reference writes a numpy scalar's times as "np.float64(...)"
    sys = replace(sys, x0=x0, h=float(sys.h))
    cfg = RunConfig(steps=steps, dense_per_step=dense, trials=2)
    if case != 3:
        traj = simulate_deterministic(sys, case, cfg)
    elif mean:
        traj = monte_carlo_mean(sys, sched, cfg)
    else:
        traj, _ = simulate_gossip(sys, sched, cfg)
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
    assert has_spanning_tree(WeightedDigraph(w))
    del w
    # the case-1 map I - hL, written in place to keep one n x n array alive
    P = np.eye(n)
    P[idx, idx] = 1.0 - h
    P[idx, idx + 1] = h
    nu = left_eigenvector(check_stochastic(edge_form(P))).nu
    assert nu[-1] == 1.0 and not np.any(nu[:-1])
