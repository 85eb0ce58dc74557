import itertools
import time
import tracemalloc

import numpy as np
import pytest

from hybridconsensus import graphs
from hybridconsensus.errors import ConsensusError, ParseError
from hybridconsensus.graphs import WeightedDigraph, read_edge_list, strong_components
from hybridconsensus.protocols import GossipSchedule
from oracles import dense, digraph, edge_form, has_spanning_tree, laplacian
from conftest import random_spanning_graph, ring_graph


class TestConstruction:
    def test_rejects_negative_weight(self):
        with pytest.raises(ConsensusError, match="^weights must be nonnegative$"):
            WeightedDigraph(2, [0, 1], [1, 0], [-1.0, 1.0])

    def test_rejects_self_loop(self):
        with pytest.raises(ConsensusError, match=r"^self-loops \(nonzero diagonal\) are not allowed$"):
            WeightedDigraph(2, [0, 0, 1], [0, 1, 0], [0.5, 1.0, 1.0])

    def test_rejects_edgeless(self):
        with pytest.raises(ConsensusError, match="^graph must contain at least one edge$"):
            WeightedDigraph(3, [], [], [])

    def test_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ConsensusError, match="^weights must be finite$"):
                WeightedDigraph(2, [0, 1], [1, 0], [bad, 1.0])

    @pytest.mark.parametrize("rows, cols", [([0, 2], [1, 0]), ([0, 1], [1, -1])], ids=["n", "-1"])
    def test_rejects_index_out_of_range(self, rows, cols):
        with pytest.raises(ConsensusError, match=r"^vertex indices must lie in 0\.\.1$"):
            WeightedDigraph(2, rows, cols, [1.0, 1.0])

    def test_shuffled_entries_give_the_same_graph(self):
        # entries come in any order, a zero on the diagonal among them: every
        # order builds the same arrays, bit for bit
        entries = [(0, 1, 0.5), (0, 2, 3e-17), (1, 0, 2.0), (1, 1, 0.0), (2, 0, 1.0), (2, 1, 0.25)]
        held = []
        for shuffled in itertools.permutations(entries):
            g = WeightedDigraph(3, *(np.array(c) for c in zip(*shuffled)))
            held.append([a.tobytes() for a in (g.rows, g.cols, g.vals, g.in_degrees)])
        assert all(arrays == held[0] for arrays in held)
        assert (g.rows.tolist(), g.cols.tolist()) == ([0, 0, 1, 2, 2], [1, 2, 0, 0, 1])
        assert g.vals.tolist() == [0.5, 3e-17, 2.0, 1.0, 0.25]

    @pytest.mark.parametrize("rows, cols", [([0.7, 1.9], [1.2, 0.4]), (np.array([0.0, 1.5]), np.array([1.0, 0.0]))],
                             ids=["list", "array"])
    def test_rejects_fractional_index(self, rows, cols):
        # an index cast truncates them to the edges 0 -> 1 and 1 -> 0
        with pytest.raises(ConsensusError, match="^vertex indices must be integers$"):
            WeightedDigraph(2, rows, cols, [1.0, 2.0])

    def test_integral_float_indices_accepted(self):
        g = WeightedDigraph(2, np.array([0.0, 1.0]), [1.0, 0.0], [1.0, 2.0])
        assert (g.rows.tolist(), g.cols.tolist(), g.vals.tolist()) == ([0, 1], [1, 0], [1.0, 2.0])

    def test_rejects_repeated_pair(self):
        # a zero weight repeats its pair too: pairs are checked before zeros are dropped
        for vals in ([1.0, 2.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(ConsensusError, match="each pair once$"):
                WeightedDigraph(2, [0, 0, 1], [1, 1, 0], vals)

    @pytest.mark.parametrize("rows, cols, vals", [([0, 1], [1, 0], [1.0, 2.0, 3.0]), ([0, 1], [1, 0], [1.0]),
                                                  ([0, 1], [1], [1.0, 2.0])], ids=["vals-longer", "vals-shorter", "cols-shorter"])
    def test_rejects_entry_arrays_of_unequal_length(self, rows, cols, vals):
        # a longer vals would otherwise be cut to the indices' length without a word
        with pytest.raises(ConsensusError, match="^rows, cols and vals must be of equal length$"):
            WeightedDigraph(2, rows, cols, vals)

    def test_rejects_count_whose_order_key_overflows(self):
        # the entries are ordered by the key row * (n + 1) + column, which
        # must fit an index; this is checked before anything n long is made
        with pytest.raises(ConsensusError, match=r"^no room for 10000000000000 vertices: n \* \(n \+ 1\)"):
            WeightedDigraph(10**13, [0, 1], [1, 0], [1.0, 1.0])

    def test_negative_zero_is_no_edge(self):
        # -0.0 entries, diagonal ones included, are no edges, and a row of
        # them has in-degree +0.0
        g = WeightedDigraph(2, [0, 0, 1, 1], [0, 1, 0, 1], [-0.0, 1.0, -0.0, -0.0])
        assert (g.rows.tolist(), g.cols.tolist(), g.vals.tolist()) == ([0], [1], [1.0])
        assert np.array_equal(g.in_degrees.view(np.int64), np.array([1.0, 0.0]).view(np.int64))

    def test_weights_immutable(self):
        g = ring_graph(3)
        for stored in (g.rows, g.cols, g.vals, g.in_degrees):
            with pytest.raises(ValueError):
                stored[0] = 2

    def test_caller_arrays_stay_writable(self):
        # the graph holds copies: the arrays a caller passes are left as they were
        rows, cols, vals = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0])
        WeightedDigraph(2, rows, cols, vals)
        assert rows.flags.writeable and cols.flags.writeable and vals.flags.writeable


class TestBuildMatrices:
    def test_two_node_symmetric(self):
        g = digraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        L = laplacian(g)
        np.testing.assert_array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_edge(self):
        g = digraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
        L = laplacian(g)
        np.testing.assert_array_equal(L, [[0.0, 0.0], [-1.0, 1.0]])

    def test_six_ring_hand_expansion(self):
        g = ring_graph(6)
        L = laplacian(g)
        expected = np.eye(6)
        for i in range(6):
            expected[i, (i - 1) % 6] = -1.0
        np.testing.assert_array_equal(L, expected)


class TestSpanningTree:
    def test_directed_ring(self):
        assert has_spanning_tree(ring_graph(6))

    def test_two_disconnected_cliques(self):
        w = np.zeros((6, 6))
        for block in (range(3), range(3, 6)):
            for i in block:
                for j in block:
                    if i != j:
                        w[i, j] = 1.0
        assert not has_spanning_tree(digraph(w))

    def test_inward_star(self):
        # the center hears every leaf; no information ever reaches a leaf
        w = np.zeros((6, 6))
        w[0, 1:] = 1.0
        assert not has_spanning_tree(digraph(w))

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_spanning_graph(rng, 7, extra=3, w_lo=0.1)
            assert has_spanning_tree(g)
            w = dense(g)
            i, j = rng.integers(0, 7, size=2)
            if i != j:
                w[i, j] = 0.5
            assert has_spanning_tree(digraph(w))

    @pytest.mark.parametrize("seed", range(30))
    def test_self_loops_change_no_class(self, seed):
        # a matrix's entries, its diagonal last in each row, go in as they are
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        w = (rng.random((n, n)) < rng.uniform(0.02, 0.3)).astype(float)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = 1.0  # at least one edge
        looped = w + np.eye(n)
        g, looped = digraph(w), edge_form(looped / looped.sum(axis=1, keepdims=True))
        assert np.count_nonzero(looped.rows == looped.cols) == n
        label, closed, _ = strong_components(n, g.rows, g.cols)
        with_loops = strong_components(n, looped.rows, looped.cols)
        assert np.array_equal(label, with_loops[0]) and np.array_equal(closed, with_loops[1])


class TestConnectivity:
    """On a symmetric graph a spanning tree is connectivity (case 3)."""

    def test_path_graph(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        assert has_spanning_tree(digraph(w))

    def test_isolated_vertex(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        assert not has_spanning_tree(digraph(w))

    def test_asymmetric_rejected(self):
        g = ring_graph(4)
        with pytest.raises(ConsensusError, match="^gossip requires a symmetric graph$"):
            GossipSchedule(g, np.full(4, 0.25))
        with pytest.raises(ConsensusError, match="^gossip requires a symmetric graph$"):
            GossipSchedule(g, "uniform")

    def test_matches_spanning_tree_on_symmetric_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.3)
            w = np.triu(w, 1)
            w = w + w.T
            if not np.any(w > 0):
                w[0, 1] = w[1, 0] = 1.0
            g = digraph(w)
            # connected iff every walk count of length n - 1 in I + A is positive
            walks = np.linalg.matrix_power(np.eye(n) + (w > 0), n - 1)
            assert bool(np.all(walks > 0)) == has_spanning_tree(g)


class TestEdgeListFormat:
    def test_vertex_count_beyond_memory_rejected(self, tmp_path):
        # 10^18 in-degrees need 7 EiB, and n * (n + 1) overflows the key of the
        # entries' order: the header is rejected on every host
        path = tmp_path / "g.edges"
        path.write_text("# a count no host can hold\nn 1000000000000000000\n1 2 1.0\n2 1 1.0\n")
        with pytest.raises(ParseError, match=r"g\.edges:2: no room for 1000000000000000000 vertices"):
            read_edge_list(path)

    def test_no_room_while_building_names_the_header(self, tmp_path, monkeypatch):
        # a count that fits an index but not memory fails in the constructor,
        # after every line is read: a bad line is reported first
        def no_room(*args):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(graphs, "WeightedDigraph", no_room)
        path = tmp_path / "g.edges"
        path.write_text("# a count too large to hold\nn 3\n1 2 1.0\n2 1 1.0\n")
        with pytest.raises(ParseError) as exc:
            read_edge_list(path)
        assert str(exc.value) == f"{path}:2: no room for 3 vertices: Unable to allocate 8.00 EiB"
        assert isinstance(exc.value.__cause__, MemoryError)
        path.write_text("# a count too large to hold\nn 3\n1 2 1.0\n2 1\n")
        with pytest.raises(ParseError, match=r"g\.edges:4: expected 'i j w'$"):
            read_edge_list(path)

    def test_reader_holds_no_dense_weights(self, tmp_path):
        # n = 20,000 with 10^5 edges: the n x n weights the reader once filled
        # took 3.2 GB; the in-degrees are summed a few rows at a time instead
        n, rng = 20_000, np.random.default_rng(9)
        rows = np.repeat(np.arange(1, n), 5)
        cols = (rows + rng.integers(1, n, rows.size)) % n
        pairs = np.unique(np.c_[rows, cols], axis=0)
        lines = [f"n {n}"] + [f"{i + 1} {j + 1} 0.5" for i, j in pairs.tolist()]
        path = tmp_path / "g.edges"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            g = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.vals) == len(pairs) > 99_000
        assert peak < 48 * 2**20, f"{peak / 2**20:.0f} MB traced"

    def test_empty_rows_cost_nothing(self, tmp_path):
        # a million vertices and three edges: only the three rows with entries
        # are summed, each from one n-long buffer row
        path = tmp_path / "g.edges"
        path.write_text("n 1000000\n1 2 1.0\n2 1 0.5\n5 9 2.0\n")
        start = time.perf_counter()
        g = read_edge_list(path)
        assert time.perf_counter() - start < 0.5
        assert g.in_degrees[[0, 1, 4]].tolist() == [1.0, 0.5, 2.0]
        assert np.count_nonzero(g.in_degrees) == 3

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"n 2\n1 2 1.0\n2 1 \xff\xfe\n")
        with pytest.raises(ParseError, match=r"g\.edges:3: not UTF-8 text"):
            read_edge_list(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # the mark was read as part of the header: "g.edges:1: expected header 'n <count>'"
        path = tmp_path / "g.edges"
        path.write_bytes(b"\xef\xbb\xbfn 2\n1 2 0.5\n")
        assert (dense(read_edge_list(path)) == [[0.0, 0.5], [0.0, 0.0]]).all()
        path.write_bytes(b"\xef\xbb\xbfn 2\n1 2 1.0\n2 1 \xff\xfe\n")
        with pytest.raises(ParseError, match=r"g\.edges:3: not UTF-8 text"):
            read_edge_list(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        # the last line used to win silently: a_12 read as 2.0
        path = tmp_path / "g.edges"
        path.write_text("n 2\n1 2 0.5\n2 1 1.0\n1 2 2.0\n")
        with pytest.raises(ParseError, match=r"g\.edges:4: duplicate edge 1 2 \(first on line 2\)"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 2 x\n1 2\n", ":2: bad edge entry"),
            ("1 2\n1 2 x\n", ":2: expected 'i j w'"),
            ("1 2 1\n4 1 1\n1 2 1\n", ":3: index out of range 1..3"),
            ("1 2 1\n1 2 1\n4 1 1\n", ":3: duplicate edge 1 2 (first on line 2)"),
            ("1 2 1\n2 1 1\n2 1 1\n1 2 1\n", ":4: duplicate edge 2 1 (first on line 3)"),
            ("1 2 1\n3 1 1\n3 1 1\n3 1 1\n", ":4: duplicate edge 3 1 (first on line 3)"),
            ("1 2 -1\n1 2 1\n", ":3: duplicate edge 1 2 (first on line 2)"),
            ("2 2 1\n1 2 nan\n", ": weights must be finite"),
            ("1 2 1e999\n2 3 -1\n", ": weights must be finite"),
            ("1 2 1\n2 3 -1\n3 3 1\n", ": weights must be nonnegative"),
            ("1 2 1\n3 3 1\n", ": self-loops (nonzero diagonal) are not allowed"),
            ("1 1 0.0\n2 1 -0.0\n", ": graph must contain at least one edge"),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, body, message):
        # each line, a repeat of an earlier pair included, is checked as it is
        # read; the error is the one met first in the file
        path = tmp_path / "g.edges"
        path.write_text("n 3\n" + body)
        with pytest.raises(ParseError) as exc:
            read_edge_list(path)
        assert str(exc.value) == f"{path}{message}"

    def test_zero_weight_lines_are_no_edges(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 3\n3 3 0.0\n2 1 1.5\n1 2 -0.0\n1 3 0.25\n")
        g = read_edge_list(path)
        want = np.array([[0.0, 0.0, 0.25], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(dense(g).view(np.int64), want.view(np.int64))  # no -0.0
        assert (g.rows.tolist(), g.cols.tolist(), g.vals.tolist()) == ([0, 1], [2, 0], [0.25, 1.5])

    @pytest.mark.parametrize("brk", ["\f", "\u2028"], ids=["form-feed", "line-separator"])
    def test_line_break_characters_in_comments(self, tmp_path, brk):
        # str.splitlines broke lines at these: "b" was read as an edge on line 3
        path = tmp_path / "g.edges"
        path.write_bytes(f"n 2\n# a{brk}b\n1 2 1.0\n2 1 1.0\n".encode())
        assert dense(read_edge_list(path))[0, 1] == 1.0
        path.write_bytes(f"n 2\n# a{brk}# b\n1 2\n".encode())  # numbered 4 before
        with pytest.raises(ParseError, match=r"g\.edges:3: expected 'i j w'"):
            read_edge_list(path)
