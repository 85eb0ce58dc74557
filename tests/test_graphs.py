import numpy as np
import pytest

from hybridconsensus import (
    GossipSchedule,
    WeightedDigraph,
    read_edge_list,
)
from hybridconsensus.errors import AsymmetricGraph, InvalidGraph, ParseError
from oracles import dense, has_spanning_tree, laplacian, write_edge_list
from conftest import random_spanning_graph, ring_graph


class TestConstruction:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_edgeless(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(np.zeros((3, 3)))

    def test_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidGraph):
                WeightedDigraph(np.array([[0.0, bad], [1.0, 0.0]]))

    def test_negative_zero_is_no_edge(self):
        # -0.0 entries are no edges, and a row of them has in-degree +0.0
        g = WeightedDigraph(np.array([[-0.0, 1.0], [-0.0, -0.0]]))
        assert (g.rows.tolist(), g.cols.tolist(), g.vals.tolist()) == ([0], [1], [1.0])
        assert np.array_equal(g.in_degrees().view(np.int64), np.array([1.0, 0.0]).view(np.int64))

    def test_weights_immutable(self):
        g = ring_graph(3)
        for stored in (g.rows, g.cols, g.vals, g.in_degrees()):
            with pytest.raises(ValueError):
                stored[0] = 2


class TestBuildMatrices:
    def test_two_node_symmetric(self):
        g = WeightedDigraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        L = laplacian(g)
        np.testing.assert_array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_edge(self):
        g = WeightedDigraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
        L = laplacian(g)
        np.testing.assert_array_equal(L, [[0.0, 0.0], [-1.0, 1.0]])

    def test_six_ring_hand_expansion(self):
        g = ring_graph(6)
        L = laplacian(g)
        expected = np.eye(6)
        for i in range(6):
            expected[i, (i - 1) % 6] = -1.0
        np.testing.assert_array_equal(L, expected)

    def test_row_sums_zero_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_spanning_graph(rng, int(rng.integers(2, 10)), extra=5)
            L = laplacian(g)
            assert np.max(np.abs(L @ np.ones(g.n))) <= 1e-12


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
        assert not has_spanning_tree(WeightedDigraph(w))

    def test_inward_star(self):
        # the center hears every leaf; no information ever reaches a leaf
        w = np.zeros((6, 6))
        w[0, 1:] = 1.0
        assert not has_spanning_tree(WeightedDigraph(w))

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_spanning_graph(rng, 7, extra=3, w_lo=0.1)
            assert has_spanning_tree(g)
            w = dense(g)
            i, j = rng.integers(0, 7, size=2)
            if i != j:
                w[i, j] = 0.5
            assert has_spanning_tree(WeightedDigraph(w))


class TestConnectivity:
    """On a symmetric graph a spanning tree is connectivity (case 3)."""

    def test_path_graph(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        assert has_spanning_tree(WeightedDigraph(w))

    def test_isolated_vertex(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        assert not has_spanning_tree(WeightedDigraph(w))

    def test_asymmetric_rejected(self):
        g = ring_graph(4)
        with pytest.raises(AsymmetricGraph):
            GossipSchedule(g, np.full(4, 0.25))
        with pytest.raises(AsymmetricGraph):
            GossipSchedule.uniform(g)

    def test_matches_spanning_tree_on_symmetric_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.3)
            w = np.triu(w, 1)
            w = w + w.T
            if not np.any(w > 0):
                w[0, 1] = w[1, 0] = 1.0
            g = WeightedDigraph(w)
            # connected iff every walk count of length n - 1 in I + A is positive
            walks = np.linalg.matrix_power(np.eye(n) + (w > 0), n - 1)
            assert bool(np.all(walks > 0)) == has_spanning_tree(g)


class TestEdgeListFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_spanning_graph(rng, 8, extra=10)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert np.array_equal(dense(g), dense(g2))

    def test_comments_and_header(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\nn 2\n2 1 0.25  # trailing\n")
        g = read_edge_list(path)
        assert dense(g)[1, 0] == 0.25

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 1.0\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 2\n3 1 1.0\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_vertex_count_beyond_memory_rejected(self, tmp_path):
        # 10^8 x 10^8 weights need 71 PiB, more than any x86-64 user address
        # space: the allocation fails at once on every host
        path = tmp_path / "g.edges"
        path.write_text("# a count no host can hold\nn 100000000\n1 2 1.0\n2 1 1.0\n")
        with pytest.raises(ParseError, match=r"g\.edges:2: no room for 100000000 x 100000000 "):
            read_edge_list(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"n 2\n1 2 1.0\n2 1 \xff\xfe\n")
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
        # the edge lines are checked column by column; the error is still the
        # one a line-by-line reader meets first
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
