import math

import numpy as np
import pytest

from hybridconsensus.analysis import ConsensusVerdict
from hybridconsensus.engine import RunConfig, simulate_deterministic
from hybridconsensus.errors import ConsensusError
from hybridconsensus.graphs import WeightedDigraph, read_edge_list
from hybridconsensus.protocols import (
    GossipSchedule,
    HybridSystem,
    PROTOCOLS,
    Protocol,
    bound,
    case_matrix,
    gains,
)
from hybridconsensus.spectral import StochasticMatrix, left_eigenvector
from oracles import continuous_interpolant, dense, digraph, gossip_pair_matrix
from conftest import (
    random_spanning_graph,
    random_symmetric_connected,
    two_node,
    undirected_ring_with_chord,
)


def path3() -> WeightedDigraph:
    """The path 0 - 1 - 2 with unit weights: the edges (0, 1) and (1, 2)."""
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return digraph(w)


class TestBounds:
    def test_case1_max_in_degree_three(self):
        w = np.zeros((4, 4))
        w[0, 1:] = 1.0
        sys = HybridSystem(digraph(w), m=0, h=0.1, x0=np.zeros(4))
        assert bound(sys, 1) == pytest.approx(1 / 3)

    def test_case2_ignores_continuous_degrees(self):
        # continuous degrees {5,5,5}, discrete {1,2} -> bound 1/2
        w = np.zeros((5, 5))
        for i in range(3):
            w[i, (i + 1) % 5] = 5.0
        w[3, 0] = 1.0
        w[4, 0] = w[4, 1] = 1.0
        sys = HybridSystem(digraph(w), m=3, h=0.1, x0=np.zeros(5))
        assert bound(sys, 2) == pytest.approx(0.5)
        assert bound(sys, 1) == pytest.approx(0.2)

    def test_case3_unit_weights(self):
        sys = two_node(1)
        assert bound(sys, 3) == pytest.approx(1.0)

    def test_pure_continuous_unbounded(self):
        sys = two_node(m=2)
        assert bound(sys, 2) == math.inf


class TestCase1Matrix:
    def test_two_node_direct_substitution(self):
        M = dense(case_matrix(two_node(m=0), 1))
        np.testing.assert_allclose(M, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_isolated_row_is_identity_row(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 0] = 1.0  # agent 0 hears nobody
        sys = HybridSystem(digraph(w), m=0, h=0.5, x0=np.zeros(3))
        M = dense(case_matrix(sys, 1))
        np.testing.assert_array_equal(M[0], [1.0, 0.0, 0.0])

    def test_h_at_bound_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 2.0
        w[1, 0] = 1.0
        sys = HybridSystem(digraph(w), m=0, h=1.0, x0=np.zeros(2))
        with pytest.raises(ConsensusError, match=r"^h = 1\.0 must be strictly below bound_case1 \(1/max d_ii\) = 0\.5$"):
            case_matrix(sys, 1)

    def test_positive_diagonal_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g = random_spanning_graph(rng, 6, extra=6)
            h = 0.9 / max(g.in_degrees.max(), 1e-9)
            sys = HybridSystem(g, m=3, h=h, x0=np.zeros(6))
            M = dense(case_matrix(sys, 1))
            assert np.diag(M).min() > 0


class TestCase2:
    def test_gain_unit_degree(self):
        sys = two_node(m=1)
        gain = gains(sys, 2)
        assert gain[0] == pytest.approx(1 - math.exp(-0.2))
        assert gain[0] == pytest.approx(0.1812692, abs=1e-7)
        assert gain[1] == 0.2

    def test_gains_reject_gossip(self):
        with pytest.raises(ConsensusError, match="no sampled map"):
            gains(two_node(1), 3)

    def test_gain_zero_degree_limit(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0  # agent 0 (continuous) hears nobody
        sys = HybridSystem(digraph(w), m=1, h=0.2, x0=np.zeros(2))
        assert gains(sys, 2)[0] == 0.2

    def test_matrix_direct_substitution(self):
        M = dense(case_matrix(two_node(m=1), 2))
        e = math.exp(-0.2)
        np.testing.assert_allclose(M, [[e, 1 - e], [0.2, 0.8]], atol=1e-15)

    def test_m_zero_degenerates_to_case1(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_spanning_graph(rng, 5, extra=4)
            h = 0.9 / max(g.in_degrees.max(), 1e-9)
            sys = HybridSystem(g, m=0, h=h, x0=np.zeros(5))
            np.testing.assert_array_equal(
                dense(case_matrix(sys, 2)), dense(case_matrix(sys, 1))
            )

    def test_all_continuous_rows_sum_to_one(self):
        rng = np.random.default_rng(47)
        g = random_spanning_graph(rng, 5, extra=6, w_lo=0.5, w_hi=3.0)
        sys = HybridSystem(g, m=5, h=10.0, x0=np.zeros(5))  # no discrete bound
        M = dense(case_matrix(sys, 2))
        np.testing.assert_allclose(M.sum(axis=1), np.ones(5), atol=1e-12)

    def test_gain_below_min_of_h_and_inverse_degree(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = random_symmetric_connected(rng, 5)
            sys = HybridSystem(g, m=5, h=rng.uniform(0.05, 2.0), x0=np.zeros(5))
            d = g.in_degrees
            gain = gains(sys, 2)
            for i in range(5):
                if d[i] > 0:
                    assert gain[i] < min(sys.h, 1 / d[i])


class TestGossipPairMatrix:
    def test_cc_pair(self):
        M = dense(gossip_pair_matrix(two_node(m=2), 0, 1))
        off = (1 - math.exp(-0.4)) / 2
        assert off == pytest.approx(0.1648400, abs=1e-7)
        np.testing.assert_allclose(M, [[1 - off, off], [off, 1 - off]], atol=1e-15)

    def test_cd_pair(self):
        M = dense(gossip_pair_matrix(two_node(m=1), 0, 1))
        gi = 1 - math.exp(-0.2)
        np.testing.assert_allclose(M, [[1 - gi, gi], [0.2, 0.8]], atol=1e-15)

    def test_dd_pair(self):
        M = dense(gossip_pair_matrix(two_node(m=0), 0, 1))
        np.testing.assert_allclose(M, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_bystander_row_frozen(self):
        g = random_symmetric_connected(np.random.default_rng(59), 3)
        sys = HybridSystem(g, m=1, h=0.1, x0=np.zeros(3), probs="uniform")
        i, j = int(sys.schedule.i[0]), int(sys.schedule.j[0])
        M = dense(gossip_pair_matrix(sys, i, j))
        for r in range(3):
            if r not in (i, j):
                np.testing.assert_array_equal(M[r], np.eye(3)[r])

    def test_only_participants_differ_and_rows_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = random_symmetric_connected(rng, 6)
            sys = HybridSystem(g, m=int(rng.integers(0, 7)), h=0.2, x0=np.zeros(6), probs="uniform")
            sched = sys.schedule
            for i, j in zip(sched.i.tolist(), sched.j.tolist()):
                M = dense(gossip_pair_matrix(sys, i, j))
                diff = np.nonzero(np.any(M != np.eye(6), axis=1))[0]
                assert set(diff) == {i, j}
                np.testing.assert_allclose(M @ np.ones(6), np.ones(6), atol=1e-12)


class TestGossipSchedule:
    def test_uniform_on_ring_with_chord(self):
        from conftest import undirected_ring_with_chord

        sched = GossipSchedule(undirected_ring_with_chord(), "uniform")
        assert len(sched.i) == 7
        np.testing.assert_allclose(sched.probs, np.full(7, 1 / 7))

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConsensusError, match="^probabilities must sum to 1, got "):
            GossipSchedule(path3(), np.array([0.3, 0.3]))

    def test_single_edge_prob_one_allowed(self):
        sched = GossipSchedule(two_node(1).graph, np.array([1.0]))
        assert sched.probs[0] == 1.0

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]])
    def test_nan_probs_rejected(self, probs):
        with pytest.raises(ConsensusError, match=r"^each probability must lie in \(0, 1\]$"):
            GossipSchedule(path3(), np.array(probs))


class TestHybridSystem:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x0_rejected(self, bad):
        with pytest.raises(ConsensusError, match=r"x0\[1\]"):
            HybridSystem(undirected_ring_with_chord(3), m=1, h=0.1, x0=[0.0, bad, 1.0])

    def test_x0_must_be_a_vector(self):
        with pytest.raises(ConsensusError, match=r"^x0 must be a vector, got shape \(2, 1\)$"):
            HybridSystem(two_node(1).graph, m=1, h=0.1, x0=[[0.0], [1.0]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_node(1).graph,
        lambda: two_node(1),
        lambda: two_node(1, probs=[1.0]).schedule,
        lambda: case_matrix(two_node(1), 1),
        lambda: left_eigenvector(case_matrix(two_node(1), 1)),
        lambda: simulate_deterministic(two_node(1), 1, RunConfig(steps=2)),
        lambda: RunConfig(steps=2),
    ],
    ids=["WeightedDigraph", "HybridSystem", "GossipSchedule", "StochasticMatrix", "PerronVector",
         "Trajectory", "RunConfig"],
)
def test_array_records_compare_by_identity(make):
    # the generated __eq__ and __hash__ compared and hashed the array fields, and raised
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_record_arrays_are_read_only(tmp_path):
    # records are plain classes: an attribute may be rebound, but no array they hold is written
    path = tmp_path / "g.edges"
    path.write_text("n 2\n1 2 1.0\n2 1 1.0\n")
    x0 = np.array([0.0, 1.0])
    sys = HybridSystem(read_edge_list(path), m=1, h=0.2, x0=x0, probs=np.array([1.0]))
    sched = sys.schedule
    P = StochasticMatrix(np.array([0.5, 1.0]), np.array([0]), np.array([1]), np.array([0.5]))
    g = sys.graph  # read from a file; test_weights_immutable builds one from weights
    held = (g.rows, g.cols, g.vals, g.in_degrees, sys.x0, sched.i, sched.j, sched.vals,
            sched.probs, P.rows, P.cols, P.vals)
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2.0
    assert x0.flags.writeable  # the system holds a copy


def test_value_records_compare_and_hash_by_value():
    a, b, c = (ConsensusVerdict(True, "c", -0.25, None, done) for done in (False, False, True))
    assert a == b != c and len({a, b, c}) == 2
    p = PROTOCOLS[1]
    q = Protocol(p.bound_name, p.condition)
    assert p == q != PROTOCOLS[2] and len({p, q, PROTOCOLS[2]}) == 2


class TestGossipExpectedMatrix:
    def test_single_edge_equals_pair_matrix(self):
        sys = two_node(m=1, probs=[1.0])
        np.testing.assert_array_equal(
            dense(case_matrix(sys, 3)),
            dense(gossip_pair_matrix(sys, 0, 1)),
        )

    def test_two_edges_entrywise_average(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        sys = HybridSystem(digraph(w), m=1, h=0.2, x0=np.zeros(3), probs=[0.5, 0.5])
        expected = 0.5 * dense(gossip_pair_matrix(sys, 0, 1)) + 0.5 * dense(gossip_pair_matrix(
            sys, 1, 2
        ))
        np.testing.assert_allclose(dense(case_matrix(sys, 3)), expected)

    def test_triangle_uniform_brute_force(self):
        w = np.ones((3, 3)) - np.eye(3)
        sys = HybridSystem(digraph(w), m=1, h=0.2, x0=np.zeros(3), probs="uniform")
        brute = sum(
            dense(gossip_pair_matrix(sys, i, j)) for i, j in [(0, 1), (0, 2), (1, 2)]
        ) / 3.0
        E = dense(case_matrix(sys, 3))
        np.testing.assert_allclose(E, brute, atol=1e-15)
        np.testing.assert_allclose(E.sum(axis=1), np.ones(3), atol=1e-12)
        # off-diagonal support matches the edge set
        assert np.all(E[~np.eye(3, dtype=bool)] > 0)

    @pytest.mark.parametrize("graph", ["ring_with_chord", "random_symmetric"])
    def test_matches_pair_matrix_sum(self, graph):
        rng = np.random.default_rng(41)
        g = undirected_ring_with_chord() if graph == "ring_with_chord" else (
            random_symmetric_connected(rng, 12))
        probs = rng.uniform(0.5, 1.5, len(g.vals) // 2)
        sys = HybridSystem(g, m=g.n // 2, h=0.9 / dense(g).max(), x0=np.zeros(g.n),
                           probs=probs / probs.sum())
        sched = sys.schedule
        loop = sum(p * dense(gossip_pair_matrix(sys, i, j))
                   for i, j, p in zip(sched.i, sched.j, sched.probs))
        E = dense(case_matrix(sys, 3))
        assert np.max(np.abs(E - loop)) <= 1e-14


class TestInterpolants:
    def test_case1_small_tau_continuity(self):
        sys = two_node(m=1)
        x = np.array([0.0, 1.0])
        assert continuous_interpolant(1, sys, x, 0, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_case1_hand_value(self):
        sys = two_node(m=1)
        assert continuous_interpolant(1, sys, np.array([0.0, 1.0]), 0, 0.1) == pytest.approx(0.1)

    def test_endpoint_matches_matrix_row(self):
        rng = np.random.default_rng(67)
        for case in (1, 2):
            for _ in range(20):
                g = random_spanning_graph(rng, 5, extra=5)
                h = 0.9 / max(g.in_degrees.max(), 1e-9)
                sys = HybridSystem(g, m=3, h=h, x0=np.zeros(5))
                M = dense(case_matrix(sys, case))
                x = rng.uniform(-1, 1, 5)
                for i in range(3):
                    got = continuous_interpolant(case, sys, x, i, h)
                    assert abs(got - M[i] @ x) < 1e-12
