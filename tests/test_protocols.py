import math

import numpy as np
import pytest

from hybridconsensus import (
    GossipSchedule,
    HybridSystem,
    RunConfig,
    WeightedDigraph,
    bound_case1,
    bound_case2,
    bound_case3,
    case1_matrix,
    case2_gain,
    case2_matrix,
    gossip_expected_matrix,
    left_eigenvector,
    simulate_deterministic,
)
from hybridconsensus.errors import InvalidSchedule, SamplingPeriodTooLarge
from oracles import continuous_interpolant, dense, gossip_interpolant, gossip_pair_matrix, iteration_matrix
from conftest import random_spanning_graph, random_symmetric_connected, undirected_ring_with_chord


def two_node(m=1, h=0.2, x0=(0.0, 1.0)):
    g = WeightedDigraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return HybridSystem(graph=g, m=m, h=h, x0=np.array(x0))


def path3() -> WeightedDigraph:
    """The path 0 - 1 - 2 with unit weights: the edges (0, 1) and (1, 2)."""
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return WeightedDigraph(w)


class TestBounds:
    def test_case1_max_in_degree_three(self):
        w = np.zeros((4, 4))
        w[0, 1:] = 1.0
        sys = HybridSystem(WeightedDigraph(w), m=0, h=0.1, x0=np.zeros(4))
        assert bound_case1(sys) == pytest.approx(1 / 3)

    def test_case2_ignores_continuous_degrees(self):
        # continuous degrees {5,5,5}, discrete {1,2} -> bound 1/2
        w = np.zeros((5, 5))
        for i in range(3):
            w[i, (i + 1) % 5] = 5.0
        w[3, 0] = 1.0
        w[4, 0] = w[4, 1] = 1.0
        sys = HybridSystem(WeightedDigraph(w), m=3, h=0.1, x0=np.zeros(5))
        assert bound_case2(sys) == pytest.approx(0.5)
        assert bound_case1(sys) == pytest.approx(0.2)

    def test_case3_unit_weights(self):
        sys = two_node()
        assert bound_case3(sys) == pytest.approx(1.0)

    def test_pure_continuous_unbounded(self):
        sys = two_node(m=2)
        assert bound_case2(sys) == math.inf


class TestCase1Matrix:
    def test_two_node_direct_substitution(self):
        M = case1_matrix(two_node(m=0)).entries
        np.testing.assert_allclose(M, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_isolated_row_is_identity_row(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 0] = 1.0  # agent 0 hears nobody
        sys = HybridSystem(WeightedDigraph(w), m=0, h=0.5, x0=np.zeros(3))
        M = case1_matrix(sys).entries
        np.testing.assert_array_equal(M[0], [1.0, 0.0, 0.0])

    def test_h_at_bound_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 2.0
        w[1, 0] = 1.0
        sys = HybridSystem(WeightedDigraph(w), m=0, h=1.0, x0=np.zeros(2))
        with pytest.raises(SamplingPeriodTooLarge):
            case1_matrix(sys)

    def test_positive_diagonal_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g = random_spanning_graph(rng, 6, extra=6)
            h = 0.9 / max(g.in_degrees().max(), 1e-9)
            sys = HybridSystem(g, m=3, h=h, x0=np.zeros(6))
            M = case1_matrix(sys).entries
            assert np.diag(M).min() > 0


class TestCase2:
    def test_gain_unit_degree(self):
        sys = two_node(m=1)
        gain = case2_gain(sys)
        assert gain[0] == pytest.approx(1 - math.exp(-0.2))
        assert gain[0] == pytest.approx(0.1812692, abs=1e-7)
        assert gain[1] == 0.2

    def test_gain_zero_degree_limit(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0  # agent 0 (continuous) hears nobody
        sys = HybridSystem(WeightedDigraph(w), m=1, h=0.2, x0=np.zeros(2))
        assert case2_gain(sys)[0] == 0.2

    def test_matrix_direct_substitution(self):
        M = case2_matrix(two_node(m=1)).entries
        e = math.exp(-0.2)
        np.testing.assert_allclose(M, [[e, 1 - e], [0.2, 0.8]], atol=1e-15)

    def test_m_zero_degenerates_to_case1(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_spanning_graph(rng, 5, extra=4)
            h = 0.9 / max(g.in_degrees().max(), 1e-9)
            sys = HybridSystem(g, m=0, h=h, x0=np.zeros(5))
            np.testing.assert_array_equal(
                case2_matrix(sys).entries, case1_matrix(sys).entries
            )

    def test_all_continuous_rows_sum_to_one(self):
        rng = np.random.default_rng(47)
        g = random_spanning_graph(rng, 5, extra=6, w_lo=0.5, w_hi=3.0)
        sys = HybridSystem(g, m=5, h=10.0, x0=np.zeros(5))  # no discrete bound
        M = case2_matrix(sys).entries
        np.testing.assert_allclose(M.sum(axis=1), np.ones(5), atol=1e-12)

    def test_gain_below_min_of_h_and_inverse_degree(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = random_symmetric_connected(rng, 5)
            sys = HybridSystem(g, m=5, h=rng.uniform(0.05, 2.0), x0=np.zeros(5))
            d = g.in_degrees()
            gain = case2_gain(sys)
            for i in range(5):
                if d[i] > 0:
                    assert gain[i] < min(sys.h, 1 / d[i])


def weak_signed_graph(rng: np.random.Generator) -> WeightedDigraph:
    """A random spanning-tree graph with some links scaled down to ~1e-17
    and some absent links, and diagonal entries, stored as -0.0."""
    n = int(rng.integers(2, 9))
    w = dense(random_spanning_graph(rng, n, extra=n, w_lo=0.1, w_hi=2.0))
    weak = (w > 0) & (rng.random((n, n)) < 0.3)
    w[weak] *= 1e-17
    w[(w == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    return WeightedDigraph(w)


class TestSampledMapWriter:
    """Cases 1 and 2 write I - diag(g) L straight from the weights; the
    oracle builds it from the Laplacian."""

    def test_case1_bitwise_equals_laplacian_form(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            g = weak_signed_graph(rng)
            sys = HybridSystem(g, m=int(rng.integers(0, g.n + 1)),
                               h=rng.uniform(0.05, 0.95) / g.in_degrees().max(), x0=np.zeros(g.n))
            got = case1_matrix(sys).entries
            want = iteration_matrix(g, np.full(g.n, sys.h)).entries  # I - h*L
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_case2_matches_laplacian_form_within_ulps(self):
        # continuous diagonals are e^{-d h} here, 1 - g*d in the oracle
        rng = np.random.default_rng(97)
        for _ in range(300):
            g = weak_signed_graph(rng)
            m = int(rng.integers(0, g.n + 1))
            h = rng.uniform(0.05, 0.95) / max(g.in_degrees()[m:].max(initial=0.0), 0.5)
            sys = HybridSystem(g, m=m, h=h, x0=np.zeros(g.n))
            got = case2_matrix(sys).entries
            want = iteration_matrix(g, case2_gain(sys)).entries
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps


class TestGossipPairMatrix:
    def test_cc_pair(self):
        M = gossip_pair_matrix(two_node(m=2), 0, 1).entries
        off = (1 - math.exp(-0.4)) / 2
        assert off == pytest.approx(0.1648400, abs=1e-7)
        np.testing.assert_allclose(M, [[1 - off, off], [off, 1 - off]], atol=1e-15)

    def test_cd_pair(self):
        M = gossip_pair_matrix(two_node(m=1), 0, 1).entries
        gi = 1 - math.exp(-0.2)
        np.testing.assert_allclose(M, [[1 - gi, gi], [0.2, 0.8]], atol=1e-15)

    def test_dd_pair(self):
        M = gossip_pair_matrix(two_node(m=0), 0, 1).entries
        np.testing.assert_allclose(M, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_bystander_row_frozen(self):
        g = random_symmetric_connected(np.random.default_rng(59), 3)
        sys = HybridSystem(g, m=1, h=0.1, x0=np.zeros(3))
        sched = GossipSchedule.uniform(g)
        i, j = int(sched.i[0]), int(sched.j[0])
        M = gossip_pair_matrix(sys, i, j).entries
        for r in range(3):
            if r not in (i, j):
                np.testing.assert_array_equal(M[r], np.eye(3)[r])

    def test_only_participants_differ_and_rows_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = random_symmetric_connected(rng, 6)
            sys = HybridSystem(g, m=int(rng.integers(0, 7)), h=0.2, x0=np.zeros(6))
            sched = GossipSchedule.uniform(g)
            for i, j in zip(sched.i.tolist(), sched.j.tolist()):
                M = gossip_pair_matrix(sys, i, j).entries
                diff = np.nonzero(np.any(M != np.eye(6), axis=1))[0]
                assert set(diff) == {i, j}
                np.testing.assert_allclose(M @ np.ones(6), np.ones(6), atol=1e-12)

    def test_non_edge_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        sys = HybridSystem(WeightedDigraph(w), m=0, h=0.2, x0=np.zeros(3))
        with pytest.raises(ValueError):
            gossip_pair_matrix(sys, 0, 2)


class TestGossipSchedule:
    def test_uniform_on_ring_with_chord(self):
        from conftest import undirected_ring_with_chord

        sched = GossipSchedule.uniform(undirected_ring_with_chord())
        assert len(sched.i) == 7
        np.testing.assert_allclose(sched.probs, np.full(7, 1 / 7))

    def test_probs_must_sum_to_one(self):
        with pytest.raises(InvalidSchedule):
            GossipSchedule(path3(), np.array([0.3, 0.3]))

    def test_single_edge_prob_one_allowed(self):
        sched = GossipSchedule(two_node().graph, np.array([1.0]))
        assert sched.probs[0] == 1.0

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]])
    def test_nan_probs_rejected(self, probs):
        with pytest.raises(InvalidSchedule):
            GossipSchedule(path3(), np.array(probs))


class TestHybridSystem:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x0_rejected(self, bad):
        with pytest.raises(ValueError, match=r"x0\[1\]"):
            HybridSystem(undirected_ring_with_chord(3), m=1, h=0.1, x0=[0.0, bad, 1.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_node().graph,
        two_node,
        lambda: GossipSchedule(two_node().graph, np.array([1.0])),
        lambda: case1_matrix(two_node()),
        lambda: left_eigenvector(case1_matrix(two_node())),
        lambda: simulate_deterministic(two_node(), 1, RunConfig(steps=2)),
    ],
    ids=["WeightedDigraph", "HybridSystem", "GossipSchedule", "StochasticMatrix", "PerronVector",
         "Trajectory"],
)
def test_array_dataclasses_compare_by_identity(make):
    # the generated __eq__ and __hash__ compared and hashed the array fields, and raised
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


class TestGossipExpectedMatrix:
    def test_single_edge_equals_pair_matrix(self):
        sys = two_node(m=1)
        sched = GossipSchedule(sys.graph, np.array([1.0]))
        np.testing.assert_array_equal(
            gossip_expected_matrix(sys, sched).entries,
            gossip_pair_matrix(sys, 0, 1).entries,
        )

    def test_two_edges_entrywise_average(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        sys = HybridSystem(WeightedDigraph(w), m=1, h=0.2, x0=np.zeros(3))
        sched = GossipSchedule(sys.graph, np.array([0.5, 0.5]))
        expected = 0.5 * gossip_pair_matrix(sys, 0, 1).entries + 0.5 * gossip_pair_matrix(
            sys, 1, 2
        ).entries
        np.testing.assert_allclose(gossip_expected_matrix(sys, sched).entries, expected)

    def test_triangle_uniform_brute_force(self):
        w = np.ones((3, 3)) - np.eye(3)
        sys = HybridSystem(WeightedDigraph(w), m=1, h=0.2, x0=np.zeros(3))
        sched = GossipSchedule.uniform(sys.graph)
        brute = sum(
            gossip_pair_matrix(sys, i, j).entries for i, j in [(0, 1), (0, 2), (1, 2)]
        ) / 3.0
        E = gossip_expected_matrix(sys, sched).entries
        np.testing.assert_allclose(E, brute, atol=1e-15)
        np.testing.assert_allclose(E.sum(axis=1), np.ones(3), atol=1e-12)
        # off-diagonal support matches the edge set
        assert np.all(E[~np.eye(3, dtype=bool)] > 0)

    @pytest.mark.parametrize("graph", ["ring_with_chord", "random_symmetric"])
    def test_matches_pair_matrix_sum(self, graph):
        rng = np.random.default_rng(41)
        g = undirected_ring_with_chord() if graph == "ring_with_chord" else (
            random_symmetric_connected(rng, 12))
        sys = HybridSystem(g, m=g.n // 2, h=0.9 / dense(g).max(), x0=np.zeros(g.n))
        probs = rng.uniform(0.5, 1.5, len(g.vals) // 2)
        sched = GossipSchedule(g, probs / probs.sum())
        loop = sum(p * gossip_pair_matrix(sys, i, j).entries
                   for i, j, p in zip(sched.i, sched.j, sched.probs))
        E = gossip_expected_matrix(sys, sched).entries
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
                h = 0.9 / max(g.in_degrees().max(), 1e-9)
                sys = HybridSystem(g, m=3, h=h, x0=np.zeros(5))
                M = (case1_matrix if case == 1 else case2_matrix)(sys).entries
                x = rng.uniform(-1, 1, 5)
                for i in range(3):
                    got = continuous_interpolant(case, sys, x, i, h)
                    assert abs(got - M[i] @ x) < 1e-12

    def test_out_of_window(self):
        sys = two_node(m=1)
        for tau in (0.0, -0.1, 0.21):
            with pytest.raises(ValueError, match="outside"):
                continuous_interpolant(1, sys, np.zeros(2), 0, tau)

    def test_discrete_agent_rejected(self):
        sys = two_node(m=1)
        with pytest.raises(ValueError, match="discrete"):
            continuous_interpolant(1, sys, np.zeros(2), 1, 0.1)


class TestGossipInterpolant:
    def test_unselected_agent_holds(self):
        sys = two_node(m=2)
        x = np.array([0.3, 0.9])
        assert gossip_interpolant(sys, x, None, 0, 0.1) == 0.3
        g = random_symmetric_connected(np.random.default_rng(71), 3)
        sys3 = HybridSystem(g, m=3, h=0.2, x0=np.zeros(3))
        sched = GossipSchedule.uniform(g)
        edges = [e for e in zip(sched.i.tolist(), sched.j.tolist()) if 0 not in e]
        if edges:
            assert gossip_interpolant(sys3, np.array([0.5, 1.0, 2.0]), edges[0], 0, 0.1) == 0.5

    def test_cc_endpoint_value(self):
        sys = two_node(m=2)
        got = gossip_interpolant(sys, np.array([0.0, 1.0]), (0, 1), 0, 0.2)
        assert got == pytest.approx((1 - math.exp(-0.4)) / 2)
        assert got == pytest.approx(0.16484, abs=1e-5)

    def test_cd_endpoint_value(self):
        sys = two_node(m=1)
        got = gossip_interpolant(sys, np.array([0.0, 1.0]), (0, 1), 0, 0.2)
        assert got == pytest.approx(1 - math.exp(-0.2))
        assert got == pytest.approx(0.18127, abs=1e-5)

    def test_endpoint_matches_pair_matrix(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            g = random_symmetric_connected(rng, 5)
            m = int(rng.integers(1, 6))
            sys = HybridSystem(g, m=m, h=0.2 / dense(g).max(), x0=np.zeros(5))
            sched = GossipSchedule.uniform(g)
            e = int(rng.integers(0, len(sched.i)))
            i, j = int(sched.i[e]), int(sched.j[e])
            M = gossip_pair_matrix(sys, i, j).entries
            x = rng.uniform(-1, 1, 5)
            for agent in (i, j):
                if agent < sys.m:
                    got = gossip_interpolant(sys, x, (i, j), agent, sys.h)
                    assert abs(got - M[agent] @ x) < 1e-12


class TestIterationMatrix:
    def test_rejects_gain_at_inverse_degree(self):
        g = two_node().graph
        with pytest.raises(SamplingPeriodTooLarge):
            iteration_matrix(g, np.array([1.0, 0.5]))

    def test_random_gains_stochastic_positive_diagonal(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            g = random_spanning_graph(rng, 6, extra=6, w_lo=0.1)
            d = g.in_degrees()
            gains = np.array([rng.uniform(0.05, 0.95) / d[i] if d[i] > 0 else 1.0 for i in range(6)])
            M = iteration_matrix(g, gains).entries
            assert np.diag(M).min() > 0
