from pathlib import Path

import numpy as np
import pytest

from hybridconsensus import (
    GossipSchedule,
    HybridSystem,
    RunConfig,
    WeightedDigraph,
    case1_matrix,
    gossip_expected_matrix,
    monte_carlo_mean,
    simulate_deterministic,
)
from hybridconsensus.config import build_system, load_config
from hybridconsensus.engine import _draw_edges, dense_tau_grid
from hybridconsensus.errors import UnknownCase
from oracles import continuous_interpolant, dense, gossip_interpolant, gossip_pair_matrix, simulate_gossip
from conftest import PRESETS, random_spanning_graph, random_symmetric_connected, undirected_ring_with_chord

DATA = Path(__file__).resolve().parent / "data"


def two_node(m=0, h=0.2, x0=(0.0, 1.0)):
    g = WeightedDigraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return HybridSystem(graph=g, m=m, h=h, x0=np.array(x0))


class TestSimulateDeterministic:
    def test_zero_steps_is_initial_state(self):
        traj = simulate_deterministic(two_node(), 1, RunConfig(steps=0))
        assert traj.sample_states.shape == (1, 2)
        np.testing.assert_array_equal(traj.sample_states[0], [0.0, 1.0])

    def test_one_step_by_hand(self):
        traj = simulate_deterministic(two_node(), 1, RunConfig(steps=1))
        np.testing.assert_allclose(traj.sample_states[1], [0.2, 0.8], atol=1e-15)

    def test_unknown_case_raises(self):
        with pytest.raises(UnknownCase):
            simulate_deterministic(two_node(), 7, RunConfig(steps=1))
        with pytest.raises(ValueError, match="gossip schedule"):
            simulate_deterministic(two_node(), 3, RunConfig(steps=1))

    def test_sample_grid_spacing(self):
        traj = simulate_deterministic(two_node(h=0.25), 1, RunConfig(steps=4))
        np.testing.assert_allclose(np.diff(traj.sample_times), 0.25)

    def test_consensus_on_spanning_tree_graph(self):
        rng = np.random.default_rng(83)
        g = random_spanning_graph(rng, 6, extra=6, w_lo=0.3)
        h = 0.9 / g.in_degrees().max()
        sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-5, 5, 6))
        traj = simulate_deterministic(sys, 1, RunConfig(steps=3000, dense_per_step=0))
        final = traj.sample_states[-1]
        assert final.max() - final.min() < 1e-8

    def test_dense_records_meet_next_sample(self):
        # the last dense record of each interval is the next sampled state, bit for bit
        rng = np.random.default_rng(89)
        g = random_spanning_graph(rng, 5, extra=4, w_lo=0.2)
        h = 0.5 / g.in_degrees().max()
        sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-2, 2, 5))
        runs = [(sys, case, RunConfig(steps=5, dense_per_step=4)) for case in (1, 2)]
        for path in (PRESETS / "example1.cfg", PRESETS / "example2.cfg", DATA / "weighted.cfg"):
            cfg = load_config(path)
            run_cfg = RunConfig(steps=cfg.steps, dense_per_step=cfg.dense_per_step)
            runs.append((build_system(cfg), cfg.case, run_cfg))
        for sys, case, run_cfg in runs:
            traj = simulate_deterministic(sys, case, run_cfg)
            assert traj.dense.shape == (run_cfg.steps, sys.m, run_cfg.dense_per_step)
            np.testing.assert_array_equal(
                traj.dense[:, :, -1].view(np.int64), traj.sample_states[1:, : sys.m].view(np.int64)
            )

    def test_tau_grid_ends_exactly_at_h(self):
        # 10 * (0.103 / 10) rounds to 0.10300000000000001, one ulp past h
        for h, d in ((0.103, 10), (0.3, 4), (0.07, 7), (1e-3, 3)):
            taus = dense_tau_grid(h, d)
            assert taus[-1] == h
            assert np.all(np.diff(taus) > 0) and taus[0] > 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(97)
        g = random_spanning_graph(rng, 5, extra=4)
        h = 0.9 / max(g.in_degrees().max(), 1e-9)
        x0 = rng.uniform(-1, 1, 5)
        base = HybridSystem(g, m=2, h=h, x0=x0)
        shifted = HybridSystem(g, m=2, h=h, x0=x0 + 3.0)
        cfg = RunConfig(steps=50, dense_per_step=3)
        t0 = simulate_deterministic(base, 1, cfg)
        t1 = simulate_deterministic(shifted, 1, cfg)
        np.testing.assert_allclose(t1.sample_states, t0.sample_states + 3.0, atol=1e-11)
        np.testing.assert_allclose(t1.dense, t0.dense + 3.0, atol=1e-11, rtol=0)

    def test_dense_matches_scalar_interpolant(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            g = random_spanning_graph(rng, n, extra=4, w_lo=0.1)
            x0 = rng.uniform(-10, 10, n)
            for case in (1, 2):
                # case 2 also takes continuous in-degrees past 1/h (Remark 1)
                h = 0.9 / max(g.in_degrees()[m:].max(initial=0.0) if case == 2 else
                              g.in_degrees().max(), 1.0)
                sys = HybridSystem(g, m=min(m, n), h=h, x0=x0)
                traj = simulate_deterministic(sys, case, RunConfig(steps=6, dense_per_step=3))
                taus = dense_tau_grid(h, 3)
                for k, i, j in np.ndindex(traj.dense.shape):
                    want = continuous_interpolant(case, sys, traj.sample_states[k], i, taus[j])
                    assert abs(traj.dense[k, i, j] - want) <= 1e-12 * np.abs(x0).max()

    def test_max_min_shrinking(self):
        rng = np.random.default_rng(101)
        for case in (1, 2):
            g = random_spanning_graph(rng, 6, extra=8, w_lo=0.2)
            h = 0.9 / g.in_degrees().max()
            sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-4, 4, 6))
            traj = simulate_deterministic(sys, case, RunConfig(steps=100, dense_per_step=0))
            states = traj.sample_states
            eps = 1e-12
            assert np.all(np.diff(states.max(axis=1)) <= eps)
            assert np.all(np.diff(states.min(axis=1)) >= -eps)


class TestSimulateGossip:
    def test_single_edge_deterministic(self):
        sys = two_node(m=1)
        sched = GossipSchedule(sys.graph, np.array([1.0]))
        traj, _ = simulate_gossip(sys, sched, RunConfig(steps=5, dense_per_step=0, seed=1))
        phi = gossip_pair_matrix(sys, 0, 1).entries
        x = np.array([0.0, 1.0])
        for k in range(5):
            x = phi @ x
            np.testing.assert_allclose(traj.sample_states[k + 1], x, atol=1e-15)

    def test_seed_reproducibility(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.arange(6.0))
        sched = GossipSchedule.uniform(g)
        cfg = RunConfig(steps=50, dense_per_step=2, seed=42)
        t0, drawn0 = simulate_gossip(sys, sched, cfg)
        t1, drawn1 = simulate_gossip(sys, sched, cfg)
        np.testing.assert_array_equal(t0.sample_states, t1.sample_states)
        assert drawn0 == drawn1
        np.testing.assert_array_equal(t0.dense, t1.dense)

    def test_replay_of_logged_draws(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.array([-13.0, 14.0, 3.0, -9.0, -3.0, 6.0]))
        sched = GossipSchedule.uniform(g)
        traj, drawn = simulate_gossip(sys, sched, RunConfig(steps=10, dense_per_step=0, seed=9))
        x = np.array(sys.x0)
        for k, (i, j) in enumerate(drawn):
            x = gossip_pair_matrix(sys, i, j).entries @ x
            np.testing.assert_allclose(traj.sample_states[k + 1], x, atol=1e-15)

    def test_drawn_edges_are_stable(self):
        # inverse-CDF draws from PCG64(seed) over the sorted edge list
        sched = GossipSchedule.uniform(undirected_ring_with_chord())
        e = _draw_edges(sched, 16, 2015)
        drawn = tuple(zip(sched.i[e].tolist(), sched.j[e].tolist()))
        assert drawn == (
            (1, 2), (0, 3), (3, 4), (4, 5), (0, 3), (0, 1), (2, 3), (4, 5),
            (0, 5), (4, 5), (3, 4), (4, 5), (0, 1), (0, 5), (0, 1), (2, 3),
        )

    def test_dense_matches_scalar_interpolant(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_symmetric_connected(rng, n)
            x0 = rng.uniform(-10, 10, n)
            sys = HybridSystem(g, m=int(rng.integers(0, n + 1)), h=0.8 / dense(g).max(), x0=x0)
            cfg = RunConfig(steps=12, dense_per_step=3, seed=int(rng.integers(100)))
            traj, drawn = simulate_gossip(sys, GossipSchedule.uniform(g), cfg)
            assert traj.dense.shape == (12, sys.m, 3)
            taus = dense_tau_grid(sys.h, 3)
            for k, i, j in np.ndindex(traj.dense.shape):
                x_k, edge = traj.sample_states[k], drawn[k]
                want = gossip_interpolant(sys, x_k, edge, i, taus[j])
                assert abs(traj.dense[k, i, j] - want) <= 1e-12 * np.abs(x0).max()

    def test_max_min_shrinking_per_step(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.arange(6.0))
        sched = GossipSchedule.uniform(g)
        traj, _ = simulate_gossip(sys, sched, RunConfig(steps=200, dense_per_step=0, seed=5))
        states = traj.sample_states
        assert np.all(np.diff(states.max(axis=1)) <= 1e-12)
        assert np.all(np.diff(states.min(axis=1)) >= -1e-12)


class TestMonteCarlo:
    def test_single_edge_zero_variance(self):
        sys = two_node(m=1)
        sched = GossipSchedule(sys.graph, np.array([1.0]))
        mc = monte_carlo_mean(sys, sched, RunConfig(steps=10, trials=20))
        det, _ = simulate_gossip(sys, sched, RunConfig(steps=10, dense_per_step=0))
        np.testing.assert_allclose(mc.sample_states, det.sample_states, atol=1e-14)
        np.testing.assert_allclose(mc.stderr, 0.0, atol=1e-14)

    def test_single_trial_rejected(self):
        sys = two_node(m=1)
        sched = GossipSchedule(sys.graph, np.array([1.0]))
        with pytest.raises(ValueError):
            monte_carlo_mean(sys, sched, RunConfig(steps=5, trials=1))

    def test_matches_per_trial_pair_matrix_loop(self):
        rng = np.random.default_rng(113)
        g = random_symmetric_connected(rng, 5)
        x0 = rng.uniform(-8, 8, 5)
        sys = HybridSystem(g, m=2, h=0.6 / dense(g).max(), x0=x0)
        sched = GossipSchedule.uniform(g)
        cfg = RunConfig(steps=30, trials=40, seed=21)
        mc = monte_carlo_mean(sys, sched, cfg)
        # reference: one full pair matrix per drawn edge, trial r seeded seed + r
        all_states = np.empty((cfg.trials, cfg.steps + 1, 5))
        for r in range(cfg.trials):
            _, edges = simulate_gossip(
                sys, sched, RunConfig(steps=cfg.steps, dense_per_step=0, seed=cfg.seed + r)
            )
            x = np.array(x0)
            all_states[r, 0] = x
            for k, (i, j) in enumerate(edges):
                x = gossip_pair_matrix(sys, i, j).entries @ x
                all_states[r, k + 1] = x
        tol = 1e-12 * np.abs(x0).max()
        np.testing.assert_allclose(mc.sample_states, all_states.mean(axis=0), rtol=0, atol=tol)
        stderr = all_states.std(axis=0, ddof=1) / np.sqrt(cfg.trials)
        np.testing.assert_allclose(mc.stderr, stderr, rtol=0, atol=tol)

    def test_mean_tracks_expected_matrix_power(self):
        rng = np.random.default_rng(103)
        g = random_symmetric_connected(rng, 5)
        hmax = 1.0 / dense(g).max()
        sys = HybridSystem(g, m=2, h=0.5 * hmax, x0=rng.uniform(-3, 3, 5))
        sched = GossipSchedule.uniform(g)
        mc = monte_carlo_mean(sys, sched, RunConfig(steps=40, trials=800, seed=13))
        E = gossip_expected_matrix(sys, sched).entries
        predicted = np.array(sys.x0)
        hits = total = 0
        for k in range(1, 41):
            predicted = E @ predicted
            band = np.maximum(4.0 * mc.stderr[k], 1e-12)
            hits += int(np.sum(np.abs(mc.sample_states[k] - predicted) <= band))
            total += 5
        assert hits / total >= 0.95


class TestRunConfig:
    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            RunConfig(steps=-1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            RunConfig(steps=1, trials=0)
