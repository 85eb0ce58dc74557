import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hybridconsensus.config import load_config
from hybridconsensus.engine import (
    RunConfig,
    dense_tau_grid,
    monte_carlo_mean,
    simulate_deterministic,
)
from hybridconsensus.errors import ConsensusError
from hybridconsensus.protocols import HybridSystem, case_matrix
from hybridconsensus.reporting import trajectory_csv_blocks
from oracles import (
    continuous_interpolant,
    dense,
    dense_states,
    draw_edges,
    simulate_gossip,
)
from conftest import (
    PRESETS,
    random_spanning_graph,
    random_symmetric_connected,
    two_node,
    undirected_ring_with_chord,
)

DATA = Path(__file__).resolve().parent / "data"


class TestSimulateDeterministic:
    def test_zero_steps_is_initial_state(self):
        traj = simulate_deterministic(two_node(0), 1, RunConfig(steps=0))
        assert traj.sample_states.shape == (1, 2)
        np.testing.assert_array_equal(traj.sample_states[0], [0.0, 1.0])

    @pytest.mark.parametrize("case", [1, 2])
    def test_stderr_is_zero_per_agent(self, case):
        traj = simulate_deterministic(two_node(m=1), case, RunConfig(steps=3))
        assert traj.stderr.shape == (2,) and not traj.stderr.any()

    def test_one_step_by_hand(self):
        traj = simulate_deterministic(two_node(0), 1, RunConfig(steps=1))
        np.testing.assert_allclose(traj.sample_states[1], [0.2, 0.8], atol=1e-15)

    def test_unknown_case_raises(self):
        with pytest.raises(ConsensusError, match="^case must be 1, 2 or 3, got 7$"):
            simulate_deterministic(two_node(0), 7, RunConfig(steps=1))
        with pytest.raises(ConsensusError, match="^case 3 has no sampled map"):
            simulate_deterministic(two_node(0), 3, RunConfig(steps=1))

    def test_sample_grid_spacing(self):
        # a trajectory holds no times: sample k is written at t_k = k*h
        sys = two_node(0, h=0.25)
        traj = simulate_deterministic(sys, 1, RunConfig(steps=4))
        rows = [line.split(",") for line in "".join(trajectory_csv_blocks(sys, traj)).splitlines()[1:]]
        times = [float(row[0]) for row in rows if row[4] == "sample"]
        assert times == [0.25 * k for k in range(5) for _ in range(2)]

    def test_consensus_on_spanning_tree_graph(self):
        rng = np.random.default_rng(83)
        g = random_spanning_graph(rng, 6, extra=6, w_lo=0.3)
        h = 0.9 / g.in_degrees.max()
        sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-5, 5, 6))
        traj = simulate_deterministic(sys, 1, RunConfig(steps=3000, dense_per_step=0))
        final = traj.sample_states[-1]
        assert final.max() - final.min() < 1e-8

    def test_dense_records_meet_next_sample(self):
        # the last blend weight is 1.0 exactly, so the last dense record of each
        # interval is the next sampled state, bit for bit
        rng = np.random.default_rng(89)
        g = random_spanning_graph(rng, 5, extra=4, w_lo=0.2)
        h = 0.5 / g.in_degrees.max()
        sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-2, 2, 5))
        runs = [(sys, case, RunConfig(steps=5, dense_per_step=4)) for case in (1, 2)]
        for path in (PRESETS / "example1.cfg", PRESETS / "example2.cfg", DATA / "weighted.cfg"):
            cfg = load_config(path)
            runs.append((cfg.system, cfg.case, cfg.run))
        for sys, case, run_cfg in runs:
            traj = simulate_deterministic(sys, case, run_cfg)
            assert traj.blend.shape == (sys.m, run_cfg.dense_per_step)
            assert np.all(traj.blend[:, -1] == 1.0)
            np.testing.assert_array_equal(
                dense_states(traj)[:, :, -1].view(np.int64),
                traj.sample_states[1:, : sys.m].view(np.int64),
            )

    def test_peak_memory_does_not_grow_with_dense_points(self):
        # a run holds its samples and one (m, dense_per_step) blend, so 50 dense
        # points per step cost what 1 does; a held (steps, m, 50) array is 16 MB here
        sys, peaks = two_node(m=2), []
        for d in (1, 50):
            tracemalloc.start()
            try:
                simulate_deterministic(sys, 1, RunConfig(steps=20_000, dense_per_step=d))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1 << 20, f"peaks {peaks} B"

    def test_tau_grid_ends_exactly_at_h(self):
        # 10 * (0.103 / 10) rounds to 0.10300000000000001, one ulp past h
        for h, d in ((0.103, 10), (0.3, 4), (0.07, 7), (1e-3, 3)):
            taus = dense_tau_grid(h, d)
            assert taus[-1] == h
            assert np.all(np.diff(taus) > 0) and taus[0] > 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(97)
        g = random_spanning_graph(rng, 5, extra=4)
        h = 0.9 / max(g.in_degrees.max(), 1e-9)
        x0 = rng.uniform(-1, 1, 5)
        base = HybridSystem(g, m=2, h=h, x0=x0)
        shifted = HybridSystem(g, m=2, h=h, x0=x0 + 3.0)
        cfg = RunConfig(steps=50, dense_per_step=3)
        t0 = simulate_deterministic(base, 1, cfg)
        t1 = simulate_deterministic(shifted, 1, cfg)
        np.testing.assert_allclose(t1.sample_states, t0.sample_states + 3.0, atol=1e-11)
        np.testing.assert_allclose(dense_states(t1), dense_states(t0) + 3.0, atol=1e-11, rtol=0)

    def test_dense_matches_scalar_interpolant(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            g = random_spanning_graph(rng, n, extra=4, w_lo=0.1)
            x0 = rng.uniform(-10, 10, n)
            for case in (1, 2):
                # case 2 also takes continuous in-degrees past 1/h (Remark 1)
                h = 0.9 / max(g.in_degrees[m:].max(initial=0.0) if case == 2 else
                              g.in_degrees.max(), 1.0)
                sys = HybridSystem(g, m=min(m, n), h=h, x0=x0)
                traj = simulate_deterministic(sys, case, RunConfig(steps=6, dense_per_step=3))
                between, taus = dense_states(traj), dense_tau_grid(h, 3)
                for k, i, j in np.ndindex(between.shape):
                    want = continuous_interpolant(case, sys, traj.sample_states[k], i, taus[j])
                    assert abs(between[k, i, j] - want) <= 1e-12 * np.abs(x0).max()

    def test_constant_state_stays_put(self):
        sys = HybridSystem(undirected_ring_with_chord(3), m=0, h=0.1, x0=np.full(3, 2.5))
        traj = simulate_deterministic(sys, 1, RunConfig(steps=2, dense_per_step=0))
        assert np.ptp(traj.sample_states[-1]) == 0.0

    def test_max_min_shrinking(self):
        rng = np.random.default_rng(101)
        for case in (1, 2):
            g = random_spanning_graph(rng, 6, extra=8, w_lo=0.2)
            h = 0.9 / g.in_degrees.max()
            sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-4, 4, 6))
            traj = simulate_deterministic(sys, case, RunConfig(steps=100, dense_per_step=0))
            states = traj.sample_states
            eps = 1e-12
            assert np.all(np.diff(states.max(axis=1)) <= eps)
            assert np.all(np.diff(states.min(axis=1)) >= -eps)


class TestSimulateGossip:
    def test_drawn_edges_are_stable(self):
        # inverse-CDF draws from PCG64(seed) over the sorted edge list
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.zeros(6), probs="uniform")
        sched = sys.schedule
        e = draw_edges(sys, 16, 2015)
        drawn = tuple(zip(sched.i[e].tolist(), sched.j[e].tolist()))
        assert drawn == (
            (1, 2), (0, 3), (3, 4), (4, 5), (0, 3), (0, 1), (2, 3), (4, 5),
            (0, 5), (4, 5), (3, 4), (4, 5), (0, 1), (0, 5), (0, 1), (2, 3),
        )


class TestMonteCarlo:
    def test_single_edge_zero_variance(self):
        sys = two_node(m=1, probs=[1.0])
        mc = monte_carlo_mean(sys, RunConfig(steps=10, trials=20))
        states, _ = simulate_gossip(sys, 10, 0)
        np.testing.assert_allclose(mc.sample_states, states, atol=1e-14)
        np.testing.assert_allclose(mc.stderr, 0.0, atol=1e-14)

    def test_single_trial_rejected(self):
        sys = two_node(m=1, probs=[1.0])
        with pytest.raises(ConsensusError, match=r"^trials must be >= 2, got 1$"):
            monte_carlo_mean(sys, RunConfig(steps=5, trials=1))

    def test_matches_per_trial_pair_matrix_loop(self):
        rng = np.random.default_rng(113)
        g = random_symmetric_connected(rng, 5)
        x0 = rng.uniform(-8, 8, 5)
        # p_e proportional to e^2: unlike uniform, a draw over the edges in another order differs
        weights = np.arange(1.0, len(g.vals) // 2 + 1) ** 2
        for probs in ("uniform", weights / weights.sum()):
            sys = HybridSystem(g, m=2, h=0.6 / dense(g).max(), x0=x0, probs=probs)
            cfg = RunConfig(steps=30, trials=40, seed=21)
            mc = monte_carlo_mean(sys, cfg)
            # reference: one full pair matrix per drawn edge, trial r seeded seed + r
            all_states = np.array([simulate_gossip(sys, cfg.steps, cfg.seed + r)[0]
                                   for r in range(cfg.trials)])
            tol = 1e-12 * np.abs(x0).max()
            np.testing.assert_allclose(mc.sample_states, all_states.mean(axis=0), rtol=0, atol=tol)
            stderr = all_states[:, -1].std(axis=0, ddof=1) / np.sqrt(cfg.trials)
            np.testing.assert_allclose(mc.stderr, stderr, rtol=0, atol=tol)

    def test_mean_tracks_expected_matrix_power(self):
        rng = np.random.default_rng(103)
        g = random_symmetric_connected(rng, 5)
        hmax = 1.0 / dense(g).max()
        sys = HybridSystem(g, m=2, h=0.5 * hmax, x0=rng.uniform(-3, 3, 5), probs="uniform")
        E = dense(case_matrix(sys, 3))
        predicted = np.array(sys.x0)
        hits = total = 0
        for k in range(1, 41):
            predicted = E @ predicted
            # a run's standard error is its last step's: step k's band is a k-step run's
            mc = monte_carlo_mean(sys, RunConfig(steps=k, trials=800, seed=13))
            band = np.maximum(4.0 * mc.stderr, 1e-12)
            hits += int(np.sum(np.abs(mc.sample_states[k] - predicted) <= band))
            total += 5
        assert hits / total >= 0.95

    def test_peak_memory_of_the_draws(self):
        # each draw is an edge index below 7: one byte, where np.intp took eight
        # (2,000 x 2,000 draws: 31.7 MiB peak, against 5.0 MiB in uint8)
        cfg = load_config(PRESETS / "example3.cfg")
        tracemalloc.start()
        try:
            monte_carlo_mean(cfg.system, RunConfig(steps=2_000, trials=2_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20, f"peak {peak} B"

    def test_stderr_scales_with_the_states(self):
        # x0 times 2**530 puts the trials about 1e160 apart: np.std squared their
        # deviations to inf, so the band was infinite.  A power of two scales each
        # gossip step and each mean exactly, and the standard error within round-off
        cfg = load_config(PRESETS / "example3.cfg")
        sys, scale = cfg.system, 2.0**530
        big = HybridSystem(sys.graph, sys.m, sys.h, sys.x0 * scale, probs=cfg.probs)
        run = RunConfig(steps=40, trials=1_000, seed=cfg.seed)
        mc, scaled = monte_carlo_mean(sys, run), monte_carlo_mean(big, run)
        assert scaled.sample_states.tobytes() == (mc.sample_states * scale).tobytes()
        np.testing.assert_allclose(scaled.stderr, mc.stderr * scale, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [0, 1, 7, 39, 40])
    def test_shorter_run_is_a_prefix(self, k):
        # trial r's first k draws are the same in a k-step and a 40-step run
        rng = np.random.default_rng(107)
        g = random_symmetric_connected(rng, 5)
        x0 = rng.uniform(-8, 8, 5)
        sys = HybridSystem(g, m=2, h=0.6 / dense(g).max(), x0=x0, probs="uniform")
        cfg = RunConfig(steps=40, trials=30, seed=17)
        long = monte_carlo_mean(sys, cfg)
        short = monte_carlo_mean(sys, RunConfig(steps=k, trials=cfg.trials, seed=cfg.seed))
        assert short.sample_states.tobytes() == long.sample_states[: k + 1].tobytes()
        assert short.stderr.shape == long.stderr.shape == (5,)
        if k == cfg.steps:
            assert short.stderr.tobytes() == long.stderr.tobytes()
        # step k of the longer run's trials, one full pair matrix per drawn edge
        at_k = np.array([simulate_gossip(sys, cfg.steps, cfg.seed + r)[0][k] for r in range(cfg.trials)])
        stderr = at_k.std(axis=0, ddof=1) / np.sqrt(cfg.trials)
        np.testing.assert_allclose(short.stderr, stderr, rtol=0, atol=1e-12 * np.abs(x0).max())


class TestRunConfig:
    @pytest.mark.parametrize("key, value, message", [
        ("steps", -1, "steps must be >= 0, got -1"),
        ("dense_per_step", -1, "dense_per_step must be >= 0, got -1"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("trials", 0, "trials must be >= 2, got 0"),
        ("trials", 1, "trials must be >= 2, got 1"),
        ("tol", 0.0, "tol must be positive and finite, got 0.0"),
        ("tol", -1.0, "tol must be positive and finite, got -1.0"),
        ("tol", math.nan, "tol must be positive and finite, got nan"),
        ("tol", math.inf, "tol must be positive and finite, got inf"),
    ])
    def test_refused_value(self, key, value, message):
        # the floors and the tol check are written once, in RunConfig, which load_config calls,
        # so the CLI prints these messages (test_config_cli.py's REFUSED rows)
        with pytest.raises(ConsensusError) as exc:
            RunConfig(**{"steps": 0, key: value})
        assert str(exc.value) == message
