from sys import modules as loaded_modules

import numpy as np
import pytest

from hybridconsensus import engine, graphs, spectral
from hybridconsensus.analysis import decide, verify_run
from hybridconsensus.cli import main
from hybridconsensus.engine import RunConfig, monte_carlo_mean, simulate_deterministic
from hybridconsensus.errors import ConsensusError
from hybridconsensus.graphs import WeightedDigraph
from hybridconsensus.protocols import HybridSystem, case_matrix, pair_gains
from oracles import digraph, nonconsensus_witness
from conftest import (
    random_spanning_graph,
    random_split_graph,
    undirected_ring_with_chord,
)

# h = 2.0 on undirected_ring_with_chord(), whose largest in-degree is 3
BOUND_CASE1 = r"^h = 2\.0 must be strictly below bound_case1 \(1/max d_ii\) = 0\.3333333333333333$"


class TestDecide:
    def test_symmetric_graph_predicts_average(self):
        g = undirected_ring_with_chord()
        x0 = np.array([-13.0, 14.0, 3.0, -9.0, -3.0, 6.0])
        sys = HybridSystem(g, m=3, h=0.2, x0=x0)
        verdict = decide(sys, 1)
        assert verdict.solvable
        assert verdict.predicted_value == pytest.approx(x0.mean(), abs=1e-9)

    def test_leader_chain_predicts_leader_state(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0  # agent 1 hears agent 0
        w[2, 1] = 1.0
        sys = HybridSystem(digraph(w), m=0, h=0.5, x0=np.array([7.0, 0.0, -2.0]))
        verdict = decide(sys, 1)
        assert verdict.solvable
        assert verdict.predicted_value == pytest.approx(7.0, abs=1e-9)

    def test_disconnected_not_solvable(self):
        rng = np.random.default_rng(107)
        g = random_split_graph(rng, 6)
        sys = HybridSystem(g, m=0, h=0.1 / g.in_degrees.max(), x0=np.zeros(6))
        verdict = decide(sys, 1)
        assert not verdict.solvable
        assert verdict.predicted_value is None

    def test_h_over_bound_raises(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=2.0, x0=np.zeros(6))
        with pytest.raises(ConsensusError, match=BOUND_CASE1):
            decide(sys, 1)

    def test_case2_gain_identity_holds(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            g = random_spanning_graph(rng, 6, extra=6, w_lo=0.2)
            dmax_discrete = max(g.in_degrees[3:].max(), 1e-9)
            sys = HybridSystem(g, m=3, h=0.8 / dmax_discrete, x0=rng.uniform(-1, 1, 6))
            decide(sys, 2)  # raises internally if L^T H nu residual >= 1e-10

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_nu_residual_checked_in_every_case(self, monkeypatch, case):
        # a solve 1e-6 off in one entry: only case 2 checked nu, through its gain identity
        real = spectral._gth

        def off(W):
            pi = real(W)
            pi[-1] += 1e-6
            return pi

        probs = "uniform" if case == 3 else None
        sys = HybridSystem(undirected_ring_with_chord(), m=3, h=0.2, x0=np.arange(6.0), probs=probs)
        assert decide(sys, case).solvable
        monkeypatch.setattr(spectral, "_gth", off)
        with pytest.raises(ConsensusError, match="residual"):
            decide(sys, case)

    def test_unknown_case(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.zeros(6))
        with pytest.raises(ConsensusError, match="^case must be 1, 2 or 3, got 4$"):
            decide(sys, 4)

    def test_partial_gossip_schedule_not_solvable(self):
        # a schedule that draws only (0, 1) and (2, 3) of a 4-cycle is the full
        # schedule on the subgraph of those two edges: two closed classes
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
        sys = HybridSystem(digraph(w), m=2, h=0.1, x0=np.arange(4.0), probs=[0.5, 0.5])
        verdict = decide(sys, 3)
        assert not verdict.solvable and verdict.predicted_value is None
        verdict, _ = verify_run(sys, 3, RunConfig(steps=20, trials=4))
        assert not verdict.solvable and not verdict.converged

    @pytest.mark.parametrize("call", [
        lambda sys, cfg: case_matrix(sys, 3),
        lambda sys, cfg: pair_gains(sys),
        lambda sys, cfg: monte_carlo_mean(sys, cfg),
        lambda sys, cfg: decide(sys, 3),
        lambda sys, cfg: verify_run(sys, 3, cfg),
    ], ids=["case_matrix", "pair_gains", "monte_carlo_mean", "decide", "verify_run"])
    def test_case3_without_schedule_rejected(self, call):
        # pair_gains and monte_carlo_mean raised AttributeError on a missing schedule
        sys = HybridSystem(undirected_ring_with_chord(), m=3, h=0.2, x0=np.zeros(6))
        with pytest.raises(ConsensusError, match="^case 3 requires a gossip schedule$"):
            call(sys, RunConfig(steps=5, trials=2))

    def test_case3_sampled_run_rejected_before_stepping(self, monkeypatch):
        # with a schedule, E(Phi) was stepped to the end before case 3 was rejected
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(engine, "_edge_product", no_step)
        ring = HybridSystem(undirected_ring_with_chord(), m=3, h=0.2, x0=np.zeros(6), probs="uniform")
        # at h = 2.0, past the two-node graph's case-3 bound 1.0, `gains` raised that
        # bound's message, not the refusal of case 3
        pair = HybridSystem(digraph(np.array([[0.0, 1.0], [1.0, 0.0]])), m=0, h=2.0,
                            x0=np.zeros(2), probs="uniform")
        no_map = "^case 3 has no sampled map; its pairs move by pair_gains$"
        for sys in (ring, pair):
            with pytest.raises(ConsensusError, match=no_map):
                simulate_deterministic(sys, 3, RunConfig(steps=200_000))

    def test_one_strong_components_pass(self, monkeypatch):
        calls, real = [], graphs.strong_components

        def counting(n, rows, cols):
            calls.append(n)
            return real(n, rows, cols)

        binders = [mod for mod in list(loaded_modules.values())
                   if getattr(mod, "__dict__", {}).get("strong_components") is real]
        assert graphs in binders and spectral in binders
        for mod in binders:  # every loaded module that binds the name
            monkeypatch.setattr(mod, "strong_components", counting)
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=0.2, x0=np.zeros(6), probs="uniform")
        for case in (1, 2, 3):
            calls.clear()
            decide(sys, case)
            assert calls == [6]

    def test_one_symmetry_check_per_command(self, monkeypatch, tmp_path, presets_dir):
        # case-3 check computed the graph's symmetry twice, and run three times
        calls, real = [], WeightedDigraph.is_symmetric

        def counting(graph):
            calls.append(graph.n)
            return real(graph)

        monkeypatch.setattr(WeightedDigraph, "is_symmetric", counting)
        cfg = str(presets_dir / "example3.cfg")
        for args in (["check", cfg], ["run", cfg, "--steps", "5", "--trials", "4", "--out", str(tmp_path)]):
            calls.clear()
            main(args)
            assert calls == [6]


def two_cliques_with_bridge(eps: float) -> WeightedDigraph:
    """Unit 4-cliques on 0-3 and 4-7, joined by a bridge a_34 = a_43 = eps."""
    w = np.zeros((8, 8))
    for lo in (0, 4):
        w[lo : lo + 4, lo : lo + 4] = 1.0
    np.fill_diagonal(w, 0.0)
    w[3, 4] = w[4, 3] = eps
    return digraph(w)


class TestWeakBridge:
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-14])
    def test_bridge_predicts_exact_average(self, eps):
        # a symmetric graph makes I - hL doubly stochastic: nu is uniform
        sys = HybridSystem(two_cliques_with_bridge(eps), m=4, h=0.1, x0=np.arange(8.0))
        verdict = decide(sys, 1)
        assert verdict.solvable
        assert abs(verdict.predicted_value - 3.5) <= 1e-12

    @pytest.mark.parametrize("m, eps", [(4, 1e-12), (4, 1e-16), (8, 1e-16), (8, 1e-17)])
    def test_gossip_bridge_predicts_average(self, m, eps):
        # E(Phi) is symmetric up to O(eps h) on the bridge: nu is uniform to
        # far below the tolerance, and the bridge keeps it one class
        g = two_cliques_with_bridge(eps)
        sys = HybridSystem(g, m=m, h=0.1, x0=np.arange(8.0), probs="uniform")
        verdict = decide(sys, 3)
        assert verdict.solvable
        assert abs(verdict.predicted_value - 3.5) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-12, 1e-17])
    def test_weak_self_observing_pair(self, eps):
        # L^T H nu = 0 with H = h I + O(eps h^2): nu = (2, 1) / 3 + O(eps h)
        g = digraph(np.array([[0.0, eps], [2.0 * eps, 0.0]]))
        sys = HybridSystem(g, m=2, h=0.1, x0=np.array([0.0, 1.0]))
        verdict = decide(sys, 2)
        assert verdict.solvable
        assert abs(verdict.predicted_value - 1.0 / 3.0) <= 1e-12


class TestWitness:
    def test_witness_keeps_disagreement(self):
        rng = np.random.default_rng(127)
        g = random_split_graph(rng, 7)
        sys = HybridSystem(g, m=3, h=0.5 / g.in_degrees.max(), x0=np.zeros(7))
        x0 = nonconsensus_witness(sys)
        sys2 = HybridSystem(g, m=3, h=sys.h, x0=x0)
        traj = simulate_deterministic(sys2, 1, RunConfig(steps=500, dense_per_step=0))
        assert np.ptp(traj.sample_states[-1]) >= 1.0 - 1e-9

    def test_no_witness_with_spanning_tree(self):
        rng = np.random.default_rng(131)
        g = random_spanning_graph(rng, 6, extra=4, w_lo=0.2)
        sys = HybridSystem(g, m=0, h=0.5 / g.in_degrees.max(), x0=np.zeros(6))
        with pytest.raises(ConsensusError):
            nonconsensus_witness(sys)


class TestVerifyRun:
    def test_end_to_end_against_spectral_oracle(self):
        rng = np.random.default_rng(137)
        g = random_spanning_graph(rng, 6, extra=8, w_lo=0.3)
        h = 0.9 / g.in_degrees.max()
        sys = HybridSystem(g, m=3, h=h, x0=rng.uniform(-5, 5, 6))
        verdict, traj = verify_run(sys, 1, RunConfig(steps=4000, dense_per_step=0, tol=1e-8))
        assert verdict.solvable and verdict.converged
        assert verdict.measured_final_disagreement < 1e-8
        assert abs(traj.sample_states[-1][0] - verdict.predicted_value) < 1e-8

    def test_unsolvable_never_converges(self):
        rng = np.random.default_rng(139)
        g = random_split_graph(rng, 6)
        sys = HybridSystem(g, m=2, h=0.5 / g.in_degrees.max(), x0=rng.uniform(-1, 1, 6))
        verdict, _ = verify_run(sys, 1, RunConfig(steps=200, dense_per_step=0))
        assert not verdict.solvable and not verdict.converged

    def test_gossip_mean_within_band(self):
        g = undirected_ring_with_chord()
        x0 = np.array([-13.0, 14.0, 3.0, -9.0, -3.0, 6.0])
        sys = HybridSystem(g, m=3, h=0.2, x0=x0, probs="uniform")
        verdict, mc = verify_run(sys, 3, RunConfig(steps=400, trials=400, seed=3, tol=1e-3))
        assert verdict.solvable and verdict.converged
        assert abs(mc.sample_states[-1].mean() - verdict.predicted_value) < 4 * mc.stderr.max() + 1e-3

    def test_h_over_bound_propagates(self):
        g = undirected_ring_with_chord()
        sys = HybridSystem(g, m=3, h=2.0, x0=np.zeros(6))
        with pytest.raises(ConsensusError, match=BOUND_CASE1):
            verify_run(sys, 1, RunConfig(steps=10))
