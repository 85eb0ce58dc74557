"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hybridconsensus.engine import RunConfig, monte_carlo_mean, simulate_deterministic
from hybridconsensus.protocols import HybridSystem, case_matrix, gains, pair_gains
from hybridconsensus.spectral import left_eigenvector
from oracles import (
    dense,
    dense_states,
    digraph,
    NotRankOne,
    PAPER_X0,
    gossip_interpolant,
    has_spanning_tree,
    iteration_matrix,
    laplacian,
    nonconsensus_witness,
    sia_limit,
)
from conftest import (
    PRESETS,
    random_spanning_graph,
    random_split_graph,
    random_symmetric_connected,
    run_cli,
    undirected_ring_with_chord,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def laplacian_left_null(L: np.ndarray) -> np.ndarray:
    """Independent oracle: nu with L^T nu = 0 by SVD null-space extraction."""
    _, _, vh = np.linalg.svd(L.T)
    nu = vh[-1]
    if nu.sum() < 0:
        nu = -nu
    return nu / nu.sum()


def test_criterion_1_spectral_vs_dynamic_agreement():
    """Theorem-1 check: simulated limit matches the Laplacian null-vector
    prediction on >= 100 randomized spanning-tree digraphs."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        g = random_spanning_graph(rng, n, extra=n, w_lo=0.05, w_hi=1.0)
        h = 0.9 / g.in_degrees.max()
        sys_ = HybridSystem(g, m=n // 2, h=h, x0=rng.uniform(-10, 10, n))
        L = laplacian(g)
        predicted = laplacian_left_null(L) @ sys_.x0
        M = dense(case_matrix(sys_, 1))
        x = np.array(sys_.x0)
        for _ in range(200):  # chunks of 2000 sampled steps
            for _ in range(2000):
                x = M @ x
            if np.max(np.abs(x - predicted)) < 1e-8:
                break
        gap = float(np.max(np.abs(x - predicted)))
        worst = max(worst, gap)
        assert gap < 1e-6, f"trial {trial}: gap {gap:.3e}"
    report("1 spectral-vs-dynamic (case 1)", worst < 1e-6, f"worst gap {worst:.2e} over 100 graphs")


def test_criterion_2_case2_gain_law():
    """Case-2 map is stochastic with positive diagonal under the
    discrete-only bound, even with continuous in-degrees above 1/h, and its
    limit matches the gain-weighted null vector."""
    rng = np.random.default_rng(2025)
    saw_large_continuous_degree = False
    worst_residual = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        g = random_spanning_graph(rng, n, extra=n, w_lo=0.2, w_hi=1.0)
        w = dense(g)
        h = 0.9 / max(w[m:].sum(axis=1).max(), 0.5) if m < n else 0.5
        # push some continuous rows past the 1/h degree mark (Remark-1 regime)
        for i in range(m):
            if w[i].sum() > 0 and rng.random() < 0.6:
                w[i] *= (1.5 / h) / w[i].sum()
        g = digraph(w)
        sys_ = HybridSystem(g, m=m, h=h, x0=rng.uniform(-5, 5, n))
        d = g.in_degrees
        if any(d[i] > 1 / h for i in range(m)):
            saw_large_continuous_degree = True
        P = case_matrix(sys_, 2)  # raises unless row-stochastic
        assert np.diag(dense(P)).min() > 0
        limit, nu = sia_limit(P)
        L = laplacian(g)
        residual = float(np.max(np.abs(L.T @ (gains(sys_, 2) * nu.nu))))
        worst_residual = max(worst_residual, residual)
        assert residual < 1e-10
        # powers applied to x0 hit the predicted consensus value
        assert np.max(np.abs(limit @ sys_.x0 - nu.nu @ sys_.x0)) < 1e-8
    report(
        "2 case-2 gain law",
        saw_large_continuous_degree and worst_residual < 1e-10,
        f"worst L^T H nu residual {worst_residual:.2e}; Remark-1 regime covered",
    )


def test_criterion_3_necessity_both_directions():
    """No spanning tree => powers are not rank-one AND a two-component
    initial state keeps disagreement >= 1 over 10^4 steps."""
    rng = np.random.default_rng(2026)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        g = random_split_graph(rng, n)
        assert not has_spanning_tree(g)
        h = 0.9 / g.in_degrees.max()
        sys_ = HybridSystem(g, m=n // 2, h=h, x0=np.zeros(n))
        with pytest.raises(NotRankOne):
            sia_limit(case_matrix(sys_, 1))
        x = nonconsensus_witness(sys_)
        M = dense(case_matrix(sys_, 1))
        min_disagreement = np.inf
        for _ in range(10_000):
            x = M @ x
            min_disagreement = min(min_disagreement, x.max() - x.min())
        assert min_disagreement >= 1.0 - 1e-9, f"trial {trial}: {min_disagreement}"
    report("3 necessity (both directions)", True, "50/50 graphs without spanning tree")


def test_criterion_4_sia_equivalence_random_gains():
    """sia_limit succeeds exactly when the graph has a spanning tree, for
    200 randomized graphs and gains 0 < h_i < 1/d_ii."""
    rng = np.random.default_rng(2027)
    agree = 0
    for trial in range(200):
        n = int(rng.integers(4, 11))
        if trial % 2 == 0:
            g = random_spanning_graph(rng, n, extra=n, w_lo=0.1, w_hi=1.0)
        else:
            g = random_split_graph(rng, n)
        d = g.in_degrees
        gains = np.array(
            [rng.uniform(0.05, 0.95) / d[i] if d[i] > 0 else rng.uniform(0.1, 1.0) for i in range(n)]
        )
        P = iteration_matrix(g, gains)
        try:
            sia_limit(P)
            succeeded = True
        except NotRankOne:
            succeeded = False
        agree += succeeded == has_spanning_tree(g)
    report("4 SIA <=> spanning tree", agree == 200, f"{agree}/200 agreement")


def test_criterion_5_gossip_mean_consensus():
    """Benchmark gossip network (6 vertices, 7 edges, p = 1/7, h = 0.2):
    the Monte-Carlo mean tracks the expected-matrix powers and both land on
    the predicted consensus value."""
    g = undirected_ring_with_chord(6)
    x0 = np.array(PAPER_X0)
    sys_ = HybridSystem(g, m=3, h=0.2, x0=x0, probs="uniform")
    sched = sys_.schedule
    assert len(sched.i) == 7 and sched.probs[0] == pytest.approx(1 / 7)
    steps = 600
    mc = monte_carlo_mean(sys_, RunConfig(steps=steps, trials=2000, seed=11))
    E = case_matrix(sys_, 3)
    power = np.array(x0)
    for _ in range(steps):
        power = dense(E) @ power
    band = np.maximum(4.0 * mc.stderr, 1e-12)
    entry_gaps = np.abs(mc.sample_states[-1] - power)
    nu = left_eigenvector(E).nu
    predicted = float(nu @ x0)
    power_gap = float(np.max(np.abs(power - predicted)))
    mean_gap = float(np.max(np.abs(mc.sample_states[-1] - predicted)))
    ok = bool(np.all(entry_gaps <= band)) and power_gap < 1e-5 and np.all(
        np.abs(mc.sample_states[-1] - predicted) <= band + 1e-5
    )
    report(
        "5 gossip mean-sense consensus",
        ok,
        f"max |mean - E-power| {entry_gaps.max():.2e} vs band {band.max():.2e}; "
        f"E-power gap to prediction {power_gap:.2e}; mean gap {mean_gap:.2e}",
    )


def test_criterion_6_endpoint_consistency():
    """Intra-sample states at tau = h coincide with the one-step update to
    < 1e-12, over 10^4 randomized triples: the dense state `run` writes
    against the case-1/2 matrix row, and the gossip closed form against the
    pair update from `pair_gains`."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        case = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        if case in (1, 2):
            g = random_spanning_graph(rng, n, extra=n, w_lo=0.1, w_hi=1.0)
            m = int(rng.integers(1, n + 1))
            d = g.in_degrees
            cap = d[m:].max() if (case == 2 and m < n) else d.max()
            h = rng.uniform(0.1, 0.9) / max(cap, 0.5)
            sys_ = HybridSystem(g, m=m, h=h, x0=rng.uniform(-1, 1, n))
            M = dense(case_matrix(sys_, case))
            cfg = RunConfig(steps=1, dense_per_step=int(rng.integers(1, 4)))
            states = dense_states(simulate_deterministic(sys_, case, cfg))
            i = int(rng.integers(0, m))
            gap = abs(states[0, i, -1] - M[i] @ sys_.x0)
        else:
            g = random_symmetric_connected(rng, n if n >= 2 else 2)
            m = int(rng.integers(1, n + 1))
            h = rng.uniform(0.1, 0.9) / dense(g).max()
            sys_ = HybridSystem(g, m=m, h=h, x0=np.zeros(n), probs="uniform")
            sched = sys_.schedule
            e = int(rng.integers(0, len(sched.i)))
            i, j = int(sched.i[e]), int(sched.j[e])
            x = rng.uniform(-1, 1, n)
            participants = [a for a in (i, j) if a < m]
            if not participants:
                continue
            agent = participants[int(rng.integers(0, len(participants)))]
            g_agent = pair_gains(sys_)[e, int(agent == j)]
            update = x[agent] + g_agent * (x[i + j - agent] - x[agent])
            gap = abs(gossip_interpolant(sys_, x, (i, j), agent, h) - update)
        worst = max(worst, float(gap))
        assert gap < 1e-12
        checked += 1
    report("6 endpoint consistency", worst < 1e-12, f"worst gap {worst:.2e} over 10^4 triples")


def test_criterion_7_benchmark_examples_via_cli(tmp_path):
    """All three benchmark configs (stand-in graphs, the paper's x0,
    h = 0.2, m = 3) converge and the CLI exits 0."""
    for idx in (1, 2, 3):
        out = tmp_path / f"ex{idx}"
        result = run_cli("run", str(PRESETS / f"example{idx}.cfg"), "--out", str(out))
        assert result.returncode == 0, f"example{idx}: {result.stderr}"
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["solvable"] and verdict["converged"], f"example{idx}: {verdict}"
    report("7 benchmark examples via CLI", True, "cases 1-3 converged, exit 0")


def test_criterion_8_determinism(tmp_path):
    """Identical config + seed => byte-identical trajectory and verdict files,
    for a gossip run (seeded draws) and a case-1 run (dense rows)."""
    runs = {
        "example3": ("--steps", "120", "--trials", "60", "--tol", "1.0"),
        "example1": ("--steps", "120", "--tol", "1.0"),
    }
    outs = {}
    for preset, flags in runs.items():
        for tag in ("a", "b"):
            out = tmp_path / preset / tag
            result = run_cli("run", str(PRESETS / f"{preset}.cfg"), *flags, "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs[preset, tag] = [(out / f).read_bytes() for f in ("trajectory.csv", "verdict.json")]
    same = [p for p in runs if outs[p, "a"] == outs[p, "b"]]
    report("8 determinism", same == list(runs), f"identical trajectory and verdict bytes: {same}")
