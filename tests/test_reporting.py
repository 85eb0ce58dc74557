import math
from dataclasses import fields, replace

import numpy as np
import pytest

from hybridconsensus import (
    HybridSystem,
    MonteCarloSummary,
    RunConfig,
    Trajectory,
    WeightedDigraph,
    simulate_deterministic,
    verify_run,
)
from hybridconsensus.config import build_schedule, build_system, load_config
from hybridconsensus.reporting import CSV_HEADER, trajectory_csv_lines
from conftest import PRESETS, reference_csv_lines


def chain3(h: float, m: int = 2, x0=(1.0, -2.0, 3.0)) -> HybridSystem:
    """Agent 1 hears agent 0, agent 2 hears agent 1; agents 0..m-1 continuous."""
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = 1.0
    return HybridSystem(WeightedDigraph(w), m=m, h=h, x0=np.array(x0))


def assert_matches_reference(sys: HybridSystem, traj) -> None:
    got, want = trajectory_csv_lines(sys, traj), reference_csv_lines(sys, traj)
    assert len(got) == len(want)
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, f"{len(bad)} rows differ, first {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"


class TestTrajectoryCsv:
    def test_dense_rows_stay_in_their_interval_at_long_horizon(self):
        # 240,000 dense rows; float times near t = 9000 used to be re-binned
        # into the wrong sampling interval
        sys = chain3(0.3)
        traj = simulate_deterministic(sys, 1, RunConfig(steps=30_000, dense_per_step=4))
        lines = trajectory_csv_lines(sys, traj)
        assert lines[0] == CSV_HEADER
        t_k, dense_rows, misplaced = None, 0, 0
        for line in lines[1:]:
            t, _, _, _, record = line.split(",")
            if record == "sample":
                t_k = float(t)
                continue
            dense_rows += 1
            misplaced += not t_k < float(t) <= t_k + sys.h
        assert dense_rows == 30_000 * 2 * 4
        assert misplaced == 0, f"{misplaced} of {dense_rows} dense rows outside (t_k, t_k + h]"


class TestCsvMatchesReference:
    """Byte equality with the per-row reference formatter."""

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_preset(self, name):
        cfg = load_config(PRESETS / f"{name}.cfg")
        sys = build_system(cfg)
        sched = build_schedule(cfg) if cfg.case == 3 else None
        run = RunConfig(**{f.name: getattr(cfg, f.name) for f in fields(RunConfig)})
        # as shipped, and from the zero state carrying x0's signs (-0.0 != 0.0 in repr)
        for x0 in (sys.x0, -0.0 * sys.x0):
            start = replace(sys, x0=x0)
            _, traj = verify_run(start, cfg.case, run, tol=cfg.tol, sched=sched)
            assert_matches_reference(start, traj)

    def test_signed_zeros_nan_inf_subnormal(self):
        sys = chain3(0.3)
        special = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324])
        times = np.arange(3) * sys.h
        states = np.resize(special, (3, 3))
        assert_matches_reference(
            sys, Trajectory(times, states, np.resize(special[::-1], (2, 2, 4)))
        )
        assert_matches_reference(sys, MonteCarloSummary(times, states, np.zeros((3, 3))))

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize(
        "m, steps, dense",
        [(2, 0, 4), (2, 5, 0), (0, 5, 4), (3, 5, 4)],
        ids=["steps=0", "dense_per_step=0", "m=0", "m=n"],
    )
    def test_degenerate_shapes(self, case, m, steps, dense):
        sys = chain3(0.3, m=m, x0=(-0.0, -2.0, 3.0))
        traj = simulate_deterministic(sys, case, RunConfig(steps=steps, dense_per_step=dense))
        assert_matches_reference(sys, traj)
