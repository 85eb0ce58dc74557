import numpy as np

from hybridconsensus import HybridSystem, RunConfig, WeightedDigraph, simulate_deterministic
from hybridconsensus.reporting import CSV_HEADER, trajectory_csv_lines


def chain3(h: float) -> HybridSystem:
    """Agent 1 hears agent 0, agent 2 hears agent 1; agents 0 and 1 continuous."""
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = 1.0
    return HybridSystem(WeightedDigraph(w), m=2, h=h, x0=np.array([1.0, -2.0, 3.0]))


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
