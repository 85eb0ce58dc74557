import math
import os
import tracemalloc

import numpy as np
import pytest

from hybridconsensus import cli, reporting
from hybridconsensus.analysis import decide, verify_run
from hybridconsensus.config import load_config
from hybridconsensus.engine import RunConfig, Trajectory, simulate_deterministic
from hybridconsensus.protocols import HybridSystem, case_matrix
from hybridconsensus.reporting import CSV_HEADER, trajectory_csv_blocks, write_replacing
from hybridconsensus.spectral import StochasticMatrix
from oracles import dense, digraph
from conftest import PRESETS, reference_csv_lines


def chain3(h: float, m: int = 2, x0=(1.0, -2.0, 3.0)) -> HybridSystem:
    """Agent 1 hears agent 0, agent 2 hears agent 1; agents 0..m-1 continuous."""
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = 1.0
    return HybridSystem(digraph(w), m=m, h=h, x0=np.array(x0))


def assert_matches_reference(sys: HybridSystem, traj) -> None:
    """Byte equality with the reference at the default block size and at
    blocks of one step, of one row less or more than a step, and of a step."""
    want = "\n".join(reference_csv_lines(sys, traj)) + "\n"
    width = sys.n + sys.m * traj.blend.shape[1]
    for block_rows in (reporting.BLOCK_ROWS, 1, width - 1, width, width + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "BLOCK_ROWS", block_rows)
            got = "".join(trajectory_csv_blocks(sys, traj))
        if got != want:
            got_rows, want_rows = got.split("\n"), want.split("\n")
            i = next((i for i, (a, b) in enumerate(zip(got_rows, want_rows)) if a != b), None)
            pytest.fail(f"BLOCK_ROWS={block_rows}: {len(got_rows)} rows against "
                        f"{len(want_rows)}, first difference at row {i}")


class TestTrajectoryCsv:
    def test_dense_rows_stay_in_their_interval_at_long_horizon(self):
        # 240,000 dense rows; float times near t = 9000 used to be re-binned
        # into the wrong sampling interval
        sys = chain3(0.3)
        traj = simulate_deterministic(sys, 1, RunConfig(steps=30_000, dense_per_step=4))
        lines = "".join(trajectory_csv_blocks(sys, traj)).splitlines()
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
        sys = cfg.system
        # as shipped, and from the zero state carrying x0's signs (-0.0 != 0.0 in repr)
        for x0 in (sys.x0, -0.0 * sys.x0):
            probs = cfg.probs if cfg.case == 3 else None
            start = HybridSystem(sys.graph, sys.m, sys.h, x0, probs)
            _, traj = verify_run(start, cfg.case, cfg.run)
            assert_matches_reference(start, traj)

    def test_signed_zeros_nan_inf_subnormal(self):
        # through the samples and through the blend weights; 0 * inf and
        # inf - inf give NaN as IEEE 754 says, where numpy also warns
        sys = chain3(0.3)
        special = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324])
        states = np.resize(special, (3, 3))
        with np.errstate(invalid="ignore"):
            for blend in (np.resize(special[::-1], (2, 4)), np.resize(special, (2, 6)), np.empty((2, 0))):
                assert_matches_reference(sys, Trajectory(states, blend, np.zeros(3)))
                assert_matches_reference(sys, Trajectory(states[::-1], blend, np.zeros(3)))

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


class TestWriteTrajectoryCsv:
    def test_peak_memory_is_set_by_the_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "BLOCK_ROWS", 4096)
        sys = chain3(0.3)
        traj = simulate_deterministic(sys, 1, RunConfig(steps=20_000))
        path = tmp_path / "trajectory.csv"
        tracemalloc.start()
        try:
            write_replacing(path, trajectory_csv_blocks(sys, traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4, f"peak {peak} B for a {path.stat().st_size} B file"

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, exc):
        sys = chain3(0.3)
        traj = simulate_deterministic(sys, 1, RunConfig(steps=50))
        path = tmp_path / "trajectory.csv"
        path.write_bytes(b"old\n")

        def interrupted():
            it = trajectory_csv_blocks(sys, traj)
            yield next(it)  # the header
            yield next(it)  # the first block of steps
            raise exc("stopped in the second block")

        monkeypatch.setattr(reporting, "BLOCK_ROWS", 100)
        with pytest.raises(exc):
            write_replacing(path, interrupted())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["trajectory.csv"]


class TestWriteVerdictJson:
    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, exc):
        # verdict.json was written in place, so the old file was gone before the write ended
        path = tmp_path / "verdict.json"
        path.write_bytes(b"old\n")

        def interrupted(src, dst):
            raise exc("stopped before the rename")

        monkeypatch.setattr(reporting.os, "replace", interrupted)
        with pytest.raises(exc):
            write_replacing(path, ['{"solvable": true}', "\n"])
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["verdict.json"]


class TestStrictJson:
    def test_verdict_json_refuses_non_finite(self):
        cfg = load_config(PRESETS / "example1.cfg")
        verdict = decide(cfg.system, cfg.case)._replace(predicted_value=math.nan)
        with pytest.raises(ValueError):
            reporting.verdict_json(cfg, verdict)

    def test_check_refuses_non_finite(self, capsys, monkeypatch):
        decided = cli.decide
        monkeypatch.setattr(
            cli, "decide", lambda *args: decided(*args)._replace(predicted_value=math.inf)
        )
        assert cli.main(["check", str(PRESETS / "example1.cfg")]) == cli.EXIT_CONDITION
        assert capsys.readouterr().out == ""


class TestMatrixOutput:
    def case3_config(self, tmp_path):
        (tmp_path / "g.edges").write_text("n 3\n1 2 0.7\n2 1 0.7\n2 3 1.3\n3 2 1.3\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graph = g.edges\ncase = 3\nm = 2\nh = 0.1\nx0 = 1, -2, 3\n"
                       "probs = 0.375, 0.625\n")
        return cfg

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "case3"])
    def test_matches_per_entry_repr(self, tmp_path, capsys, name):
        path = self.case3_config(tmp_path) if name == "case3" else PRESETS / f"{name}.cfg"
        cfg = load_config(path)
        entries = dense(case_matrix(cfg.system, cfg.case))
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in entries)
        assert cli.main(["matrix", str(path)]) == 0
        assert capsys.readouterr().out == want

    def test_rows_take_one_row_of_memory(self):
        # x_i <- (x_i + x_{i+1}) / 2 around a ring of 2000: the dense form alone is 32 MB
        n, ii = 2000, np.arange(2000)
        P = StochasticMatrix(np.full(n, 0.5), ii, (ii + 1) % n, np.full(n, 0.5))
        rows = 0
        tracemalloc.start()
        try:
            for row in reporting.matrix_rows(P):
                assert row.count("0.5") == 2 and row.count("0.0") == n - 2
                rows += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == n
        assert peak < 4 * 2**20, f"peak {peak} B"
