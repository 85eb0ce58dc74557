import json
import subprocess
import sys

import numpy as np
import pytest

from hybridconsensus.cli import main
from hybridconsensus.config import KEYS, PAPER_H, PAPER_X0, build_schedule, build_system, load_config
from hybridconsensus.engine import RunConfig
from hybridconsensus.errors import DimensionMismatch, ParseError, UnknownCase


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "hybridconsensus", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def strict_json(text):
    """Parse `text`, refusing NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_GRAPH = "n 2\n1 2 1.0\n2 1 1.0\n"
SMALL_CFG = "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\n"
NOT_UTF8 = b"# caf\xe9 \xff\xfe\n"  # Latin-1, then two bytes no UTF-8 text holds

# a 3-vertex path under case 1, and a value other than the base or default for every flag
BASE = {"graph": "g.edges", "case": "1", "m": "1", "h": "0.2", "x0": "0, 1, 2"}
OVERRIDES = {
    "case": "3", "m": "2", "h": "0.3", "x0": "2, 1, 0", "steps": "7", "dense_per_step": "3",
    "seed": "5", "trials": "9", "probs": "0.25, 0.75", "tol": "0.001",
}


class TestLoadConfig:
    def test_minimal_config_defaults(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        cfg = load_config(write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nh = 0.2\nx0 = 0, 1\n"))
        assert cfg.dense_per_step == 10
        assert cfg.tol == 1e-8
        assert cfg.trials == 1000
        assert cfg.probs == "uniform"
        np.testing.assert_array_equal(cfg.x0, [0.0, 1.0])

    def test_paper_preset(self, tmp_path, presets_dir):
        cfg = load_config(presets_dir / "example1.cfg")
        np.testing.assert_array_equal(cfg.x0, PAPER_X0)
        assert cfg.h == PAPER_H
        assert cfg.graph.n == 6

    def test_paper_preset_requires_six_vertices(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(DimensionMismatch):
            load_config(write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nx0 = paper\n"))

    def test_x0_length_mismatch(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(DimensionMismatch):
            load_config(
                write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1, 2\n")
            )

    def test_unknown_case(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(UnknownCase):
            load_config(write_cfg(tmp_path, "graph = g.edges\ncase = 9\nm = 1\nh = 0.1\nx0 = 0, 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(ParseError):
            load_config(
                write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\nbogus = 3\n")
            )

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, tol):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        text = f"graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\ntol = {tol}\n"
        with pytest.raises(ValueError, match="tol"):
            load_config(write_cfg(tmp_path, text))

    def test_undecodable_config_is_parse_error(self, tmp_path):
        # read_text raised UnicodeDecodeError, a ValueError: exit 2, file unnamed
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        path = tmp_path / "exp.cfg"
        path.write_bytes(SMALL_CFG.encode() + NOT_UTF8)
        with pytest.raises(ParseError, match=r"exp\.cfg:6: not UTF-8 text"):
            load_config(path)

    @pytest.mark.parametrize("brk", ["\f", "\u2028"], ids=["form-feed", "line-separator"])
    def test_line_break_characters_in_comments(self, tmp_path, brk):
        # str.splitlines broke lines at these: "b" was read as a line without "="
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        path = tmp_path / "exp.cfg"
        path.write_bytes(f"# a{brk}b\n{SMALL_CFG}".encode())
        assert load_config(path).h == 0.1
        path.write_bytes(f"# a{brk}# b\nbogus\n{SMALL_CFG}".encode())  # numbered 3 before
        with pytest.raises(ParseError, match=r"exp\.cfg:2: expected 'key = value'"):
            load_config(path)

    def test_explicit_probs(self, tmp_path):
        (tmp_path / "g.edges").write_text("n 3\n1 2 1.0\n2 1 1.0\n2 3 1.0\n3 2 1.0\n")
        cfg = load_config(
            write_cfg(
                tmp_path,
                "graph = g.edges\ncase = 3\nm = 1\nh = 0.2\nx0 = 0, 1, 2\nprobs = 0.25, 0.75\n",
            )
        )
        sched = build_schedule(cfg)
        np.testing.assert_allclose(sched.probs, [0.25, 0.75])
        build_system(cfg)


class TestCliExitCodes:
    def test_missing_config_is_io_error(self):
        assert run_cli("run", "/nonexistent/exp.cfg").returncode == 1

    @pytest.mark.parametrize("bad, where", [("graph", "g.edges:4"), ("config", "exp.cfg:6")])
    def test_undecodable_file_is_io_error(self, tmp_path, capsys, bad, where):
        (tmp_path / "g.edges").write_bytes(SMALL_GRAPH.encode() + (NOT_UTF8 if bad == "graph" else b""))
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(SMALL_CFG.encode() + (NOT_UTF8 if bad == "config" else b""))
        assert main(["check", str(cfg)]) == 1
        assert f"{where}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_graph_is_io_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "graph = missing.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\n")
        assert run_cli("run", str(cfg)).returncode == 1

    def test_vertex_count_beyond_memory_is_parse_error(self, tmp_path):
        # 10^8 x 10^8 weights need 71 PiB, more than any x86-64 user address space, so the
        # allocation fails at once on every host; it used to escape as a MemoryError traceback
        (tmp_path / "g.edges").write_text("n 100000000\n1 2 1.0\n2 1 1.0\n")
        result = run_cli("check", str(write_cfg(tmp_path, SMALL_CFG)))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "g.edges:1: no room for 100000000 x 100000000 weights" in result.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("check", "example3.cfg", "--probs", ",".join(["nan"] * 7)), "probability"),
            (("check", "example1.cfg", "--x0", "nan,1,2,3,4,5", "--h", "0.2"), "x0"),
            (("run", "example1.cfg", "--x0", "inf,1,2,3,4,5", "--h", "0.2"), "x0"),
            (("run", "example1.cfg", "--tol", "-1"), "tol"),
            (("check", "example1.cfg", "--h", "inf"),
             "sampling period must be positive and finite, got inf"),
            (("check", "example1.cfg", "--h", "nan"),
             "sampling period must be positive and finite, got nan"),
        ],
        ids=["nan-probs", "nan-x0", "inf-x0", "negative-tol", "inf-h", "nan-h"],
    )
    def test_nonfinite_or_nonpositive_input_is_condition_error(
        self, tmp_path, presets_dir, args, message
    ):
        command, cfg, *flags = args
        if command == "run":
            flags += ["--out", str(tmp_path)]
        result = run_cli(command, str(presets_dir / cfg), *flags)
        assert result.returncode == 2
        assert message in result.stderr
        assert "NaN" not in result.stdout
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize(
        "preset, flag, value, floor",
        [
            ("example1.cfg", "steps", "-3", 0),
            ("example1.cfg", "dense_per_step", "-1", 0),
            ("example1.cfg", "trials", "0", 1),
            ("example3.cfg", "trials", "1", 2),  # the Monte-Carlo stderr needs two
            ("example1.cfg", "seed", "-1", 0),
            ("example3.cfg", "seed", "-1", 0),  # numpy's PCG64 refused it, naming no key
        ],
        ids=["steps", "dense_per_step", "trials", "case3-trials", "seed", "case3-seed"],
    )
    def test_check_and_run_reject_the_same_counts(
        self, tmp_path, presets_dir, capsys, command, preset, flag, value, floor
    ):
        # check used to accept all six.  run failed inside RunConfig or monte_carlo_mean; a
        # negative seed failed in numpy's generator, naming no key (case 3), or not at all
        args = [command, str(presets_dir / preset), "--" + flag.replace("_", "-"), value]
        assert main(args + (["--out", str(tmp_path)] if command == "run" else [])) == 2
        assert f"error: {flag} must be >= {floor}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize(
        "preset, flag, value",
        [
            ("example1.cfg", "steps", -1),
            ("example1.cfg", "dense_per_step", -1),
            ("example1.cfg", "seed", -1),
            ("example1.cfg", "trials", 0),
            ("example3.cfg", "trials", 0),
            ("example3.cfg", "trials", 1),
        ],
    )
    def test_run_config_raises_the_cli_message(self, presets_dir, capsys, preset, flag, value):
        # the floors are written once, in RunConfig; load_config reaches them through it
        args = ["check", str(presets_dir / preset), "--" + flag.replace("_", "-"), str(value)]
        assert main(args) == 2
        min_trials = 2 if load_config(presets_dir / preset).case == 3 else 1
        with pytest.raises(ValueError) as exc:
            RunConfig(**{"steps": 0, flag: value}, min_trials=min_trials)
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize(
        "preset, flag",
        [("example1.cfg", "steps"), ("example2.cfg", "dense-per-step"), ("example3.cfg", "steps"),
         ("example3.cfg", "trials")],
    )
    def test_count_too_large_to_allocate_is_condition_error(
        self, tmp_path, presets_dir, capsys, preset, flag
    ):
        # 10^16 samples, dense points or trials need at least 71 PiB, more than any x86-64 user
        # address space, so the allocation fails at once on every host; it escaped as a
        # MemoryError traceback, and case 3 drew every trial's edges before it allocated
        out = tmp_path / "out"
        args = ["run", str(presets_dir / preset), "--" + flag, "10000000000000000", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, flags, message",
        [
            ("example1.cfg", ["--case", "3"], "error: gossip requires a symmetric graph\n"),
            ("example3.cfg", ["--probs", "0.5,0.5"], "the graph's 7 edges, got 2\n"),
        ],
        ids=["asymmetric-graph", "probs-per-edge"],
    )
    def test_case3_input_is_condition_error(self, presets_dir, capsys, preset, flags, message):
        assert main(["check", str(presets_dir / preset), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(message)

    def test_h_over_bound_is_condition_error(self, tmp_path, presets_dir):
        result = run_cli("run", str(presets_dir / "example1.cfg"), "--h", "2.0", "--out", str(tmp_path))
        assert result.returncode == 2
        assert "bound_case1" in result.stderr

    def test_example1_run_exits_zero(self, tmp_path, presets_dir):
        result = run_cli("run", str(presets_dir / "example1.cfg"), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["converged"] and verdict["solvable"]

    def test_dense_grid_ends_exactly_at_h(self, tmp_path, presets_dir):
        # 10 * (0.103 / 10) rounds above 0.103; the last dense point must sit at h
        result = run_cli(
            "run", str(presets_dir / "example1.cfg"), "--h", "0.103", "--steps", "600",
            "--out", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        # every interval's last dense row sits at t_k + h, none beyond it
        last_dense, t_k = {}, None
        for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]:
            t, _, _, _, record = line.split(",")
            if record == "sample":
                t_k = float(t)
            else:
                assert float(t) <= t_k + 0.103
                last_dense[t_k] = float(t)
        assert len(last_dense) == 600
        assert all(t == t_k + 0.103 for t_k, t in last_dense.items())

    def test_outdir_env_var(self, tmp_path, presets_dir):
        import os

        env = dict(os.environ, HYBRIDCONSENSUS_OUTDIR=str(tmp_path / "envout"))
        result = run_cli("run", str(presets_dir / "example1.cfg"), "--steps", "5", env=env)
        assert result.returncode == 2  # too few steps to converge -> mismatch
        assert (tmp_path / "envout" / "trajectory.csv").is_file()


class TestCliSubcommands:
    def test_bounds_output(self, presets_dir):
        result = run_cli("bounds", str(presets_dir / "example1.cfg"))
        assert result.returncode == 0
        assert "bound_case1 = 1.0" in result.stdout

    def test_check_reports_prediction(self, presets_dir):
        result = run_cli("check", str(presets_dir / "example1.cfg"))
        assert result.returncode == 0
        verdict = json.loads(result.stdout)
        assert verdict["solvable"]
        assert verdict["predicted_value"] == pytest.approx(-1 / 3, abs=1e-9)

    @pytest.mark.parametrize("preset", ["example1.cfg", "example2.cfg", "example3.cfg"])
    def test_output_is_strict_json(self, tmp_path, presets_dir, capsys, preset):
        cfg = str(presets_dir / preset)
        assert main(["check", cfg]) == 0
        strict_json(capsys.readouterr().out)
        short_run = ["--steps", "80", "--trials", "50", "--tol", "1.0", "--out", str(tmp_path)]
        assert main(["run", cfg, *short_run]) == 0
        strict_json((tmp_path / "verdict.json").read_text())

    def test_matrix_dump_is_row_stochastic(self, presets_dir):
        result = run_cli("matrix", str(presets_dir / "example1.cfg"))
        rows = [list(map(float, line.split(","))) for line in result.stdout.strip().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_flag_overrides_config(self, presets_dir):
        result = run_cli("check", str(presets_dir / "example1.cfg"), "--h", "0.5")
        verdict = json.loads(result.stdout)
        assert verdict["config"]["h"] == 0.5

    @pytest.mark.parametrize("key", sorted(OVERRIDES))
    def test_flag_equals_file_entry(self, tmp_path, capsys, key):
        assert set(OVERRIDES) == {k.name for k in KEYS} - {"graph"}  # every flag
        (tmp_path / "g.edges").write_text("n 3\n1 2 1.0\n2 1 1.0\n2 3 1.0\n3 2 1.0\n")

        def check(name, entries, *flags):
            text = "".join(f"{k} = {v}\n" for k, v in entries.items())
            assert main(["check", str(write_cfg(tmp_path, text, name)), *flags]) == 0
            return capsys.readouterr().out

        by_file = check("file.cfg", {**BASE, key: OVERRIDES[key]})
        by_flag = check("flag.cfg", BASE, "--" + key.replace("_", "-"), OVERRIDES[key])
        assert by_file == by_flag
        assert json.loads(by_flag)["config"][key] != json.loads(check("base.cfg", BASE))["config"][key]


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, presets_dir):
        # gossip run: seeds drive the edge draws
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = run_cli(
                "run", str(presets_dir / "example3.cfg"),
                "--steps", "80", "--trials", "50", "--tol", "1.0", "--out", str(out),
            )
            assert result.returncode == 0, result.stderr
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
