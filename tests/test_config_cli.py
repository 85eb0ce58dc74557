import json
from fractions import Fraction

import numpy as np
import pytest

from hybridconsensus.cli import main
from hybridconsensus.config import KEYS, load_config
from hybridconsensus.errors import ConsensusError, ParseError
from hybridconsensus.protocols import case_matrix
from oracles import PAPER_X0, exact_nu
from conftest import run_cli


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
RING6 = "n 6\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n6 1 1.0\n"
SMALL_CFG = "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\n"
NOT_UTF8 = b"# caf\xe9 \xff\xfe\n"  # Latin-1, then two bytes no UTF-8 text holds
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write first

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

    def test_paper_preset(self, presets_dir):
        # each preset states the paper's x(0) and h itself
        for idx in (1, 2, 3):
            cfg = load_config(presets_dir / f"example{idx}.cfg")
            assert cfg.x0 == PAPER_X0 and cfg.h == 0.2
            assert cfg.system.graph.n == 6
            assert cfg.graph == str((presets_dir / f"g{idx}.edges").resolve())  # the key, resolved

    def test_x0_length_mismatch(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(ConsensusError, match="^x0 has length 3, graph has n = 2$"):
            load_config(
                write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1, 2\n")
            )

    def test_unknown_case(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(ConsensusError, match="^case must be 1, 2 or 3, got 9$"):
            load_config(write_cfg(tmp_path, "graph = g.edges\ncase = 9\nm = 1\nh = 0.1\nx0 = 0, 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        with pytest.raises(ParseError):
            load_config(
                write_cfg(tmp_path, "graph = g.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\nbogus = 3\n")
            )

    def test_undecodable_config_is_parse_error(self, tmp_path):
        # read_text raised UnicodeDecodeError, a ValueError: exit 2, file unnamed
        (tmp_path / "g.edges").write_text(SMALL_GRAPH)
        path = tmp_path / "exp.cfg"
        path.write_bytes(SMALL_CFG.encode() + NOT_UTF8)
        with pytest.raises(ParseError, match=r"exp\.cfg:6: not UTF-8 text"):
            load_config(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # the mark was read into the first key: "unknown config keys: ['\\ufeffgraph']"
        (tmp_path / "g.edges").write_bytes(BOM + SMALL_GRAPH.encode())
        path = tmp_path / "exp.cfg"
        path.write_bytes(BOM + SMALL_CFG.encode())
        assert load_config(path).system.graph.n == 2
        path.write_bytes(BOM + SMALL_CFG.encode() + NOT_UTF8)
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
        np.testing.assert_allclose(cfg.system.schedule.probs, [0.25, 0.75])
        assert cfg.system.n == 3


PROBS_IN_CASE1 = "probs is read only in case 3, got case 1"
OUT_OF_RANGE = "each probability must lie in (0, 1]"
PER_EDGE = "probs must give one value for each of the graph's 7 edges, got 2"
# Every input the CLI refuses, id: (config in presets/, flags, exit code, message, by_matrix).
# Under each subcommand: the one stderr line `error: <message>`, no stdout, no --out directory;
# by_matrix marks what only the matrix or its h bound refuses, which `bounds` never builds
REFUSED = {
    # case 3's schedule, built as the config loads, checks the graph and the probabilities
    "asymmetric-graph": ("example1.cfg", "--case 3", 2, "gossip requires a symmetric graph", False),
    "probs-per-edge": ("example3.cfg", "--probs 0.5,0.5", 2, PER_EDGE, False),
    # outside case 3 no schedule is built, so a probs list went unchecked
    "probs-in-case1": ("example1.cfg", "--probs 0.5,0.5", 2, PROBS_IN_CASE1, False),
    "negative-probs-in-case1": ("example1.cfg", "--probs 0.2,-1", 2, PROBS_IN_CASE1, False),
    "case3-probs-run-as-case1": ("example3.cfg", "--probs 0.5,0.5 --case 1", 2, PROBS_IN_CASE1, False),
    "probs-out-of-range": ("example3.cfg", "--probs 0.5,0.5,0,0,0,0,0", 2, OUT_OF_RANGE, False),
    # argparse took a list that starts with "-" for an option, and exited on it
    "negative-probs": ("example3.cfg", "--probs -0.5,0.5,0.2,0.2,0.2,0.2,0.2", 2, OUT_OF_RANGE, False),
    # the same after a prefix of --probs, which argparse expands
    "negative-probs-after-prefix": ("example3.cfg", "--pro -0.5,1", 2, PER_EDGE, False),
    "nan-probs": ("example3.cfg", "--probs " + ",".join(["nan"] * 7), 2, OUT_OF_RANGE, False),
    # a numpy scalar's repr printed "got np.float64(0.7)" under numpy 2
    "probs-sum": ("example3.cfg", "--probs " + ",".join(["0.1"] * 7), 2,
                  "probabilities must sum to 1, got 0.7", False),
    "x0-length": ("example1.cfg", "--x0 1,2,3", 2, "x0 has length 3, graph has n = 6", False),
    "nan-x0": ("example1.cfg", "--x0 nan,1,2,3,4,5", 2, "x0 must be finite, got x0[0] = nan", False),
    "nan-x0-second": ("example1.cfg", "--x0 1,nan,2,3,4,5", 2, "x0 must be finite, got x0[1] = nan", False),
    "inf-x0": ("example1.cfg", "--x0 inf,1,2,3,4,5", 2, "x0 must be finite, got x0[0] = inf", False),
    # `paper` stood for the paper's x(0), and exited 2 on a graph without 6 vertices
    "paper-x0": ("../tests/data/weighted.cfg", "--x0 paper", 1,
                 "bad value for 'x0': could not convert string to float: 'paper'", False),
    "unknown-case": ("example1.cfg", "--case 9", 2, "case must be 1, 2 or 3, got 9", False),
    "m-above-n": ("example1.cfg", "--m 7", 2, "m must lie in [0, 6], got 7", False),
    "inf-h": ("example1.cfg", "--h inf", 2, "sampling period must be positive and finite, got inf", False),
    "nan-h": ("example1.cfg", "--h nan", 2, "sampling period must be positive and finite, got nan", False),
    "zero-h": ("example1.cfg", "--h 0", 2, "sampling period must be positive and finite, got 0.0", False),
    "negative-h": ("example1.cfg", "--h -0.2", 2, "sampling period must be positive and finite, got -0.2",
                   False),
    # RunConfig's floors and tol, which load_config checks: `check` accepted them; run failed in
    # RunConfig, monte_carlo_mean or (a case-3 seed) numpy's generator, naming no key, or not at all
    "steps": ("example1.cfg", "--steps -3", 2, "steps must be >= 0, got -3", False),
    "dense": ("example1.cfg", "--dense-per-step -1", 2, "dense_per_step must be >= 0, got -1", False),
    # one trials floor in every case; the Monte-Carlo stderr needs two
    "trials-0": ("example1.cfg", "--trials 0", 2, "trials must be >= 2, got 0", False),
    "trials-1": ("example1.cfg", "--trials 1", 2, "trials must be >= 2, got 1", False),
    "case3-trials-0": ("example3.cfg", "--trials 0", 2, "trials must be >= 2, got 0", False),
    "case3-trials-1": ("example3.cfg", "--trials 1", 2, "trials must be >= 2, got 1", False),
    "seed": ("example1.cfg", "--seed -1", 2, "seed must be >= 0, got -1", False),
    "case3-seed": ("example3.cfg", "--seed -1", 2, "seed must be >= 0, got -1", False),
    "zero-tol": ("example1.cfg", "--tol 0", 2, "tol must be positive and finite, got 0.0", False),
    "negative-tol": ("example1.cfg", "--tol -1", 2, "tol must be positive and finite, got -1.0", False),
    "nan-tol": ("example1.cfg", "--tol nan", 2, "tol must be positive and finite, got nan", False),
    "inf-tol": ("example1.cfg", "--tol inf", 2, "tol must be positive and finite, got inf", False),
    # the probabilities sum to 1 + 8e-13, within the schedule's 1e-12, and the three at
    # agent 0 times h a = 1 - 2^-53 exceed 1, so E(Phi)'s diagonal there is negative
    "not-stochastic": ("example3.cfg", "--m 0 --h 0.9999999999999999 --probs 0.3333333333336,"
                       "0.3333333333336,0.3333333333336,1e-300,1e-300,1e-300,1e-300", 2,
                       "row 0 violates stochasticity (residual -7.998e-13)", True),
    "h-over-bound-case1": ("example1.cfg", "--h 2", 2,
                           "h = 2.0 must be strictly below bound_case1 (1/max d_ii) = 1.0", True),
    "h-over-bound-case2": ("example1.cfg", "--case 2 --h 2", 2, "h = 2.0 must be strictly below "
                           "bound_case2 (1/max discrete d_ii) = 1.0", True),
    "h-over-bound-case3": ("example3.cfg", "--h 2", 2,
                           "h = 2.0 must be strictly below bound_case3 (1/max a_ij) = 1.0", True),
}


class TestCliExitCodes:
    def test_missing_config_is_io_error(self):
        # the OS's own message: the error used to name the path alone, with no reason
        result = run_cli("run", "/nonexistent/exp.cfg")
        assert result.returncode == 1
        assert result.stderr == "error: [Errno 2] No such file or directory: '/nonexistent/exp.cfg'\n"

    def test_config_directory_is_io_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("bad, where", [("graph", "g.edges:4"), ("config", "exp.cfg:6")])
    def test_undecodable_file_is_io_error(self, tmp_path, capsys, bad, where):
        (tmp_path / "g.edges").write_bytes(SMALL_GRAPH.encode() + (NOT_UTF8 if bad == "graph" else b""))
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(SMALL_CFG.encode() + (NOT_UTF8 if bad == "config" else b""))
        assert main(["check", str(cfg)]) == 1
        assert f"{where}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_graph_is_io_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "graph = missing.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\n")
        result = run_cli("run", str(cfg))
        assert result.returncode == 1
        missing = (tmp_path / "missing.edges").resolve()
        assert result.stderr == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_vertex_count_beyond_memory_is_parse_error(self, tmp_path):
        # 10^18 vertices: their in-degrees alone need 7 EiB, and the reader's sort key i * n + j
        # reaches n * (n + 1), which overflows, so the header is rejected on every host; a count
        # the reader cannot allocate used to escape as a MemoryError traceback
        (tmp_path / "g.edges").write_text("n 1000000000000000000\n1 2 1.0\n2 1 1.0\n")
        result = run_cli("check", str(write_cfg(tmp_path, SMALL_CFG)))
        assert result.returncode == 1
        message = f"no room for {10**18} vertices: n * (n + 1) overflows an index"
        assert result.stderr == f"error: {(tmp_path / 'g.edges').resolve()}:1: {message}\n"

    @pytest.mark.parametrize("command", ["check", "bounds", "matrix", "run"])
    @pytest.mark.parametrize("config, flags, code, message, by_matrix", REFUSED.values(),
                             ids=list(REFUSED))
    def test_refused_input(self, tmp_path, presets_dir, capsys, command, config, flags, code,
                           message, by_matrix):
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        status = main([command, str(presets_dir / config), *flags.split(), *out])
        stdout, stderr = capsys.readouterr()
        assert not (tmp_path / "out").exists()
        if by_matrix and command == "bounds":  # the config loads, and it prints the three bounds
            assert (status, stderr) == (0, "") and stdout.count("bound_case") == 3
        else:
            assert (status, stderr, stdout) == (code, f"error: {message}\n", "")

    @pytest.mark.parametrize(
        "config, graph, message",
        [
            ("graph = g.edges\ncase = 1\ncase = 2\n", SMALL_GRAPH, "{cfg}:3: duplicate key 'case'"),
            ("graph = g.edges\nm = 1\nh = 0.1\nx0 = 0, 1\n", SMALL_GRAPH,
             "missing required key 'case'"),
            (SMALL_CFG.replace("case = 1", "case = one"), SMALL_GRAPH,
             "bad value for 'case': invalid literal for int() with base 10: 'one'"),
            (SMALL_CFG.replace("h = 0.1\n", ""), SMALL_GRAPH, "missing required key 'h'"),
            # a 6-vertex graph got the paper's x(0) when the config named no x0
            (SMALL_CFG.replace("x0 = 0, 1\n", ""), RING6, "missing required key 'x0'"),
            (SMALL_CFG, "", "{graph}: missing 'n <count>' header"),
            (SMALL_CFG, "n two\n", "{graph}:1: bad vertex count"),
            (SMALL_CFG, "n 0\n", "{graph}:1: vertex count must be positive"),
        ],
        ids=["duplicate-key", "missing-key", "bad-int", "missing-h", "missing-x0", "empty-graph",
             "bad-vertex-count", "zero-vertices"],
    )
    def test_input_error_is_parse_error(self, tmp_path, capsys, config, graph, message):
        (tmp_path / "g.edges").write_text(graph)
        cfg = write_cfg(tmp_path, config)
        assert main(["check", str(cfg)]) == 1
        message = message.format(cfg=cfg, graph=(tmp_path / "g.edges").resolve())
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, value, base",
        [(key, "x", BASE) for key in sorted(OVERRIDES)]
        # an empty comma field was dropped: x0 ran on the other three values, and
        # probs on the graph's two edges
        + [("x0", "0,,1,2", BASE), ("probs", "0.5,0.5,", {**BASE, "case": "3"})],
        ids=[*sorted(OVERRIDES), "x0-empty-field", "probs-trailing-comma"],
    )
    def test_bad_flag_value_is_the_file_lines_parse_error(self, tmp_path, capsys, key, value, base):
        # argparse parsed a flag with the key's parser: it printed its usage block and
        # "invalid _x0 value: 'x'", naming a private function, and exited 2
        (tmp_path / "g.edges").write_text("n 3\n1 2 1.0\n2 1 1.0\n2 3 1.0\n3 2 1.0\n")

        def cfg(name, entries):
            return str(write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()), name))

        assert main(["check", cfg("file.cfg", {**base, key: value})]) == 1
        by_file = capsys.readouterr().err
        assert main(["check", cfg("flag.cfg", base), "--" + key.replace("_", "-"), value]) == 1
        by_flag = capsys.readouterr().err
        assert by_flag == by_file
        assert by_flag.startswith(f"error: bad value for {key!r}: ") and by_flag.count("\n") == 1
        if value != "x":
            assert by_flag.endswith(": could not convert string to float: ''\n")

    @pytest.mark.parametrize(
        "preset, key, value, code",
        [
            ("example1.cfg", "h", "-1e3", 2),
            ("example1.cfg", "tol", "-1e-8", 2),
            ("example1.cfg", "steps", "-1e3", 1),
            ("example1.cfg", "m", "-1e3", 1),
            ("example1.cfg", "seed", "-1e3", 1),
            ("example1.cfg", "trials", "-1e3", 1),
            ("example1.cfg", "dense_per_step", "-1e3", 1),
            ("example1.cfg", "case", "-1e3", 1),
            ("example1.cfg", "h", "-inf", 2),
            ("example1.cfg", "x0", "-inf,1,2,3,4,5", 2),
            ("example3.cfg", "probs", "-inf,0.5,0.5,0,0,0,0", 2),
        ],
        ids=["h", "tol", "steps", "m", "seed", "trials", "dense_per_step", "case", "h-inf", "x0",
             "probs"],
    )
    def test_leading_minus_flag_value_is_the_file_line(
        self, tmp_path, presets_dir, capsys, preset, key, value, code
    ):
        # argparse read a value such as "-1e3" as an option, not as the value of the flag
        # before it: it printed its usage block and "expected one argument", and exited 2
        text = (presets_dir / preset).read_text().replace("graph = ", f"graph = {presets_dir}/")
        text = "".join(line for line in text.splitlines(True) if not line.startswith(f"{key} = "))
        assert main(["check", str(write_cfg(tmp_path, f"{text}{key} = {value}\n"))]) == code
        by_file = capsys.readouterr().err
        assert main(["check", str(presets_dir / preset), "--" + key.replace("_", "-"), value]) == code
        by_flag = capsys.readouterr().err
        assert by_flag == by_file
        assert by_flag.startswith("error: ") and by_flag.count("\n") == 1

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
        "preset, flags",
        [("example3.cfg", ["--case", "1"]), ("example3.cfg", ["--case", "2"]),
         ("example1.cfg", ["--probs", "uniform"])],
    )
    def test_uniform_probs_accepted_in_every_case(self, presets_dir, preset, flags):
        # example3.cfg says `probs = uniform`, the default, which every case accepts
        assert main(["check", str(presets_dir / preset), *flags]) == 0

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

    def test_run_writes_where_out_says(self, tmp_path, presets_dir, monkeypatch, capsys):
        # without --out, run wrote into $HYBRIDCONSENSUS_OUTDIR when that was set
        monkeypatch.setenv("HYBRIDCONSENSUS_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(presets_dir / "example1.cfg"), "--steps", "5"]) == 2  # too few
        assert (tmp_path / "trajectory.csv").is_file() and (tmp_path / "verdict.json").is_file()
        assert not (tmp_path / "envout").exists()

    @pytest.mark.parametrize("edges, args", [
        (None, ["--x0=1e308,-1e308,1e308,-1e308,1e308,-1e308", "--steps", "0"]),
        ("n 3\n1 2 1.0\n", ["--m", "1", "--x0=0,1e308,-1e308", "--steps", "50"]),
        ("n 2\n1 2 1.0\n", ["--m", "0", "--x0=1e308,-1e308", "--steps", "0"]),
    ], ids=["example1-no-step", "two-closed-classes", "gap-to-nu"])
    def test_overflowing_spread_writes_no_file(self, tmp_path, presets_dir, capsys, edges, args):
        # agents about 2e308 apart: the final spread is inf, which strict JSON refuses.
        # run wrote trajectory.csv before the verdict failed, and numpy's overflow in
        # np.ptp (and, on the last input, in the gap to nu^T x0 = -1e308) printed a
        # RuntimeWarning.  The 3-vertex graph has two closed classes, so it is not
        # solvable, and on x0 = 0, 1, -1 the same run exits 0
        cfg = presets_dir / "example1.cfg"
        if edges is not None:
            (tmp_path / "g.edges").write_text(edges)
            cfg = write_cfg(tmp_path, "graph = g.edges\ncase = 1\nh = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), *args, "--out", str(out)]) == 2
        err = "error: Out of range float values are not JSON compliant: inf\n"
        assert capsys.readouterr().err == err
        assert not (out / "trajectory.csv").exists() and not (out / "verdict.json").exists()

    def test_spread_gossip_trials_do_not_converge(self, tmp_path, presets_dir, capsys):
        # trials about 1e160 apart: np.std squared their deviations to inf, the
        # 4-standard-error band was infinite, and run wrote converged: true, exit 0
        out = tmp_path / "band"
        x0 = "--x0=1e160,-1e160,1e160,-1e160,1e160,-1e160"
        assert main(["run", str(presets_dir / "example3.cfg"), "--steps", "5", x0,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "converged = False does not match solvable = True\n"
        assert json.loads((out / "verdict.json").read_text())["converged"] is False

    def test_overflowing_gossip_mean_writes_no_file(self, tmp_path, presets_dir):
        # ROADMAP item 21: x0 starts at consensus, but the mean over 1,000 trials sums
        # 1,000 copies of 1e306 and overflows (with --trials 2 the run exits 0).  numpy
        # warns, and strict JSON refuses the NaN spread; its fix moves example3's pins
        out = tmp_path / "out"
        result = run_cli("run", str(presets_dir / "example3.cfg"),
                         "--x0=1e306,1e306,1e306,1e306,1e306,1e306", "--out", str(out))
        assert result.returncode == 2
        last = result.stderr.splitlines()[-1]
        assert last == "error: Out of range float values are not JSON compliant: nan"
        assert not (out / "trajectory.csv").exists() and not (out / "verdict.json").exists()


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

    def test_periodic_root_class_is_not_solvable(self, tmp_path, presets_dir, capsys):
        # Remark 1: every e^{-d_ii h} underflows to 0, so P is the 6-cycle permutation.
        # `check` called it solvable, and `run` exited 2 when the states never met
        args = [str(presets_dir / "example1.cfg"), "--case", "2", "--m", "6", "--h", "1e3"]
        assert main(["check", *args]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert not verdict["solvable"] and verdict["predicted_value"] is None
        assert verdict["condition"] == "the root class is periodic, with period 6; h = 1000.0 < bound = inf"
        assert main(["run", *args, "--out", str(tmp_path)]) == 0
        ran = json.loads((tmp_path / "verdict.json").read_text())
        assert ran["condition"] == verdict["condition"]
        assert not ran["solvable"] and not ran["converged"]

    @pytest.mark.parametrize("h, solvable", [(5, True), (20, True), (40, True), (744, True), (746, False)])
    def test_underflow_edge_verdicts(self, tmp_path, presets_dir, capsys, h, solvable):
        # today's behaviour just below the Remark-1 edge (ROADMAP item 15): `check`
        # calls the ring solvable until every e^{-h} underflows to 0 at h = 746, but
        # the float stepper cannot bear that out, so `run` exits 2.  A fix of item 15
        # changes these asserts knowingly.
        args = [str(presets_dir / "example1.cfg"), "--case", "2", "--m", "6", "--h", str(h)]
        assert main(["check", *args]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["solvable"] is solvable
        if not solvable:
            assert verdict["condition"].startswith("the root class is periodic, with period 6;")
        assert main(["run", *args, "--out", str(tmp_path)]) == (2 if solvable else 0)

    def test_weak_bridge_verdict(self, tmp_path, capsys):
        # today's behaviour on a nearly decomposable graph (ROADMAP item 21): two
        # triangles joined by a 1e-12 bridge each way.  `check` is right, with nu^T x0
        # exact to rounding, but 1 - |lambda_2| is about 1.2e-13, so 5,000 steps keep
        # nearly all of the disagreement and `run` exits 2 as if the theorem failed.
        # A fix of item 21 changes these asserts knowingly.
        triangles = "".join(f"{a} {b} 1\n{b} {a} 1\n" for a, b in [(1, 2), (2, 3), (1, 3),
                                                                  (4, 5), (5, 6), (4, 6)])
        (tmp_path / "g.edges").write_text(f"n 6\n{triangles}1 4 1e-12\n4 1 1e-12\n")
        x0 = ", ".join(map(repr, PAPER_X0))
        cfg = write_cfg(tmp_path, f"graph = g.edges\ncase = 2\nm = 3\nh = 0.2\nx0 = {x0}\n")
        assert main(["check", str(cfg)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        nu = exact_nu(case_matrix(load_config(cfg).system, 2))
        exact = float(sum(v * Fraction(x) for v, x in zip(nu, PAPER_X0)))
        assert verdict["solvable"] is True
        assert verdict["predicted_value"] == pytest.approx(exact, rel=1e-12, abs=0)
        assert main(["run", str(cfg), "--steps", "5000", "--out", str(tmp_path)]) == 2
        ran = json.loads((tmp_path / "verdict.json").read_text())
        assert ran["converged"] is False and ran["measured_final_disagreement"] > 3.3

    @pytest.mark.parametrize(
        "h, solvable, code", [(0.4, False, 0), (0.6, True, 2)], ids=["h0.4", "h0.6"]
    )
    def test_subnormal_link_verdicts(self, tmp_path, capsys, h, solvable, code):
        # today's behaviour on a link of the smallest subnormal weight (ROADMAP item
        # 22): agent 1 hears agent 2 over 5e-324, so the graph has a spanning tree.
        # At h = 0.4 its P entry rounds to 0 and the verdict says the graph has none;
        # at h = 0.6 it rounds up to 4.9e-324 and the verdict says solvable.  The
        # stepper cannot move agent 1 at either h.  A fix of item 22 changes these
        # asserts knowingly.
        (tmp_path / "g.edges").write_text("n 3\n1 2 5e-324\n2 3 1\n3 2 1\n")
        cfg = write_cfg(tmp_path, f"graph = g.edges\ncase = 1\nm = 0\nh = {h}\nx0 = 5, -1, 3\n")
        assert main(["check", str(cfg)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["solvable"] is solvable
        if solvable:
            assert verdict["predicted_value"] == 1.0
        else:
            assert verdict["condition"].startswith("graph has no directed spanning tree")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == code
        assert json.loads((tmp_path / "verdict.json").read_text())["measured_final_disagreement"] == 4.0

    @pytest.mark.parametrize(
        "case, spread, predicted", [(1, 26.9, -1 / 3), (3, 1.9, 0.0)], ids=["case1", "case3"]
    )
    def test_bound_edge_verdicts(self, tmp_path, presets_dir, capsys, case, spread, predicted):
        # today's behaviour at the last float below the h bound (ROADMAP item 15):
        # case 1's diagonal 1 - h and case 3's pair-matrix diagonal 1 - h*a are about
        # 1e-16, so each step permutes the states to rounding.  `check` calls each
        # solvable, yet 400 steps keep nearly all of the initial disagreement (27 and
        # 2) and `run` exits 2.  A fix of item 15 changes these asserts knowingly.
        if case == 1:
            args = [str(presets_dir / "example1.cfg"), "--h", "0.9999999999999999"]
        else:
            (tmp_path / "g.edges").write_text("n 2\n1 2 3\n2 1 3\n")
            text = "graph = g.edges\ncase = 3\nm = 0\nh = 0.33333333333333326\nx0 = 1, -1\n"
            args = [str(write_cfg(tmp_path, text))]
        assert main(["check", *args]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["solvable"] is True and verdict["predicted_value"] == predicted
        assert main(["run", *args, "--steps", "400", "--out", str(tmp_path)]) == 2
        assert json.loads((tmp_path / "verdict.json").read_text())["measured_final_disagreement"] > spread

    def test_swap_path_converges_in_the_mean_only(self, tmp_path, capsys):
        # today's behaviour (ROADMAP item 6): at h just below 1/3 every pair update on
        # this weight-3 path is a swap to within 2.2e-16, so no single run nears
        # consensus.  The mean over the default 1,000 trials still ends within the
        # 4-stderr band (about 0.31) of nu^T x0 = 5/3, so `run` says converged with
        # a disagreement over 0.1.  A fix of item 6 changes these asserts knowingly.
        (tmp_path / "g.edges").write_text("n 3\n1 2 3\n2 1 3\n2 3 3\n3 2 3\n")
        cfg = write_cfg(tmp_path, "graph = g.edges\ncase = 3\nm = 0\nh = 0.33333333333333326\n"
                                  "x0 = 1, -1, 5\nprobs = uniform\n")
        assert main(["run", str(cfg), "--steps", "4000", "--out", str(tmp_path)]) == 0
        ran = json.loads((tmp_path / "verdict.json").read_text())
        assert ran["converged"] is True
        assert ran["measured_final_disagreement"] > 0.1

    @pytest.mark.parametrize(
        "scale, flags, converged",
        [(1e7, [], False), (1e-10, ["--steps", "0"], True)],
        ids=["1e7-paper", "1e-10-paper-no-step"],
    )
    def test_verdict_depends_on_the_units_of_x0(self, tmp_path, presets_dir, capsys, scale, flags,
                                                converged):
        # today's behaviour (ROADMAP item 12): `verify_run` compares the final
        # disagreement and the gap to nu^T x0 with the absolute tol, so scaling the
        # paper state changes `converged`.  At 1e7 the gap fails on rounding in the
        # consensus component; at 1e-10 the run passes after no step at all.  A fix
        # of item 12 changes these asserts knowingly.
        x0 = ",".join(repr(scale * v) for v in PAPER_X0)
        args = [str(presets_dir / "example1.cfg"), f"--x0={x0}", "--h", "0.2", *flags]
        assert main(["run", *args, "--out", str(tmp_path)]) == (0 if converged else 2)
        assert json.loads((tmp_path / "verdict.json").read_text())["converged"] is converged
        mismatch = "converged = False does not match solvable = True\n"
        assert capsys.readouterr().err == ("" if converged else mismatch)

    def test_negative_list_as_its_own_token(self, presets_dir, capsys):
        # argparse's negative-number rule matches one number only, so it read
        # "-13,14,..." as an option and stopped: "--x0: expected one argument"
        config, x0 = str(presets_dir / "example1.cfg"), "-13,14,3,-9,-3,6"
        assert main(["check", config, "--h", "0.2", f"--x0={x0}"]) == 0
        joined = capsys.readouterr()
        for flag in ("--x0", "--x"):  # --x is a prefix that argparse expands to --x0
            assert main(["check", config, "--h", "0.2", flag, x0]) == 0
            assert capsys.readouterr() == joined
        with pytest.raises(SystemExit) as exc:  # a flag after --x0 is still no value
            main(["check", config, "--x0", "--h", "0.2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --x0: expected one argument\n")

    def test_matrix_dump_is_row_stochastic(self, presets_dir):
        result = run_cli("matrix", str(presets_dir / "example1.cfg"))
        rows = [list(map(float, line.split(","))) for line in result.stdout.strip().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("key", sorted(OVERRIDES))
    def test_flag_equals_file_entry(self, tmp_path, capsys, key):
        assert set(OVERRIDES) == set(KEYS) - {"graph"}  # every flag
        (tmp_path / "g.edges").write_text("n 3\n1 2 1.0\n2 1 1.0\n2 3 1.0\n3 2 1.0\n")

        def check(name, entries, *flags):
            text = "".join(f"{k} = {v}\n" for k, v in entries.items())
            assert main(["check", str(write_cfg(tmp_path, text, name)), *flags]) == 0
            return capsys.readouterr().out

        base = {**BASE, "case": "3"} if key == "probs" else BASE  # only case 3 reads probs
        by_file = check("file.cfg", {**base, key: OVERRIDES[key]})
        by_flag = check("flag.cfg", base, "--" + key.replace("_", "-"), OVERRIDES[key])
        assert by_file == by_flag
        assert json.loads(by_flag)["config"][key] != json.loads(check("base.cfg", base))["config"][key]
