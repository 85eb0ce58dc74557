"""The CLI's output bytes, pinned by sha256.

`check`, `bounds` and `matrix` print; `run` writes trajectory.csv and
verdict.json.  Their bytes are digested for the three presets and for
`data/weighted.cfg`: case 2 on 40 agents with non-integer weights, a
zero-weight line and a -0.0 line.  So is each `-h` text.  A change to any
digest is a change to what the program prints, so it must be deliberate.
The graph's absolute path, which `check` and verdict.json report, is
replaced before hashing.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridconsensus.cli import main
from hybridconsensus.config import load_config
from oracles import dense

TESTS = Path(__file__).resolve().parent
CONFIGS = {
    "example1": TESTS.parent / "presets" / "example1.cfg",
    "example2": TESTS.parent / "presets" / "example2.cfg",
    "example3": TESTS.parent / "presets" / "example3.cfg",
    "weighted": TESTS / "data" / "weighted.cfg",
}
DIGESTS = {
    ("example1", "check"): "f2b30f7f8eb64204d838f9bef37886e2b45ef4d95097d3d5122c43b9ea84ddf4",
    ("example1", "bounds"): "db71ec3a531041684785f1240aa110b331dc739733cdc5872e460536694b5a22",
    ("example1", "matrix"): "80a4a830801f19ef15c030517bf42cdfee71ec8a50a7d52803ec71fd91dc2ef7",
    ("example1", "trajectory.csv"): "3dc6b4d27fa7b60e3a64cd734a9243be2d77772da714a0a36f29cb0784c12b1f",
    ("example1", "verdict.json"): "c4794bb472ddc4a23ef0be08dc812f0ddea2ee0510c380317d693b4778e77642",
    ("example2", "check"): "377a9533b6d56ba32ee1f33ba0cc343b4cc6242ad41531a1db6b94326a9f2d50",
    ("example2", "bounds"): "2b09c2b3e4be365b2e19cbb3d65b86f0b2981131b6538e3e16dd36de6a6d6e91",
    ("example2", "matrix"): "fbe05a9440d71be82912c13641dd7ea3f013d788336073d03a1a20fdc0c68b53",
    ("example2", "trajectory.csv"): "ff102cf0bb906603870364c14de8dca52bc146d1bfd3085c280e2114e895de5a",
    ("example2", "verdict.json"): "aeb73c99df88490566ca808449656e86055183459d7d339d815392b3cf408cad",
    ("example3", "check"): "7e669b5c8901d5121f3ac3a5bd1f0e727533fc5c6cdd169bd73a47cba35fbab2",
    ("example3", "bounds"): "1fed058824c22a4de67b49aafe7cb6e9627a01f58b33a8bb292368e9a177d350",
    ("example3", "matrix"): "b56c33476255bb50c5b1a9e72162c3047bc93f63e068bcfb7a837e6669ccacdf",
    ("example3", "trajectory.csv"): "4c0f9fb5e197e83be62b7731e98bfae7efb9d56c54e97c242ee145c7e90319e1",
    ("example3", "verdict.json"): "d20190e6e0d6bf2a507281ecbd4eba986f9c21fe91ae5b037cc3c1008806972e",
    ("weighted", "check"): "1d01517082e266d64915ab5a29907388549e07a718a3a8cb411257cd0e904807",
    ("weighted", "bounds"): "680e5772b69c2825b681b3d31e72990fbe043a7bd0db0f66a68e17e1689a2b32",
    ("weighted", "matrix"): "4419087ba47599bc29f0174e7068211ca7a4f2d817274dcd428a51853ebfa91a",
    ("weighted", "trajectory.csv"): "7231bea409ec69230c2bc9f196cd92b4e8e5a3dfa08e0e130b76b5c345aa8b5c",
    ("weighted", "verdict.json"): "aab149a1c1f4f039c67a66b03a2d32332bd525a3420b67f8bdf5890e3304d68a",
}

# `-h` of the program and of each subcommand, at COLUMNS=80
HELP_DIGESTS = {
    "": "f57bce8a69196b5a14b90dbc8fecfe4399c2c7a89257b2b64fbdab7aa6b5454f",
    "check": "0a04a8913cef0677c81c2f9dd588bce9541802677445e3f3e58862f7f80a7b4d",
    "run": "fb48790a8c7d72441a08de914aad00bf99eb0261517e37736e7d90f3cabfddac",
    "bounds": "f2780a18bea8a40e17ef1c8bdcf21a387c6fea4106c24db26370af9dc7046fb7",
    "matrix": "cd62a59a134462362267a4e70503821460b136dd0be24d95c0bb945dce4efba1",
}


def digest(data: bytes, cfg: Path) -> str:
    graph = load_config(cfg).graph.encode()
    return hashlib.sha256(data.replace(graph, b"GRAPH")).hexdigest()


def outputs(command: str, cfg: Path, out: Path, capsys) -> dict[str, str]:
    """Digests of one command's outputs, by output name."""
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 0
    if command != "run":
        return {command: digest(capsys.readouterr().out.encode(), cfg)}
    return {name: digest((out / name).read_bytes(), cfg)
            for name in ("trajectory.csv", "verdict.json")}


@pytest.mark.parametrize("command", ["check", "bounds", "matrix", "run"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_output_bytes_are_pinned(tmp_path, capsys, config, command):
    got = outputs(command, CONFIGS[config], tmp_path, capsys)
    assert got == {name: DIGESTS[config, name] for name in got}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"] if command else ["-h"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("config", ["example1", "example2", "weighted"])
def test_trajectory_does_not_depend_on_the_blas_kernel(tmp_path, config):
    """`run` steps cases 1-2 on the matrix's edges, without BLAS, so the
    trajectory's bytes are the same under another OpenBLAS kernel and thread
    count."""
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}

    def trajectory(name: str, env: dict) -> bytes:
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "hybridconsensus", "run", str(CONFIGS[config]),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        return (out / "trajectory.csv").read_bytes()

    nehalem = {**default, "OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "1"}
    assert trajectory("default", default) == trajectory("nehalem", nehalem)


def test_weighted_fixture_separates_the_row_sums():
    """Summed over its entries alone (np.bincount), the fixture's largest
    in-degree, and its largest discrete one, differ in the last bit from
    numpy's pairwise row sums.  `bounds` prints 1/max d_ii of both, so the
    digests above would see a switch of summation order."""
    w = dense(load_config(CONFIGS["weighted"]).system.graph)
    rows, cols = np.nonzero(w)
    by_entries = np.bincount(rows, weights=w[rows, cols], minlength=len(w))
    degrees, m = w.sum(axis=1), load_config(CONFIGS["weighted"]).m
    assert by_entries.max() != degrees.max() and by_entries[m:].max() != degrees[m:].max()
