"""Command-line front end.

Subcommands::

    hybridconsensus check  CONFIG   # solvability + predicted value, no simulation
    hybridconsensus run    CONFIG   # simulate, write trajectory.csv + verdict.json
    hybridconsensus bounds CONFIG   # print the three sampling-period bounds
    hybridconsensus matrix CONFIG   # dump the iteration / expected matrix

Exit codes: 0 success (for `run`: converged matches solvable), 1 I/O or
parse failure, a flag's value included, 2 condition violation (h over
bound, bad dimensions, a non-finite or out-of-range value, a count too
large to allocate, or a converged/solvable mismatch).
"""

from __future__ import annotations

import gc

# Collecting while the imports below run took 31 gen-0 and 2 gen-1 passes,
# about 6 ms, that freed 315 objects, so collection is off until they finish.
# The ~32,700 objects they leave (modules, classes, functions) live until exit
# and are then frozen: no later pass visits them, at exit included, where full
# passes took 31-39 ms of a `check` or `run` (7-11 ms frozen).  A caller that
# had turned collection off finds it off.  Only the CLI does this: `import
# hybridconsensus` leaves library callers' garbage collection alone.
_collecting = gc.isenabled()
gc.disable()

import argparse
import os
import re
import sys as _sys
from pathlib import Path

# OpenBLAS reads this once, when numpy loads it, so it must be set before the
# imports below.  After the library loads and after each threaded call, an idle
# OpenBLAS worker spins for 2**timeout cycles; the default 28 (about 0.1 s)
# makes a short CLI process burn about a third more CPU than its wall time.
# 2**20 cycles (about 0.4 ms) still hands back-to-back BLAS calls over without
# a wake-up; thread count and work split are unchanged, so outputs are too.
# A timeout the user set under either of OpenBLAS's names is kept.
if "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .analysis import decide, verify_run
from .config import KEYS, load_config
from .errors import ConsensusError, ParseError
from .protocols import PROTOCOLS, bound, case_matrix
from .reporting import matrix_rows, trajectory_csv_blocks, verdict_json, write_replacing

gc.freeze()
if _collecting:
    gc.enable()

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONDITION = 2
# every key but graph, which the config file names, is also a flag
FLAGS = {"--" + name.replace("_", "-"): name for name in KEYS if name != "graph"}


def _cmd_check(cfg, args) -> int:
    verdict = decide(cfg.system, cfg.case)
    print(verdict_json(cfg, verdict))
    return EXIT_OK


def _cmd_bounds(cfg, args) -> int:
    for case in PROTOCOLS:
        print(f"bound_case{case} = {bound(cfg.system, case)!r}")
    return EXIT_OK


def _cmd_matrix(cfg, args) -> int:
    for row in matrix_rows(case_matrix(cfg.system, cfg.case)):
        print(row)
    return EXIT_OK


def _cmd_run(cfg, args) -> int:
    verdict, traj = verify_run(cfg.system, cfg.case, cfg.run)
    text = verdict_json(cfg, verdict)  # strict JSON may refuse it: then no file
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_replacing(outdir / "trajectory.csv", trajectory_csv_blocks(cfg.system, traj))
    write_replacing(outdir / "verdict.json", [text, "\n"])
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'verdict.json'}")
    if verdict.converged != verdict.solvable:
        print(
            f"converged = {verdict.converged} does not match solvable = {verdict.solvable}",
            file=_sys.stderr,
        )
        return EXIT_CONDITION
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridconsensus",
        description="Simulate and verify consensus of hybrid multi-agent systems.",
    )
    # the config argument and its overrides, built once and shared by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="experiment config file (key = value)")
    for flag, name in FLAGS.items():
        common.add_argument(flag, dest=name, help=KEYS[name][2])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("check", _cmd_check),
        ("run", _cmd_run),
        ("bounds", _cmd_bounds),
        ("matrix", _cmd_matrix),
    ):
        p = sub.add_parser(name, parents=[common])
        if name == "run":
            p.add_argument("--out", default=".", help="output directory (default: .)")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads "-1e3" or "-13,14" as an option
        flag = argv[i - 1]  # a key's flag, or a prefix that argparse expands to one
        keyed = len(flag) > 2 and any(name.startswith(flag) for name in FLAGS)
        if keyed and re.match(r"-([\d.]|inf|nan)", argv[i], re.IGNORECASE):
            argv[i - 1 : i + 1] = [f"{flag}={argv[i]}"]
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {name: getattr(args, name, None) for name in KEYS})
        return args.handler(cfg, args)
    # numpy raises ValueError for an array too big to allocate, json for a NaN;
    # a ParseError, though a ConsensusError, is an input not read: exit 1
    except (OSError, ConsensusError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IO if isinstance(exc, (OSError, ParseError)) else EXIT_CONDITION
