"""Command-line front end.

Subcommands::

    hybridconsensus check  CONFIG   # solvability + predicted value, no simulation
    hybridconsensus run    CONFIG   # simulate, write trajectory.csv + verdict.json
    hybridconsensus bounds CONFIG   # print the three sampling-period bounds
    hybridconsensus matrix CONFIG   # dump the iteration / expected matrix

Exit codes: 0 success (for `run`: converged matches solvable), 1 I/O or
parse failure, 2 condition violation (h over bound, bad dimensions, a
non-finite or out-of-range value, a count too large to allocate, or a
converged/solvable mismatch).
HYBRIDCONSENSUS_OUTDIR sets the default output directory for `run`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys as _sys
from dataclasses import fields
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
from .config import KEYS, ExperimentConfig, build_schedule, build_system, load_config
from .engine import RunConfig
from .errors import ConsensusError, ParseError, SamplingPeriodTooLarge
from .protocols import PROTOCOLS, GossipSchedule, HybridSystem, protocol
from .reporting import matrix_rows, verdict_report, write_trajectory_csv, write_verdict_json
from .spectral import StochasticMatrix

# The ~21,700 objects numpy and this package built at import (modules, classes,
# functions) live until exit.  Interpreter finalization walks them with full
# garbage-collector passes, 8-10 ms each: 31-39 ms of a `check` or `run`
# process came after `main` returned, against 7-11 ms with the heap frozen.
# Frozen, no later collection visits them, at exit included; objects `main`
# creates are still collected as usual.  Only the CLI freezes: `import
# hybridconsensus` leaves library callers' garbage collection alone.
gc.freeze()

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONDITION = 2


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="experiment config file (key = value)")
    for key in KEYS:
        if key.name != "graph":  # the config file names its graph
            parser.add_argument(
                "--" + key.name.replace("_", "-"),
                dest=key.name,
                type=key.metadata["parse"],
                help=key.metadata["help"],
            )


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, {key.name: getattr(args, key.name, None) for key in KEYS})


def _setup(cfg: ExperimentConfig) -> tuple[HybridSystem, GossipSchedule | None]:
    system = build_system(cfg)
    sched = build_schedule(cfg) if cfg.case == 3 else None
    return system, sched


def _cmd_check(args) -> int:
    cfg = _load(args)
    system, sched = _setup(cfg)
    verdict = decide(system, cfg.case, sched)
    report = verdict_report(cfg, system, verdict)
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load(args)
    system, _ = _setup(cfg)
    for case, spec in PROTOCOLS.items():
        print(f"bound_case{case} = {spec.bound(system)!r}")
    return EXIT_OK


def _cmd_matrix(args) -> int:
    cfg = _load(args)
    system, sched = _setup(cfg)
    matrix: StochasticMatrix = protocol(cfg.case).matrix(system, sched)
    for row in matrix_rows(matrix.entries):
        print(row)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load(args)
    system, sched = _setup(cfg)
    run_cfg = RunConfig(**{f.name: getattr(cfg, f.name) for f in fields(RunConfig)})
    verdict, traj = verify_run(system, cfg.case, run_cfg, tol=cfg.tol, sched=sched)
    outdir = Path(args.out or os.environ.get("HYBRIDCONSENSUS_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(system, traj, outdir / "trajectory.csv")
    write_verdict_json(verdict_report(cfg, system, verdict), outdir / "verdict.json")
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("check", _cmd_check),
        ("run", _cmd_run),
        ("bounds", _cmd_bounds),
        ("matrix", _cmd_matrix),
    ):
        p = sub.add_parser(name)
        _add_overrides(p)
        if name == "run":
            p.add_argument("--out", help="output directory (default: $HYBRIDCONSENSUS_OUTDIR or .)")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, OSError, ParseError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except (SamplingPeriodTooLarge, ConsensusError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONDITION


if __name__ == "__main__":
    _sys.exit(main())
