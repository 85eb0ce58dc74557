"""Experiment configuration: a plain `key = value` text format.

The keys are the fields of `ExperimentConfig`; those without a default are
required::

    graph = path/to/graph.edges   # edge-list file, resolved relative to the config
    case = 1                      # 1, 2 or 3
    m = 3                         # number of continuous-time agents (the first m)
    h = 0.2                       # sampling period
    x0 = -13, 14, 3, -9, -3, 6    # initial state, one value per vertex
    steps = 200                   # sampling steps to simulate
    dense_per_step = 10           # intra-sample points per interval
    seed = 0                      # gossip seed; trial r uses seed + r
    trials = 1000                 # Monte-Carlo trials, read in case 3 only; at least 2
    probs = uniform               # or a comma list, one per edge i < j, by i, then j (case 3)
    tol = 1e-8                    # convergence tolerance, positive and finite

Every key but `graph` is also a command-line flag (`--dense-per-step` for
dense_per_step) whose text overrides the file's line.

`load_config` returns the checked experiment: the keys' values, and the
objects every subcommand runs on, built once from them: the hybrid system,
which in case 3 holds its gossip schedule, and the run's counts and tolerance.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .engine import RunConfig
from .errors import ConsensusError, ParseError
from .graphs import content_lines, read_edge_list
from .protocols import HybridSystem, protocol


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def _probs(text: str) -> str | tuple[float, ...]:
    return "uniform" if text.strip().lower() == "uniform" else _floats(text)


def _key(parse, default=MISSING, *, help: str):
    """A config key: `parse` reads its text, from the file or from its flag."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass
class ExperimentConfig:
    """A loaded experiment.  Every field from `graph` on is a config key,
    with its parser, its help and its default; `graph` to `x0` have none and
    are required.  The graph read from the file `graph` names is `system.graph`."""

    system: HybridSystem
    run: RunConfig
    graph: str = _key(str, help="edge-list file, relative to the config")  # then resolved
    case: int = _key(int, help="1, 2 or 3")
    m: int = _key(int, help="number of continuous-time agents (the first m)")
    h: float = _key(float, help="sampling period")
    x0: tuple[float, ...] = _key(_floats, help="comma-separated initial state")
    steps: int = _key(int, RunConfig.steps, help="sampling steps to simulate")
    dense_per_step: int = _key(int, RunConfig.dense_per_step, help="intra-sample points per interval")
    seed: int = _key(int, RunConfig.seed, help="gossip seed; trial r uses seed + r")
    trials: int = _key(int, RunConfig.trials, help="Monte-Carlo trials (case 3)")
    probs: str | tuple[float, ...] = _key(
        _probs, "uniform", help="'uniform' or comma-separated edge probabilities"
    )
    tol: float = _key(float, RunConfig.tol, help="convergence tolerance")


KEYS = tuple(f for f in fields(ExperimentConfig) if f.metadata)


def _parse_pairs(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in content_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in pairs:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _value(key, pairs: dict):
    if key.name not in pairs:
        if key.default is MISSING:
            raise ParseError(f"missing required key {key.name!r}")
        return key.default
    try:
        return key.metadata["parse"](pairs[key.name])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad value for {key.name!r}: {exc}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` (same keys, as text, None
    for none) replace file entries.  An unreadable file raises the OS error."""
    path = Path(path)
    pairs = _parse_pairs(path)
    pairs.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(set(pairs) - {key.name for key in KEYS})
    if unknown:
        raise ParseError(f"unknown config keys: {unknown}")
    values = {key.name: _value(key, pairs) for key in KEYS}

    edges = (path.parent / values["graph"]).resolve()
    values["graph"], graph = str(edges), read_edge_list(edges)
    protocol(values["case"])  # rejects an unknown case
    if values["probs"] != "uniform" and values["case"] != 3:  # no schedule would check it
        raise ConsensusError(f"probs is read only in case 3, got case {values['case']}")
    # run's tolerance and counts, checked here so that every subcommand rejects the same configs
    run = RunConfig(steps=values["steps"], dense_per_step=values["dense_per_step"],
                    seed=values["seed"], trials=values["trials"], tol=values["tol"])
    probs = values["probs"] if values["case"] == 3 else None  # the schedule is case 3's
    system = HybridSystem(graph=graph, m=values["m"], h=values["h"], x0=values["x0"], probs=probs)
    return ExperimentConfig(system=system, run=run, **values)
