"""Experiment configuration: a plain `key = value` text format.

The keys are the fields of `ExperimentConfig`; those without a default are
required::

    graph = path/to/graph.edges   # edge-list file, resolved relative to the config
    case = 1                      # 1, 2 or 3
    m = 3                         # number of continuous-time agents (the first m)
    h = 0.2                       # sampling period; may be omitted with x0 = paper
    x0 = paper                    # initial state as a comma list, or the literal `paper`
    steps = 200                   # sampling steps to simulate
    dense_per_step = 10           # intra-sample points per interval
    seed = 0                      # gossip seed; trial r uses seed + r
    trials = 1000                 # Monte-Carlo trials, case 3 only
    probs = uniform               # or a comma list, one per edge i < j, by i, then j
    tol = 1e-8                    # convergence tolerance, positive and finite

`x0 = paper` expands to the benchmark initial state
[-13, 14, 3, -9, -3, 6], with h = 0.2 unless h is given, and requires a
6-vertex graph.  Every key but `graph` is also a command-line flag
(`--dense-per-step` for dense_per_step) that overrides the file.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .engine import RunConfig
from .errors import DimensionMismatch, ParseError
from .graphs import WeightedDigraph, content_lines, read_edge_list
from .protocols import GossipSchedule, HybridSystem, protocol

PAPER_X0 = (-13.0, 14.0, 3.0, -9.0, -3.0, 6.0)
PAPER_H = 0.2


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _x0(text: str) -> str | tuple[float, ...]:
    return "paper" if text.strip().lower() == "paper" else _floats(text)


def _probs(text: str) -> str | tuple[float, ...]:
    return "uniform" if text.strip().lower() == "uniform" else _floats(text)


def _key(parse, default=MISSING, *, help: str):
    """A config key: `parse` reads its text, from the file or from its flag."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass
class ExperimentConfig:
    """A loaded experiment.  Every field but `graph_path` is a config key,
    with the key's default (none: required), its parser and its help."""

    graph_path: Path  # the file the `graph` key names; `graph` holds the graph read from it
    graph: WeightedDigraph = _key(str, help="edge-list file, relative to the config")
    case: int = _key(int, help="1, 2 or 3")
    m: int = _key(int, help="number of continuous-time agents (the first m)")
    h: float = _key(float, None, help=f"sampling period ({PAPER_H} with x0 = paper)")
    x0: str | tuple[float, ...] = _key(_x0, "paper", help="comma-separated initial state or 'paper'")
    steps: int = _key(int, 200, help="sampling steps to simulate")
    dense_per_step: int = _key(int, RunConfig.dense_per_step, help="intra-sample points per interval")
    seed: int = _key(int, RunConfig.seed, help="gossip seed; trial r uses seed + r")
    trials: int = _key(int, RunConfig.trials, help="Monte-Carlo trials (case 3)")
    probs: str | tuple[float, ...] = _key(
        _probs, "uniform", help="'uniform' or comma-separated edge probabilities"
    )
    tol: float = _key(float, 1e-8, help="convergence tolerance")


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
    value = pairs[key.name]
    if not isinstance(value, str):  # an override its flag has parsed already
        return value
    try:
        return key.metadata["parse"](value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad value for {key.name!r}: {exc}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` (same keys, text or
    parsed values, None for none) take precedence over file entries."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(path)
    pairs: dict = _parse_pairs(path)
    pairs.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(set(pairs) - {key.name for key in KEYS})
    if unknown:
        raise ParseError(f"unknown config keys: {unknown}")
    values = {key.name: _value(key, pairs) for key in KEYS}

    graph_path = (path.parent / values["graph"]).resolve()
    if not graph_path.is_file():
        raise FileNotFoundError(graph_path)
    graph = values["graph"] = read_edge_list(graph_path)
    protocol(values["case"])  # rejects an unknown case
    if values["x0"] == "paper":
        if graph.n != len(PAPER_X0):
            raise DimensionMismatch(
                f"the paper preset needs a {len(PAPER_X0)}-vertex graph, got n = {graph.n}"
            )
        values["x0"] = PAPER_X0
        if values["h"] is None:
            values["h"] = PAPER_H
    if values["h"] is None:
        raise ParseError("missing required key 'h'")
    if not (values["tol"] > 0 and math.isfinite(values["tol"])):
        raise ValueError(f"tol must be positive and finite, got {values['tol']}")
    # run's counts, checked here so that `check` rejects the same configs as `run`
    RunConfig(**{f.name: values[f.name] for f in fields(RunConfig)},
              min_trials=2 if values["case"] == 3 else 1)
    if len(values["x0"]) != graph.n:
        raise DimensionMismatch(f"x0 has length {len(values['x0'])}, graph has n = {graph.n}")
    return ExperimentConfig(graph_path=graph_path, **values)


def build_system(cfg: ExperimentConfig) -> HybridSystem:
    return HybridSystem(graph=cfg.graph, m=cfg.m, h=cfg.h, x0=cfg.x0)


def build_schedule(cfg: ExperimentConfig) -> GossipSchedule:
    if cfg.probs == "uniform":
        return GossipSchedule.uniform(cfg.graph)
    return GossipSchedule(cfg.graph, cfg.probs)
