"""Experiment configuration: a plain `key = value` text format.

The keys are those of `KEYS`; those without a default are required::

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

`load_config` returns the checked experiment as a namespace: the keys' values,
and the objects every subcommand runs on, built once from them: the hybrid
system (`system`), whose `graph` is the graph read and which in case 3 holds
its gossip schedule, and the run's counts and tolerance (`run`).
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

from .engine import RunConfig
from .errors import ConsensusError, ParseError
from .graphs import content_lines, read_edge_list
from .protocols import HybridSystem, protocol


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def _probs(text: str) -> str | tuple[float, ...]:
    return "uniform" if text.strip().lower() == "uniform" else _floats(text)


# every key: its parser, which reads its text from the file or from its flag,
# its default (None: the key is required) and its flag's help
KEYS = {
    "graph": (str, None, "edge-list file, relative to the config"),  # then resolved
    "case": (int, None, "1, 2 or 3"),
    "m": (int, None, "number of continuous-time agents (the first m)"),
    "h": (float, None, "sampling period"),
    "x0": (_floats, None, "comma-separated initial state"),
    "steps": (int, RunConfig.steps, "sampling steps to simulate"),
    "dense_per_step": (int, RunConfig.dense_per_step, "intra-sample points per interval"),
    "seed": (int, RunConfig.seed, "gossip seed; trial r uses seed + r"),
    "trials": (int, RunConfig.trials, "Monte-Carlo trials (case 3)"),
    "probs": (_probs, "uniform", "'uniform' or comma-separated edge probabilities"),
    "tol": (float, RunConfig.tol, "convergence tolerance"),
}


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


def _value(name: str, pairs: dict):
    parse, default, _ = KEYS[name]
    if name not in pairs:
        if default is None:
            raise ParseError(f"missing required key {name!r}")
        return default
    try:
        return parse(pairs[name])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad value for {name!r}: {exc}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> SimpleNamespace:
    """Parse and validate a config file; `overrides` (same keys, as text, None
    for none) replace file entries.  An unreadable file raises the OS error."""
    path = Path(path)
    pairs = _parse_pairs(path)
    pairs.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(pairs.keys() - KEYS)
    if unknown:
        raise ParseError(f"unknown config keys: {unknown}")
    values = {name: _value(name, pairs) for name in KEYS}

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
    return SimpleNamespace(system=system, run=run, **values)
