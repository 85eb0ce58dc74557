"""Machine-readable outputs: long-form trajectory CSV and verdict JSON.

Floats are written with repr (the shortest string that round-trips), so
identical runs produce byte-identical files and values read back exactly.
Files are written as bytes with `\n` line ends on any platform, each to a
temporary file that replaces the target only once complete.  The CSV is
streamed in blocks of whole sampling steps: memory is set by the block.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .analysis import ConsensusVerdict
from .config import KEYS
from .engine import Trajectory, dense_tau_grid
from .protocols import PROTOCOLS, HybridSystem, bound
from .spectral import StochasticMatrix

CSV_HEADER = "t,agent,value,kind,record"
BLOCK_ROWS = 1 << 14  # CSV rows formatted and written at a time


def _reprs(x: np.ndarray) -> list[str]:
    """repr of every float in x, in x's flat order, computed once per distinct
    bit pattern.  Keyed on bits, not values: -0.0 == 0.0, but their reprs differ."""
    bits, inverse = np.unique(x.ravel().view(np.int64), return_inverse=True)
    strs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return strs[inverse].tolist()


def matrix_rows(P: StochasticMatrix) -> Iterator[str]:
    """Rows of the dense form of P as comma-separated reprs, each written
    from its entries into one n-long buffer: memory is O(n), not O(n^2)."""
    starts = np.searchsorted(P.rows, np.arange(P.n + 1)).tolist()
    for a, b in zip(starts, starts[1:]):
        row = np.zeros(P.n)
        row[P.cols[a:b]] = P.vals[a:b]
        yield ",".join(_reprs(row))


def trajectory_csv_blocks(sys: HybridSystem, traj: Trajectory) -> Iterator[str]:
    """The header line, then blocks of about BLOCK_ROWS rows `t,agent,value,kind,record`.
    A block holds whole steps: step k is the n sample rows at t_k, then the
    dense rows of interval k at t_k + tau, agent by agent; the last step has
    sample rows only.  One step's fields are laid out once; a block repeats them
    and fills in only its times and values, blending its own dense values from
    the samples at both ends of each interval.  Agent ids are 1-based; case 3
    gives mean states, no dense rows."""
    states, s = traj.sample_states, traj.blend
    (m, d), n, K = s.shape, sys.n, len(states) - 1
    taus = dense_tau_grid(sys.h, d)
    agents = [f",{i + 1}," for i in range(n)]
    # four fields per row: t, ",i,", value, ",kind,record\n"; agents < m are continuous
    layout: list = [None] * (4 * (n + m * d))
    layout[1::4] = agents + [a for a in agents[:m] for _ in range(d)]
    layout[3::4] = ([",continuous,sample\n"] * m + [",discrete,sample\n"] * (n - m)
                    + [",continuous,dense\n"] * (m * d))
    yield CSV_HEADER + "\n"
    per_block = max(1, BLOCK_ROWS // (n + m * d))
    for k0 in range(0, K, per_block):
        k = np.arange(k0, min(k0 + per_block, K))
        t, dense_t = [], _reprs(k[:, None] * sys.h + taus)  # step k's times: k*h, then k*h + tau
        for j, t_k in enumerate(_reprs(k * sys.h)):
            t += [t_k] * n + dense_t[j * d : (j + 1) * d] * m
        dense = (1 - s) * states[k, :m, None] + s * states[k + 1, :m, None]
        out = layout * len(k)
        out[0::4], out[2::4] = t, _reprs(np.hstack([states[k], dense.reshape(len(k), m * d)]))
        yield "".join(out)
    out = layout[: 4 * n]  # the last step: its sample rows only
    out[0::4], out[2::4] = [repr(float(K * sys.h))] * n, _reprs(states[K])
    yield "".join(out)


def write_replacing(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file beside `path`, renamed over it when
    complete: a failed or interrupted write leaves any old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _finite_or_none(value: float) -> float | None:
    return value if value == value and abs(value) != float("inf") else None


def verdict_json(cfg, verdict: ConsensusVerdict) -> str:
    """The verdict's fields under their own names, beside the three bounds
    (None for an infinite one) and the config's keys, as strict JSON with keys
    sorted: a NaN or infinity in the verdict raises ValueError."""
    return json.dumps({
        **verdict._asdict(),
        "bounds": {
            f"case{c}": _finite_or_none(bound(cfg.system, c)) for c in PROTOCOLS
        },
        "config": {name: getattr(cfg, name) for name in KEYS},
    }, indent=2, sort_keys=True, allow_nan=False)
