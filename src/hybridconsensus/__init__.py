"""Consensus of hybrid multi-agent systems: simulation and spectral
verification of the zero-order-hold, self-observing and gossip protocols.

The package namespace is lazy (PEP 562): each exported name imports its
submodule on first access, so ``import hybridconsensus`` loads no numpy.
That lets ``hybridconsensus.cli`` set its BLAS environment before numpy
loads (see the comment there).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("ConsensusVerdict", "decide", "verify_run"),
    "engine": ("RunConfig", "Trajectory", "monte_carlo_mean", "simulate_deterministic"),
    "graphs": ("WeightedDigraph", "read_edge_list"),
    "protocols": ("GossipSchedule", "HybridSystem", "bound", "case_matrix", "gains"),
    "spectral": ("PerronVector", "StochasticMatrix", "left_eigenvector"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
