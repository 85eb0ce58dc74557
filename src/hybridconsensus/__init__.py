"""Consensus of hybrid multi-agent systems: simulation and spectral
verification of the zero-order-hold, self-observing and gossip protocols.

Each name is imported from the module that defines it, e.g.
``from hybridconsensus.analysis import decide``.  The package itself
imports nothing, so ``import hybridconsensus`` loads no numpy; that lets
``hybridconsensus.cli`` set its BLAS environment before numpy loads (see
the comment there).
"""

__version__ = "0.1.0"
