"""Consensus of hybrid multi-agent systems: simulation and spectral
verification of the zero-order-hold, self-observing and gossip protocols."""

from .analysis import (
    ConsensusVerdict,
    decide,
    disagreement,
    nonconsensus_witness,
    verify_run,
)
from .engine import (
    MonteCarloSummary,
    RunConfig,
    Trajectory,
    monte_carlo_mean,
    simulate_deterministic,
    simulate_gossip,
)
from .graphs import (
    WeightedDigraph,
    has_spanning_tree,
    read_edge_list,
    write_edge_list,
)
from .protocols import (
    GossipSchedule,
    HybridSystem,
    bound_case1,
    bound_case2,
    bound_case3,
    case1_matrix,
    case2_gain,
    case2_matrix,
    continuous_interpolant,
    gossip_expected_matrix,
    gossip_interpolant,
    gossip_pair_matrix,
    iteration_matrix,
)
from .spectral import (
    PerronVector,
    StochasticMatrix,
    check_stochastic,
    left_eigenvector,
    sia_limit,
)

__version__ = "0.1.0"

__all__ = [
    "ConsensusVerdict",
    "GossipSchedule",
    "HybridSystem",
    "MonteCarloSummary",
    "PerronVector",
    "RunConfig",
    "StochasticMatrix",
    "Trajectory",
    "WeightedDigraph",
    "bound_case1",
    "bound_case2",
    "bound_case3",
    "case1_matrix",
    "case2_gain",
    "case2_matrix",
    "check_stochastic",
    "continuous_interpolant",
    "decide",
    "disagreement",
    "gossip_expected_matrix",
    "gossip_interpolant",
    "gossip_pair_matrix",
    "has_spanning_tree",
    "iteration_matrix",
    "left_eigenvector",
    "monte_carlo_mean",
    "nonconsensus_witness",
    "read_edge_list",
    "sia_limit",
    "simulate_deterministic",
    "simulate_gossip",
    "verify_run",
    "write_edge_list",
]
