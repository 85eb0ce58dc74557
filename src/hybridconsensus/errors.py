"""Exception hierarchy for the hybridconsensus package."""


class ConsensusError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraph(ConsensusError):
    """Adjacency weights violate the graph invariants (negative, non-finite,
    nonzero diagonal, or no edge at all)."""


class AsymmetricGraph(ConsensusError):
    """An operation requiring an undirected graph received a_ij != a_ji."""


class NotStochastic(ConsensusError):
    """A matrix failed the row-stochasticity check."""

    def __init__(self, row: int, residual: float):
        self.row = row
        self.residual = residual
        super().__init__(f"row {row} violates stochasticity (residual {residual:.3e})")


class DegenerateEigenspace(ConsensusError):
    """The eigenvalue 1 is not simple: P has no single closed class."""


class SamplingPeriodTooLarge(ConsensusError):
    """The sampling period h violates the strict bound for the chosen case."""

    def __init__(self, h: float, bound: float, bound_name: str):
        self.h = h
        self.bound = bound
        self.bound_name = bound_name
        super().__init__(f"h = {h} must be strictly below {bound_name} = {bound}")


class InvalidSchedule(ConsensusError):
    """Gossip probabilities that do not fit the graph, or a schedule on another graph."""


class ParseError(ConsensusError):
    """A graph or config file could not be parsed."""


class DimensionMismatch(ConsensusError):
    """Initial state length disagrees with the graph's vertex count."""


class UnknownCase(ConsensusError):
    """Case identifier outside {1, 2, 3}."""
