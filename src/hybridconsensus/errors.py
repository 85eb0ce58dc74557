"""Exception types of the hybridconsensus package.

A checked condition that fails raises `ConsensusError` with a message that
names it; the CLI prints the message and exits 2.  `ParseError` marks an
input it could not read, and exits 1.  The other two are the ones the
package catches itself.
"""


class ConsensusError(Exception):
    """A condition of the paper or of the input does not hold."""


class ParseError(ConsensusError):
    """A graph or config file could not be parsed."""


class InvalidGraph(ConsensusError):
    """Bad weights (negative, non-finite, on the diagonal, all zero) or indices
    (not integers in 0..n-1, a pair twice); the edge-list reader makes it a ParseError."""


class DegenerateEigenspace(ConsensusError):
    """The eigenvalue 1 is not simple: P has no single closed class, and the
    verdict says consensus is not solvable."""
