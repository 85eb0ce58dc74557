"""Exception types of the hybridconsensus package, one per CLI exit code.

A checked condition of the paper or of the input that fails raises
`ConsensusError` with a message that names it; the CLI prints the message
and exits 2.  `ParseError` marks an input it could not read, and exits 1.
"""


class ConsensusError(Exception):
    """A condition of the paper or of the input does not hold."""


class ParseError(ConsensusError):
    """A graph or config file could not be parsed."""
