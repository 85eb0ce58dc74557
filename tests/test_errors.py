"""The error model: one exception type per CLI exit code.  Every check in
the package raises ConsensusError (exit 2) or ParseError (exit 1), so the
exit code follows from the type alone."""

import ast
from pathlib import Path

import hybridconsensus.errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridconsensus"
# besides the two, a file that cannot be read raises the OS's own error
ALLOWED = {"ConsensusError", "ParseError"}


def raised(path: Path):
    """(line, exception expression) of every raise in `path` but a bare re-raise."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


def test_every_raise_names_one_of_the_two_types():
    seen, other = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, name in raised(path):
            seen += 1
            if name not in ALLOWED:
                other.append(f"{path.name}:{lineno}: raise {name}")
    assert seen > 0
    assert other == []


def test_errors_defines_only_the_two_types():
    defined = {name for name, value in vars(hybridconsensus.errors).items() if isinstance(value, type)}
    assert defined == {"ConsensusError", "ParseError"}
