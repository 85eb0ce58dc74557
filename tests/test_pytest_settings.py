"""The suite's own pytest settings (`[tool.pytest.ini_options]` in
pyproject.toml), run on a probe file in a fresh pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    # warnings are errors, and hypothesis reports a falsifying example through
    # libcst, whose import warns that mypy_extensions.TypedDict is deprecated:
    # pytest stopped with INTERNALERROR and ran no test after the failing one
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_probe.py"],
        cwd=tmp_path,  # hypothesis keeps its example database in .hypothesis/ here
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
