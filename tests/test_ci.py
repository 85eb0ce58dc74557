"""The CI workflow's shape: one-line `run:` steps that call committed scripts.

Read as text, because PyYAML is not in the `test` extra.
"""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_no_run_step_spans_lines():
    blocks = [line for line in WORKFLOW.splitlines() if re.match(r"\s*(- )?run:\s*[|>]", line)]
    assert blocks == []


def test_the_named_scripts_are_the_ci_directory():
    # every ci/ path the workflow names exists, and no script there goes unused
    named = set(re.findall(r"\bci/[\w.]+", WORKFLOW))
    assert named == {f"ci/{p.name}" for p in (ROOT / "ci").iterdir() if p.is_file()}
