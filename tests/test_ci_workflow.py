"""The CI workflow parses as YAML and every step is well formed.

A workflow file that is not valid YAML runs no step at all, so each pin in it
would silently stop being checked.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_every_workflow_step_has_a_name_and_one_action():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str), step
        assert ("run" in step) != ("uses" in step), step["name"]
