"""The CI workflow parses as YAML and checks what pyproject.toml declares:
every supported Python version, numpy at its floor, and the tier-1 command."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_tier1_at_the_declared_floors():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    pyproject = (ROOT / "pyproject.toml").read_text()
    job = workflow["jobs"]["tier1"]
    matrix = job["strategy"]["matrix"]
    python_floor = re.search(r'requires-python = ">=(\d+\.\d+)"', pyproject).group(1)
    numpy_floor = re.search(r'"numpy>=(\d+\.\d+)"', pyproject).group(1)
    assert python_floor in matrix["python"] and set(matrix["numpy"]) == {"floor", "newest"}
    steps = "\n".join(step.get("run", "") for step in job["steps"])
    assert f'"numpy=={numpy_floor}.*"' in steps
    assert "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors" in steps
