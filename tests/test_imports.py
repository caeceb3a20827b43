import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reupsim

# Runs in a fresh interpreter, so modules this test session has loaded do
# not count.  Imports every module of the package, cli included, and prints
# their names and the top-level names of all modules that were added.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import reupsim
names = [info.name for info in pkgutil.iter_modules(reupsim.__path__)]
for name in names:
    importlib.import_module("reupsim." + name)
added = {m.partition(".")[0] for m in set(sys.modules) - before}
print(json.dumps({"modules": names, "added": sorted(added)}))
"""


def run_fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter that imports this
    reupsim."""
    src = str(Path(reupsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60).stdout


def test_numpy_is_the_only_third_party_import():
    probe = json.loads(run_fresh(PROBE))
    assert "cli" in probe["modules"]
    third_party = [m for m in probe["added"] if m not in sys.stdlib_module_names]
    assert third_party == ["numpy", "reupsim"]


def test_trainer_does_not_load_the_compiler():
    # the coefficient chain training uses lives in channel, next to affine_chain
    out = run_fresh("import sys, reupsim.trainer; print('reupsim.compiler' in sys.modules)")
    assert out.strip() == "False"


def test_distribution_is_named_reupsim():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "reupsim"
    assert project["scripts"] == {"reupsim": "reupsim.cli:main"}
