import ast
import dataclasses
import importlib
import json
import os
import pkgutil
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


def test_package_takes_kronecker_products_from_linalg():
    # linalg.kron is the one Kronecker kernel; tests keep np.kron as its oracle
    package = Path(reupsim.__file__).resolve().parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "kron"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                calls += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "kron"]
    assert calls == []


def test_package_dataclasses_keep_no_instance_dict():
    # compiled circuits, models and dataset items are held by the thousand,
    # so their records are slotted
    dicts = []
    for info in pkgutil.iter_modules(reupsim.__path__):
        module = importlib.import_module("reupsim." + info.name)
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__ and "__slots__" not in vars(obj)):
                dicts.append(f"{info.name}.{name}")
    assert dicts == []
