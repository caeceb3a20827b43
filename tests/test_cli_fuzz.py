"""A derandomized fuzz of the size and number options of `reupsim
gen-dataset`, `train` and `verify`: whatever the values, a run exits 0, 1
or 2, and a usage error (2) prints one error line, with no traceback and no
warning."""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim.cli import main
from reupsim.states import MAX_SPLIT_SIZE
from reupsim.trainer import MAX_EPOCHS, MAX_LAYERS, MAX_SHOTS
from reupsim.verify import CHECKS, MAX_TRIALS

# Each command's base argv, small enough that a run with valid values takes
# milliseconds, and its numeric options with their caps (None: uncapped).
# DATA and OUT stand for the fixture's dataset and an output directory.
COMMANDS = {
    "gen-dataset": (["--task", "purity", "--train-size", "3", "--test-size", "2", "--out", "OUT"],
                    {"--train-size": MAX_SPLIT_SIZE, "--test-size": MAX_SPLIT_SIZE,
                     "--seed": None}),
    "train": (["--dataset", "DATA", "--layers", "1", "--epochs", "2", "--out", "OUT"],
              {"--layers": MAX_LAYERS, "--model-seed": None, "--epochs": MAX_EPOCHS,
               "--lr": None, "--batch-size": None, "--shots": MAX_SHOTS, "--seed": None}),
    "verify": (["--trials", "2"], {"--trials": MAX_TRIALS, "--seed": None}),
}
HOSTILE = ("0", "-1", str(2**63), "1e308", "nan", "inf", "twelve")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """DATA, a 20-state purity dataset (10 training and 10 test states), and OUT."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-dataset", "--task", "purity", "--train-size", "10",
                     "--test-size", "10", "--seed", "3", "--out", str(root / "data")]) == 0
    return {"DATA": str(root / "data"), "OUT": str(root / "out")}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, caps = COMMANDS[command]
    argv = [command, *base]
    for option in draw(st.lists(st.sampled_from(sorted(caps)), min_size=1, max_size=3,
                                unique=True)):
        cap = caps[option]
        argv += [option, draw(st.sampled_from(HOSTILE if cap is None else (*HOSTILE, str(cap + 1))))]
    if command == "train" and draw(st.booleans()):
        argv.append("--restricted")
    if command == "verify":
        argv += ["--check", draw(st.sampled_from(sorted(CHECKS)))]
    return argv


def run_captured(argv):
    """(exit code, stderr, warnings) of main(argv), argparse's exit included."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=argvs())
def test_numeric_options_exit_cleanly(paths, argv):
    code, err, caught = run_captured([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert caught == []
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        errors = [line for line in lines if "error:" in line]
        # one line of our own, or argparse's usage followed by its one error line
        assert len(errors) == 1
        assert lines == errors and lines[0].startswith("error: ") or \
            lines[0].startswith("usage: ") and lines[-1] == errors[0]
