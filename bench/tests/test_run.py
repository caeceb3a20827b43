"""Span bookkeeping, wrapper installation, and the benchmark's entry point."""

import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import pytest

import compare
import probe
import run
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _tracer_with(spans):
    t = Tracer()
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


def test_self_time_subtracts_the_children_only():
    s = 1_000_000_000
    t = _tracer_with([
        ("round", 0, 100 * s, -1),
        ("a", 10 * s, 60 * s, 0),
        ("b", 20 * s, 30 * s, 1),
        ("a", 70 * s, 80 * s, 0),
        ("round", 200 * s, 300 * s, -1),
        ("a", 210 * s, 260 * s, 4),
        ("b", 220 * s, 230 * s, 5),
        ("a", 270 * s, 280 * s, 4),
        ("setup", 400 * s, 401 * s, -1),
    ])
    phases = t.phases()
    rnd = phases["round"]
    assert rnd.repeats == 2
    assert rnd.calls("a") == 2 and rnd.calls("b") == 1
    assert rnd.seconds("a") == pytest.approx(60)
    assert rnd.self_seconds("a") == pytest.approx(50)
    assert rnd.self_seconds("round") == pytest.approx(40)
    assert rnd.calls_per_repeat()["a"] == [2, 2]
    assert phases["setup"].calls("b") == 0
    assert phases["setup"].seconds("setup") == pytest.approx(1)


def test_patched_records_nested_spans_and_restores_the_originals():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    inner, outer = mod.inner, mod.outer
    t = Tracer()
    with t.patched([(mod, "inner", "m.inner"), (mod, "outer", lambda x: f"m.outer{x}")]):
        with t.span("round"):
            assert mod.outer(3) == 8
    assert mod.inner is inner and mod.outer is outer
    assert t.names == ["round", "m.outer3", "m.inner"]
    assert t.parents == [-1, 0, 1]
    assert all(e >= s for s, e in zip(t.starts, t.ends))


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "quartic-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def _busy(seconds):
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        pass


def test_clock_takes_the_probe_out_and_scales_by_its_speed(monkeypatch):
    # a probe sample twice as slow as the reference: the machine runs at half
    # speed; and longer than the period, so samples would nest if they could
    monkeypatch.setattr(probe, "kernel", lambda: _busy(2 * probe.REFERENCE_S))
    monkeypatch.setattr(probe, "PERIOD_S", 1e-4)
    before = signal.getsignal(signal.SIGALRM)
    clock = probe.Clock(probe=True)
    with clock():
        _busy(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.samples >= 10
    assert clock.wall + clock.probe_s == pytest.approx(0.2, abs=0.02)
    assert clock.solve_s == pytest.approx(clock.wall / 2, rel=0.1)

    plain = probe.Clock(probe=False)
    with plain():
        _busy(0.05)
    assert plain.samples == 0
    assert plain.solve_s == plain.wall == pytest.approx(0.05, abs=0.01)


def _record(workload, solve_s, failed=0, correct=True):
    return {"workload": workload, "seed": 0, "trace": 0, "correct": correct,
            "attempted": 10, "failed": failed,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"}}}


def test_compare_gives_no_speed_verdict_when_more_operations_fail(capsys):
    spec = compare.load_spec()
    base = [_record("quartic-fit", 3.0 + 0.01 * k) for k in range(5)]
    faster = [_record("quartic-fit", 1.0 + 0.01 * k) for k in range(5)]
    assert compare.report([base, faster], spec) == 0
    assert "better beyond bound" in capsys.readouterr().out

    faster[2]["failed"] = 1
    assert compare.report([base, faster], spec) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "better beyond bound" not in out

    faster[2]["failed"] = 0
    faster[4]["correct"] = False
    assert compare.report([base, faster], spec) == 1
    assert "INVALID" in capsys.readouterr().out


class _Aborts:
    """A workload whose operation fails every round, leaving nothing to check."""

    ops_per_round = 1

    def __init__(self, work, seed):
        pass

    def setup(self, span):
        pass

    def run_round(self, span, clock):
        return workloads.Round(1, None, None)

    def check(self, output):
        raise AssertionError("a round without output must not be checked")


def test_a_round_without_output_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "quartic-fit", _Aborts)
    result = run.run(compare.load_spec(), "quartic-fit", 1, 0.01, False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
