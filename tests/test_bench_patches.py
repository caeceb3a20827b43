"""The traced benchmark run wraps reupsim functions by name (`PATCHES` in
bench/workloads.py); a name that no longer exists there would only show up
as an AttributeError in a `--trace 1` run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for module, attr, _ in workloads.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
