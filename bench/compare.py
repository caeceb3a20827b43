"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A set is a JSONL file written by `bench/sweep.py`.  For every workload and
metric the table gives each set's run count, median and quartiles.  For
end-to-end metrics it adds the spread, (q3 - q1) / median, and a verdict
against the bound in BENCHMARK.json:

- one set: whether the spread stays within the bound;
- two sets: the median change, and "worse beyond bound", "better beyond
  bound", "within bound", or "unresolved" when either spread is wider than
  the bound and the runs of the two sets overlap.

A workload whose second set has a larger share of failed operations or of
incorrect runs than the first is "INVALID", and gets no speed verdict: a
gain does not count when more operations fail.  Per-layer metrics (from
traced runs) are listed without a verdict.  Exits 1 when some workload is
invalid or some end-to-end metric is worse beyond its bound, else 0.

The machine's speed can drift by more than a bound within an hour, so the
runs of two sets to compare should be interleaved (see README.md).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds(spec: dict) -> dict:
    """{metric: (bound, better)} of the end-to-end metrics."""
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(records, workload: str, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["metrics"]]


def _verdict(a: list, b: list, bound: float, better: str) -> str:
    (qa1, ma, qa3), (qb1, mb, qb3) = _quartiles(a), _quartiles(b)
    change = (mb - ma) / ma
    worse = change > bound if better == "lower" else change < -bound
    gain = change < -bound if better == "lower" else change > bound
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    b_loses = min(b) > max(a) if better == "lower" else max(b) < min(a)
    wide = max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound
    if worse and (b_loses or not wide):
        return "WORSE beyond bound"
    if gain and (b_wins or not wide):
        return "better beyond bound"
    if wide and not (b_wins or b_loses):
        return "unresolved: spread wider than bound"
    return "within bound"


def report(sets: list, spec: dict) -> int:
    bnd = bounds(spec)
    bad = 0
    workloads = sorted({r["workload"] for s in sets for r in s})
    for workload in workloads:
        print(f"== {workload}")
        shares = []
        for k, s in enumerate(sets):
            mine = [r for r in s if r["workload"] == workload]
            att = sum(r["attempted"] for r in mine)
            fail = sum(r["failed"] for r in mine)
            wrong = sum(not r["correct"] for r in mine)
            shares.append((fail / att if att else 1.0, wrong / len(mine) if mine else 1.0))
            print(f"   set {k}: {len(mine)} runs, failed {fail}/{att}, incorrect runs {wrong}")
        invalid = len(sets) == 2 and (shares[1][0] > shares[0][0] or shares[1][1] > shares[0][1])
        if invalid:
            bad += 1
            print("   INVALID: set 1 has more failed operations or incorrect runs than set 0")
        metrics = sorted({m for s in sets for r in s if r["workload"] == workload
                          for m in r["metrics"]}, key=lambda m: (m not in bnd, m))
        for metric in metrics:
            vals = [_values(s, workload, metric) for s in sets]
            if not all(vals):
                continue
            cols = []
            for v in vals:
                q1, med, q3 = _quartiles(v)
                spread = (q3 - q1) / med if med else float("nan")
                cols.append(f"n={len(v)} med {med:.5g} [{q1:.5g}, {q3:.5g}]"
                            + (f" spread {spread:.3f}" if metric in bnd else ""))
            line = f"   {metric:<40} " + " | ".join(cols)
            if metric in bnd:
                bound, better = bnd[metric]
                if len(vals) == 1:
                    q1, med, q3 = _quartiles(vals[0])
                    ok = (q3 - q1) / med <= bound
                    line += f"  bound {bound}: {'spread within' if ok else 'SPREAD EXCEEDS'}"
                else:
                    ma, mb = _quartiles(vals[0])[1], _quartiles(vals[1])[1]
                    line += f"  change {100 * (mb - ma) / ma:+.2f}%"
                    if not invalid:
                        verdict = _verdict(vals[0], vals[1], bound, better)
                        bad += verdict.startswith("WORSE")
                        line += f"  {verdict}"
            elif len(vals) == 2:
                ma, mb = _quartiles(vals[0])[1], _quartiles(vals[1])[1]
                if ma:
                    line += f"  change {100 * (mb - ma) / ma:+.2f}%"
            print(line)
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    return report([load(p) for p in argv], load_spec())


if __name__ == "__main__":
    sys.exit(main())
