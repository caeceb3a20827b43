"""Run the benchmark over several seeds and collect one set of results.

    python3 bench/sweep.py --out bench/results/base.jsonl [--seeds 1-10] [--trace 0|1]

Runs every workload of BENCHMARK.json for each seed, at its run_seconds,
each run a fresh `bench/run.py` process, one after another.  Every result
line is appended to --out with its workload, seed and trace flag,
and the set's medians and spreads are printed at the end (the same table
as `bench/compare.py` with one set).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = compare.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                bad += 1
                continue
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace, **result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in compare.bounds(spec))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  file=sys.stderr)
    compare.report([compare.load(args.out)], spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
