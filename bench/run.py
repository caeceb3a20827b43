"""Benchmark of reupsim: entropy training, quartic fit, compile-and-certify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports reupsim from the `src/` directory next to this one, produces the
workload's inputs from --seed, then repeats whole rounds of the workload's
operations for about --seconds, checks the outputs, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (setup_s, solve_s, peak_rss_mb), and
solve_s is scaled to a fixed machine speed by the speed probe (probe.py);
with --trace 1 rounds alternate untraced and traced, the probe is off, and
the metrics are the per-layer ones from the traced rounds plus the plain
wall time of the untraced rounds and the tracing overhead.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the matrices are at most 16x16, and one thread keeps the
# figures steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer_metrics(setup, rnd, wl, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics: setup-time spans once per run, the rest per
    traced round.  Metrics of layers a workload never calls read 0."""
    from checks import CERTIFICATES
    from workloads import COMPILE_TARGETS

    m = {
        "trainer.train.self_s": rnd.self_seconds("trainer.train"),
        "trainer.sample_updates_per_s": _rate(wl.sample_updates, rnd.seconds("trainer.train")),
        "trainer.evaluate.s": rnd.seconds("trainer.evaluate"),
        "channel.layer_transfer_tensor.calls": rnd.calls("channel.layer_transfer_tensor"),
        "channel.layer_transfer_tensor.self_s": rnd.self_seconds("channel.layer_transfer_tensor"),
        "channel.layer_transfer_tensor.p50_us": rnd.percentile_us("channel.layer_transfer_tensor", 50),
        "channel.layer_transfer_tensor.p99_us": rnd.percentile_us("channel.layer_transfer_tensor", 99),
        "channel.layer_affine_map.calls": rnd.calls("channel.layer_affine_map"),
        "channel.layer_affine_map.self_s": rnd.self_seconds("channel.layer_affine_map"),
        "channel.apply_layer.calls": rnd.calls("channel.apply_layer"),
        "channel.apply_layer.s": rnd.seconds("channel.apply_layer"),
        "linalg.exp_i_hermitian.calls": rnd.calls("linalg.exp_i_hermitian"),
        "linalg.exp_i_hermitian.s": rnd.seconds("linalg.exp_i_hermitian"),
        "linalg.unitary_to_generator.calls": rnd.calls("linalg.unitary_to_generator"),
        "states.generate_dataset.s": setup.seconds("states.generate_dataset"),
        "states.write_dataset.s": setup.seconds("states.write_dataset"),
        "states.read_dataset.s": rnd.seconds("states.read_dataset"),
        "states.read_dataset.records_per_s": _rate(wl.records_read, rnd.seconds("states.read_dataset")),
        "states.pauli_coeffs.calls": rnd.calls("states.pauli_coeffs"),
        "states.pauli_coeffs.s": rnd.seconds("states.pauli_coeffs"),
        "cli.main.self_s": rnd.self_seconds("cli.main"),
        "compiler.extract_coefficients.s": rnd.seconds("compiler.extract_coefficients"),
        "verify.trials_per_s": _rate(
            wl.trials, sum(rnd.seconds(f"verify.{c}") for c in CERTIFICATES)),
        "solve.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
    }
    for target in COMPILE_TARGETS:
        m[f"compiler.fit.{target.route}.s"] = rnd.seconds(f"compiler.fit.{target.route}")
    for c in CERTIFICATES:
        m[f"verify.{c}.s"] = rnd.seconds(f"verify.{c}")
    return m


def _no_span(name):
    return contextlib.nullcontext()


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from probe import Clock
    from tracing import Tracer
    from workloads import PATCHES, WORKLOADS

    work = OUT / f"{workload}-s{seed}-p{os.getpid()}"
    wl = WORKLOADS[workload](work, seed)
    tracer = Tracer() if trace else None
    try:
        if trace:
            with tracer.patched(PATCHES), tracer.span("setup"):
                wl.setup(tracer.span)
        else:
            wl.setup(_no_span)
        setup_s = perf_counter() - T_START

        # A step is one round, or an untraced and a traced round when tracing.
        # Steps repeat while the next one, as long as the last, still ends
        # within --seconds, so a run measures about that long however fast
        # the machine is at the time.  One clock times all untraced rounds,
        # so solve_s is the mean round scaled by the probe over the whole run.
        rounds, traced = [], []
        clock, traced_clock = Clock(probe=not trace), Clock(probe=False)
        t_loop = perf_counter()
        while True:
            t_step = perf_counter()
            rounds.append(wl.run_round(_no_span, clock))
            if trace:
                with tracer.patched(PATCHES), tracer.span("round"):
                    traced.append(wl.run_round(tracer.span, traced_clock))
            now = perf_counter()
            if now - t_loop + (now - t_step) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        every = rounds + traced
        if any(r.output is None for r in every):
            failures = ["a round produced no output to check"]
        else:
            failures = wl.check(rounds[0].output)
        if any(r.fingerprint != rounds[0].fingerprint for r in every):
            failures.append("rounds on the same inputs gave different outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        phases = tracer.phases()
        uneven = {n: c for n, c in phases["round"].calls_per_repeat().items() if len(set(c)) > 1}
        if uneven:
            failures.append(f"traced rounds made different call counts: {uneven}")
        wall_s = clock.solve_s / len(rounds)
        overhead = traced_clock.solve_s / len(traced) - wall_s
        metrics = per_layer_metrics(phases["setup"], phases["round"], wl, wall_s, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload}-s{seed}.json")
        kind = "per_layer"
    else:
        metrics = {
            "setup_s": setup_s,
            "solve_s": clock.solve_s / len(rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": wl.ops_per_round * len(every),
        "failed": sum(r.failed for r in every),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec[kind]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("entropy-train", "quartic-fit", "compile-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "reupsim" / "__init__.py").is_file():
        print(f"error: no reupsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
