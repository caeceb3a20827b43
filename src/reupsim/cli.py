"""Command line front end: dataset generation, training, preset
reproduction, and the numerical certificate suite.

Exit codes: 0 all good, 1 a tolerance row failed, 2 usage or IO error.
Numbers are printed with 4 significant digits; JSON files keep full
precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .channel import hadamard_test, run_model
from .linalg import haar_unitary
from .states import (
    DATASET_TASKS,
    MAX_SPLIT_SIZE,
    LabeledState,
    generate_dataset,
    read_dataset,
    sample_bloch_ball,
    write_dataset,
)
from .trainer import (
    MAX_EPOCHS,
    MAX_LAYERS,
    TrainConfig,
    histogram_to_csv,
    random_model,
    report_to_json,
    train,
)
from .verify import CHECK_TOLERANCES, CHECKS, MAX_TRIALS, run_check

PRESETS = (
    "poly-linear",
    "poly-quartic",
    "purity",
    "entropy",
    "band",
    "double-band",
    "hadamard-demo",
    "verify-all",
)

# reference accuracies and acceptance bands per classification preset:
# (layers, reference, comparator, bound).  Training runs are stochastic,
# so the bands sit around the reference values instead of on them.
CLASSIFICATION_LADDERS = {
    "purity": [(1, 0.51, "<=", 0.65), (2, 0.61, "<=", 0.75),
               (3, 0.95, ">=", 0.88), (4, 0.98, ">=", 0.93)],
    "entropy": [(1, 0.49, "<=", 0.60), (2, 0.84, ">=", 0.78),
                (3, 0.92, ">=", 0.85), (4, 0.93, ">=", 0.87)],
    "band": [(1, 0.47, "<=", 0.60), (2, 0.99, ">=", 0.95)],
    "double-band": [(2, 0.53, "<=", 0.65), (3, 0.99, ">=", 0.95)],
}

DATASET_SEED = 7
MODEL_SEED = 11
GRID_POINTS = 101


def _seed(text: str) -> int:
    """argparse type of the --seed options: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _layer_count(text: str) -> int:
    """argparse type of train --layers: an integer from 1 to MAX_LAYERS,
    checked before the dataset is read or a layer is built."""
    if not (text.isdecimal() and 1 <= int(text) <= MAX_LAYERS):
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_LAYERS}, got {text!r}")
    return int(text)


def _at_most(cap: int):
    """argparse type of a size option: an integer no larger than cap,
    checked before anything is sized by it.  The command checks the lower
    bound itself."""
    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"expected an integer of at most {cap}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type of text that is no integer
    return parse


def _sig4(x) -> str:
    return f"{float(x):.4g}"


def _quartic(lam: float) -> float:
    return 3.0 * (lam + 0.8) * lam * (lam - 0.5) ** 2 + 0.3


def _grid_items(fn) -> list:
    items, _ = generate_dataset("psi-grid", GRID_POINTS, 1, 0)
    return [LabeledState(it.state, fn(it.meta["lambda"]), it.meta) for it in items]


# one tolerance line of a reproduction table
_Row = namedtuple("_Row", "name reference obtained criterion ok")


def _print_rows(rows) -> int:
    width = max(len(r.name) for r in rows) + 2
    cwidth = max(len("criterion"), *(len(r.criterion) for r in rows)) + 2
    print(f"{'quantity':<{width}}{'reference':>10}{'obtained':>11}  "
          f"{'criterion':<{cwidth}}{'status'}")
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name:<{width}}{_sig4(r.reference):>10}{_sig4(r.obtained):>11}  "
              f"{r.criterion:<{cwidth}}{status}")
    failed = sum(not r.ok for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} rows pass")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# commands

def cmd_gen_dataset(args) -> int:
    train_set, test_set = generate_dataset(args.task, args.train_size, args.test_size, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out / "train.jsonl", train_set)
    write_dataset(out / "test.jsonl", test_set)
    for name, ds in (("train", train_set), ("test", test_set)):
        labels = np.array([it.label for it in ds])
        if args.task == "psi-grid":
            print(f"{name}: {len(ds)} states, labels in "
                  f"[{_sig4(labels.min())}, {_sig4(labels.max())}]")
        else:
            print(f"{name}: {len(ds)} states, class balance {_sig4(labels.mean())}")
    return 0


def cmd_train(args) -> int:
    data_dir = Path(args.dataset)
    train_set = read_dataset(data_dir / "train.jsonl")
    test_set = read_dataset(data_dir / "test.jsonl")
    if not train_set or not test_set:
        raise ValueError(f"{data_dir}: empty dataset")
    n_env = train_set[0].state.n_qubits
    if test_set[0].state.n_qubits != n_env:
        raise ValueError(f"{data_dir / 'test.jsonl'}: states have "
                         f"{test_set[0].state.n_qubits} qubits, train.jsonl has {n_env}")
    model = random_model(n_env, args.layers, seed=args.model_seed, restricted=args.restricted)
    config = TrainConfig(
        loss=args.loss,
        learning_rate=args.lr,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        shots=args.shots,
    )
    report = train(model, train_set, test_set, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report))
    (out / "histogram.csv").write_text(histogram_to_csv(report.histogram))
    metric = "accuracy" if args.loss == "logistic" else "mse"
    print(f"trained {args.layers} layers on {len(train_set)} states; "
          f"test {metric} {_sig4(report.test_accuracy)}")
    print(f"wrote {out / 'report.json'} and {out / 'histogram.csv'}")
    return 0


def _poly_rows(name: str) -> list:
    if name == "poly-linear":
        items = _grid_items(lambda lam: lam)
        layers, epochs = 1, 300
    else:
        items = _grid_items(_quartic)
        layers, epochs = 4, 2000
    config = TrainConfig(loss="mse", max_epochs=epochs, seed=0)
    report = train(random_model(1, layers, seed=MODEL_SEED, restricted=True),
                   items, items, config)
    worst = max(abs(run_model(report.final_params, it.state)[1] - it.label) for it in items)
    return [_Row(f"{name} max-abs fit error (L={layers})", 0.0, worst, "<= 0.05", worst <= 0.05)]


def _classification_rows(task: str) -> list:
    n_env = 2 if task == "entropy" else 1
    train_set, test_set = generate_dataset(task, 1000, 500, DATASET_SEED)
    config = TrainConfig(loss="logistic", max_epochs=300, seed=0)
    rows = []
    for layers, reference, op, bound in CLASSIFICATION_LADDERS[task]:
        report = train(random_model(n_env, layers, seed=MODEL_SEED), train_set, test_set, config)
        acc = report.test_accuracy
        ok = acc <= bound if op == "<=" else acc >= bound
        rows.append(_Row(f"{task} L={layers} accuracy", reference, acc, f"{op} {bound}", ok))
    return rows


def _hadamard_rows(seed: int) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(5):
        rho = sample_bloch_ball(rng)
        u = haar_unitary(2, rng)
        direct = complex(np.trace(rho.matrix @ u))
        re = hadamard_test(rho, u)
        im = hadamard_test(rho, u, imag=True)
        rows.append(_Row(f"hadamard pair {k} Re tr(rho U)", direct.real, re,
                         "|diff|<=1e-10", abs(re - direct.real) <= 1e-10))
        rows.append(_Row(f"hadamard pair {k} Im tr(rho U)", direct.imag, im,
                         "|diff|<=1e-10", abs(im - direct.imag) <= 1e-10))
    return rows


def _verify_rows(seed: int) -> list:
    rows = []
    for name in sorted(CHECKS):
        report = run_check(name, seed=seed)
        tol = CHECK_TOLERANCES[name]
        rows.append(_Row(f"check {name} ({report['trials']} trials)", 0.0,
                         report["max_violation"], f"<= {tol:g}", bool(report["pass"])))
    return rows


def cmd_reproduce(args) -> int:
    if args.preset in ("poly-linear", "poly-quartic"):
        rows = _poly_rows(args.preset)
    elif args.preset in CLASSIFICATION_LADDERS:
        rows = _classification_rows(args.preset)
    elif args.preset == "hadamard-demo":
        rows = _hadamard_rows(args.seed)
    else:
        rows = _verify_rows(args.seed)
    return _print_rows(rows)


def cmd_verify(args) -> int:
    names = [args.check] if args.check else sorted(CHECKS)
    reports = []
    for name in names:
        report = run_check(name, trials=args.trials, seed=args.seed)
        reports.append(report)
        status = "PASS" if report["pass"] else "FAIL"
        print(f"{report['check_name']}: max violation {_sig4(report['max_violation'])} "
              f"at trial {report['worst_trial']} over {report['trials']} trials  {status}")
    if args.out:
        payload = reports[0] if args.check else reports
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(r["pass"] for r in reports) else 1


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reupsim",
        description="Re-uploading circuit toolkit: datasets, training, "
                    "preset reproduction, numerical certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="sample a labeled dataset and write JSONL files")
    p.add_argument("--task", required=True, choices=DATASET_TASKS)
    p.add_argument("--train-size", type=_at_most(MAX_SPLIT_SIZE), default=1000)
    p.add_argument("--test-size", type=_at_most(MAX_SPLIT_SIZE), default=500)
    p.add_argument("--seed", type=_seed, default=DATASET_SEED)
    p.add_argument("--out", required=True, help="output directory for train.jsonl / test.jsonl")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a fresh model on a JSONL dataset directory")
    p.add_argument("--dataset", required=True, help="directory with train.jsonl / test.jsonl")
    p.add_argument("--layers", type=_layer_count, default=4)
    p.add_argument("--model-seed", type=_seed, default=MODEL_SEED)
    p.add_argument("--restricted", action="store_true",
                   help="CNOT couplings with trainable angles instead of general couplings")
    p.add_argument("--loss", choices=("mse", "logistic"), default="logistic")
    p.add_argument("--epochs", type=_at_most(MAX_EPOCHS), default=300)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory for report.json / histogram.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reproduce", help="rerun a preset and print reference vs obtained")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="run numerical certificates")
    p.add_argument("--check", choices=sorted(CHECKS), default=None,
                   help="single check to run (default: all)")
    p.add_argument("--trials", type=_at_most(MAX_TRIALS), default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size the arrays cannot be allocated for
        # a MemoryError from Python itself, as opposed to numpy, has no message
        print("error: not enough memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
