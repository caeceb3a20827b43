"""The three benchmark workloads.

Each workload produces its inputs in `setup`, runs one round of operations
in `run_round` (timing, with `clock`, only the calls that produce the
result), and checks a round's outputs in `check`.  Rounds of one run repeat the same
operations on the same inputs, so their outputs must be identical.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import namedtuple

import numpy as np

from reupsim import channel, cli, compiler, states, trainer, verify
from reupsim.compiler import MonomialSpec, PolynomialSpec

import checks
from checks import Target

# operations that failed, output, and a fingerprint of the output that
# later rounds must reproduce
Round = namedtuple("Round", "failed output fingerprint")

# Where the traced run wraps reupsim's public functions: in the namespace of
# the module that calls them, named after the module that defines them.
PATCHES = (
    (cli, "generate_dataset", "states.generate_dataset"),
    (cli, "write_dataset", "states.write_dataset"),
    (cli, "read_dataset", "states.read_dataset"),
    (cli, "train", "trainer.train"),
    (cli, "run_check", lambda name, **kw: f"verify.{name}"),
    (trainer, "layer_transfer_tensor", "channel.layer_transfer_tensor"),
    (trainer, "pauli_coeffs", "states.pauli_coeffs"),
    (trainer, "evaluate", "trainer.evaluate"),
    (compiler, "layer_transfer_tensor", "channel.layer_transfer_tensor"),
    (compiler, "layer_affine_map", "channel.layer_affine_map"),
    (compiler, "unitary_to_generator", "linalg.unitary_to_generator"),
    (channel, "layer_transfer_tensor", "channel.layer_transfer_tensor"),
    (channel, "exp_i_hermitian", "linalg.exp_i_hermitian"),
    (channel, "pauli_coeffs", "states.pauli_coeffs"),
    (verify, "apply_layer", "channel.apply_layer"),
    (verify, "exp_i_hermitian", "linalg.exp_i_hermitian"),
)


def _cli(argv) -> int:
    """reupsim.cli.main in process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class EntropyTrain:
    """The two-qubit entanglement-entropy classifier through the CLI."""

    name = "entropy-train"
    n_train, n_test = 1000, 500
    layers, epochs = 4, 10
    ops_per_round = 1
    sample_updates = n_train * epochs  # full batch: every sample, every epoch
    records_read = n_train + n_test
    trials = 0

    def __init__(self, work, seed: int):
        self.seed = seed
        self.data = work / "data"
        self.out = work / "run"

    def setup(self, span) -> None:
        with span("cli.main"):
            code = _cli(["gen-dataset", "--task", "entropy", "--train-size", str(self.n_train),
                         "--test-size", str(self.n_test), "--seed", str(self.seed),
                         "--out", str(self.data)])
        if code != 0:
            raise RuntimeError(f"gen-dataset exited with {code}")

    def run_round(self, span, clock) -> Round:
        argv = ["train", "--dataset", str(self.data), "--layers", str(self.layers),
                "--epochs", str(self.epochs), "--loss", "logistic", "--batch-size", "0",
                "--out", str(self.out)]
        with clock(), span("cli.main"):
            code = _cli(argv)
        if code != 0:
            return Round(1, None, None)
        text = (self.out / "report.json").read_text()
        return Round(0, text, text)

    def check(self, output) -> list:
        train_mats, train_y = checks.load_jsonl(self.data / "train.jsonl")
        test_mats, test_y = checks.load_jsonl(self.data / "test.jsonl")
        fails = checks.check_entropy_labels(train_mats + test_mats, np.concatenate([train_y, test_y]))
        report = json.loads(output)
        model = channel.model_from_json(json.dumps(report["final_params"]))
        r_train, f_train = checks.oracle_outputs(model, train_mats)
        r_test, f_test = checks.oracle_outputs(model, test_mats)
        history = report["loss_history"]
        fails += checks.check_test_accuracy(report["test_accuracy"], f_test, test_y)
        fails += checks.check_final_logistic_loss(history, f_train, train_y)
        fails += checks.check_loss_decreased(history)
        fails += checks.check_bloch_norms(np.concatenate([r_train, r_test]))
        return fails


class QuarticFit:
    """The poly-quartic preset: restricted CNOT layers fitted to a quartic."""

    name = "quartic-fit"
    grid_points, layers, epochs = 101, 4, 2000
    model_seed = 11  # the preset's starting model
    ops_per_round = 1
    sample_updates = grid_points * epochs
    records_read = 0
    trials = 0

    def __init__(self, work, seed: int):
        self.seed = seed  # the grid and the preset's model do not depend on it

    def setup(self, span) -> None:
        with span("states.generate_dataset"):
            grid, _ = states.generate_dataset("psi-grid", self.grid_points, 1, 0)
        self.items = [states.LabeledState(it.state, checks.quartic(it.meta["lambda"]), it.meta)
                      for it in grid]
        self.model = trainer.random_model(1, self.layers, seed=self.model_seed, restricted=True)
        self.config = trainer.TrainConfig(loss="mse", max_epochs=self.epochs, seed=0)

    def run_round(self, span, clock) -> Round:
        with clock(), span("trainer.train"):
            report = trainer.train(self.model, self.items, self.items, self.config)
        return Round(0, report, trainer.report_to_json(report))

    def check(self, report) -> list:
        mats = [it.state.matrix for it in self.items]
        _, f = checks.oracle_outputs(report.final_params, mats)
        return (checks.check_quartic_fit(mats, f)
                + checks.check_recorded_mse(report.loss_history[-1], mats, f))


# One target per fit_coefficients route.  0.1 + 0.3 l1 l2 - 0.2 l3^2 + 0.1 l1
# is left out: the general route stops short of tolerance on it.
COMPILE_TARGETS = (
    Target("univariate", 1, 0.2, ((-0.5, {3: 1}), (0.4, {3: 2}), (0.3, {3: 3}))),
    Target("monomial", 2, 0.1, ((0.6, {5: 1, 10: 1}),)),
    Target("two_squares", 1, 0.05, ((0.4, {1: 2}), (-0.3, {2: 2}))),
    Target("kick", 1, 0.0, ((0.3, {1: 2}), (0.2, {2: 2}), (-0.25, {3: 2}))),
    Target("general", 1, 0.1, ((0.3, {1: 1, 2: 1}), (0.2, {3: 1}))),
)
CHECK_STATES_PER_TARGET = 16
SWAP_TEST_STATES = 16


def polynomial(target: Target) -> PolynomialSpec:
    return PolynomialSpec(target.n, target.c0, [MonomialSpec(c, dict(ex)) for c, ex in target.terms])


def random_density(n: int, rng, pure: bool) -> np.ndarray:
    d = 2**n
    if pure:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


class CompileCertify:
    """fit_coefficients and extract_coefficients on every compile route,
    then the five certificates through `reupsim verify`."""

    name = "compile-certify"
    ops_per_round = len(COMPILE_TARGETS) + len(checks.CERTIFICATES)
    sample_updates = 0
    records_read = 0
    trials = sum(t for _, t in checks.CERTIFICATES.values())

    def __init__(self, work, seed: int):
        self.seed = seed
        self.report_path = work / "verify.json"
        work.mkdir(parents=True, exist_ok=True)

    def setup(self, span) -> None:
        self.polys = [polynomial(t) for t in COMPILE_TARGETS]

    def run_round(self, span, clock) -> Round:
        results, failed = [], 0
        for target, poly in zip(COMPILE_TARGETS, self.polys):
            basis = poly if len(poly.variables) > 1 else None
            try:
                with clock():
                    with span(f"compiler.fit.{target.route}"):
                        circuit = compiler.fit_coefficients(poly)
                    with span("compiler.extract_coefficients"):
                        extracted = compiler.extract_coefficients(circuit, basis)
            except (compiler.CompileError, ValueError):
                circuit = extracted = None
                failed += 1
            results.append((target, circuit, extracted))
        with clock(), span("cli.main"):
            code = _cli(["verify", "--seed", str(self.seed), "--out", str(self.report_path)])
        reports = json.loads(self.report_path.read_text()) if code in (0, 1) else []
        failed += len(checks.CERTIFICATES) - sum(r.get("pass") is True for r in reports)
        fingerprint = json.dumps([
            [None if c is None else channel.model_to_json(c.model),
             None if c is None else c.residual,
             None if e is None else [float(x) for x in e]]
            for _, c, e in results
        ] + [reports])
        return Round(failed, (results, reports), fingerprint)

    def check(self, output) -> list:
        results, reports = output
        rng = np.random.default_rng([self.seed, 1])
        fails = []
        for target, circuit, extracted in results:
            if circuit is None:
                fails.append(f"{target.route}: fit_coefficients raised")
                continue
            mats = [random_density(target.n, rng, pure=k % 2 == 0)
                    for k in range(CHECK_STATES_PER_TARGET)]
            _, f = checks.oracle_outputs(circuit.model, mats)
            fails += checks.check_compiled_values(target, circuit.residual, mats, f)
            fails += checks.check_extracted(target, circuit.residual, extracted)
        fails += checks.check_certificates(reports)
        mats = [random_density(1 + k % 2, rng, pure=k % 3 == 0) for k in range(SWAP_TEST_STATES)]
        values = [verify.swap_test_purity(states.DensityMatrix(m)) for m in mats]
        return fails + checks.check_swap_test(mats, values)


WORKLOADS = {w.name: w for w in (EntropyTrain, QuarticFit, CompileCertify)}
