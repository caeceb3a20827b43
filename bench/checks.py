"""Output checks for the benchmark workloads.

Every reference value here is computed with numpy from the inputs the
benchmark produced, not read back from the output under test.  Where a
check needs the model's prediction it uses the density-matrix simulation
`reupsim.channel.run_model` (the oracle path), while training and
compilation read out through the per-layer transfer tensors.  Each
`check_*` function returns a list of failure messages, empty when the
output passes.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import prod

import numpy as np

from reupsim.channel import run_model
from reupsim.states import DensityMatrix

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Renyi-2 entropy of the first qubit that splits the entropy task's classes
ENTROPY_THRESHOLD = 0.3 * np.log(2.0)
# the train command's logistic surrogate: sigmoid(10 (f - 0.5)), log floor 1e-12
LOGISTIC_SCALE = 10.0
CLASS_THRESHOLD = 0.5
LOG_FLOOR = 1e-12

LOSS_ATOL = 1e-9
BLOCH_NORM_SLACK = 1e-9
QUARTIC_MAX_ERROR = 0.05
SWAP_TEST_ATOL = 1e-10
# extraction solves a probe system whose consistency row may be off by 1e-8
EXTRACT_ATOL = 1e-8
VALUE_ATOL = 1e-9

# pass thresholds of the certificates and their default trial counts
CERTIFICATES = {
    "evolution-formula": (1e-10, 200),
    "observation1": (1e-9, 1000),
    "purity-observable": (1e-9, 200),
    "ksigma": (1e-9, 200),
    "swap-test": (1e-10, 100),
}

# A compile target: the route fit_coefficients is expected to take, the
# number of input qubits, the constant and (coeff, {alpha: exponent}) terms.
Target = namedtuple("Target", "route n c0 terms")


# ---------------------------------------------------------------------------
# independent numpy helpers

def pauli_word(alpha: int, n: int) -> np.ndarray:
    """Pauli word with base-4 index alpha, first qubit most significant."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, PAULI[(alpha // 4 ** (n - 1 - k)) % 4])
    return out


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """lam[alpha - 1] = tr(m W_alpha) for alpha = 1 .. 4^n - 1."""
    n = m.shape[0].bit_length() - 1
    return np.array([np.trace(m @ pauli_word(a, n)).real for a in range(1, 4**n)])


def matrix_from_rows(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def load_jsonl(path):
    """(matrices, labels) of a dataset file, parsed without reupsim."""
    mats, labels = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                mats.append(matrix_from_rows(rec["matrix"]))
                labels.append(float(rec["label"]))
    return mats, np.array(labels)


def renyi2_first_qubit(m: np.ndarray) -> float:
    """-ln sum p^2 over the eigenvalues p of the first qubit's reduced state."""
    reduced = np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    p = np.linalg.eigvalsh(reduced)
    return float(-np.log(np.sum(p**2)))


def logistic_loss(f: np.ndarray, y: np.ndarray) -> float:
    p = 1.0 / (1.0 + np.exp(-LOGISTIC_SCALE * (f - CLASS_THRESHOLD)))
    return float(-np.mean(y * np.log(p + LOG_FLOOR) + (1.0 - y) * np.log(1.0 - p + LOG_FLOOR)))


def quartic(lam):
    return 3.0 * (lam + 0.8) * lam * (lam - 0.5) ** 2 + 0.3


def oracle_outputs(model, mats):
    """Bloch vectors and readouts of model on each input through run_model."""
    rs, fs = [], []
    for m in mats:
        r, f = run_model(model, DensityMatrix(m))
        rs.append(r)
        fs.append(f)
    return np.array(rs), np.array(fs)


def target_value(target: Target, lam: np.ndarray) -> float:
    return target.c0 + sum(c * prod(lam[a - 1] ** e for a, e in ex.items())
                           for c, ex in target.terms)


def scheduled_degrees(target: Target) -> dict:
    """Total exponent of each variable, i.e. how many layers scale by it."""
    degs = {}
    for _, ex in target.terms:
        for a, e in ex.items():
            degs[a] = degs.get(a, 0) + e
    return degs


def coefficient_count(target: Target) -> int:
    """Number of monomials a circuit on the target's schedule can produce."""
    return prod(d + 1 for d in scheduled_degrees(target).values())


def expected_coefficients(target: Target) -> np.ndarray:
    """What extract_coefficients should return: the degree ladder 0..L for a
    univariate target, else (c0, coefficients in term order)."""
    degs = scheduled_degrees(target)
    if len(degs) == 1:
        out = np.zeros(sum(degs.values()) + 1)
        out[0] = target.c0
        for c, ex in target.terms:
            out[sum(ex.values())] += c
        return out
    return np.array([target.c0] + [c for c, _ in target.terms])


# ---------------------------------------------------------------------------
# entropy-train

def check_entropy_labels(mats, labels) -> list:
    bad = [k for k, (m, y) in enumerate(zip(mats, labels))
           if float(renyi2_first_qubit(m) >= ENTROPY_THRESHOLD) != y]
    if bad:
        return [f"{len(bad)} labels disagree with the reduced-state entropy "
                f"(first at record {bad[0]})"]
    return []


def check_test_accuracy(reported: float, f_test: np.ndarray, labels: np.ndarray) -> list:
    acc = float(np.mean((f_test >= CLASS_THRESHOLD) == (labels == 1.0)))
    if abs(acc - reported) > 1e-12:
        return [f"test_accuracy {reported!r} but the oracle gives {acc!r}"]
    return []


def check_final_logistic_loss(history, f_train: np.ndarray, labels: np.ndarray) -> list:
    loss = logistic_loss(f_train, labels)
    if abs(loss - history[-1]) > LOSS_ATOL:
        return [f"final loss {history[-1]!r} but the oracle gives {loss!r}"]
    return []


def check_loss_decreased(history) -> list:
    if not history[-1] < history[0]:
        return [f"loss did not go down: {history[0]!r} -> {history[-1]!r}"]
    return []


def check_bloch_norms(r: np.ndarray) -> list:
    worst = float(np.max(np.linalg.norm(r, axis=1)))
    if worst > 1.0 + BLOCH_NORM_SLACK:
        return [f"Bloch vector of norm {worst!r} > 1: a layer is not CPTP"]
    return []


# ---------------------------------------------------------------------------
# quartic-fit

def check_quartic_fit(mats, f: np.ndarray) -> list:
    lam = np.array([np.trace(m @ PAULI[3]).real for m in mats])
    worst = float(np.max(np.abs(f - quartic(lam))))
    if worst > QUARTIC_MAX_ERROR:
        return [f"max |f - q| = {worst!r} > {QUARTIC_MAX_ERROR}"]
    return []


def check_recorded_mse(recorded: float, mats, f: np.ndarray) -> list:
    lam = np.array([np.trace(m @ PAULI[3]).real for m in mats])
    mse = float(np.mean((f - quartic(lam)) ** 2))
    if abs(mse - recorded) > LOSS_ATOL:
        return [f"recorded mse {recorded!r} but the oracle gives {mse!r}"]
    return []


# ---------------------------------------------------------------------------
# compile-certify

def check_compiled_values(target: Target, residual: float, mats, f: np.ndarray) -> list:
    """The readout differs from the target by at most the sum of its
    coefficient errors, each at most residual, since every |lam| <= 1."""
    bound = coefficient_count(target) * residual + VALUE_ATOL
    want = np.array([target_value(target, pauli_coefficients(m)) for m in mats])
    worst = float(np.max(np.abs(f - want)))
    if worst > bound:
        return [f"{target.route}: readout off the target by {worst!r} > {bound!r}"]
    return []


def check_extracted(target: Target, residual: float, extracted) -> list:
    want = expected_coefficients(target)
    got = np.asarray(extracted, dtype=float)
    if got.shape != want.shape:
        return [f"{target.route}: extracted {got.shape[0]} coefficients, expected {want.shape[0]}"]
    bound = coefficient_count(target) * residual + EXTRACT_ATOL
    worst = float(np.max(np.abs(got - want)))
    if worst > bound:
        return [f"{target.route}: extracted coefficients off by {worst!r} > {bound!r}"]
    return []


def check_certificates(reports) -> list:
    """All five certificates ran at their default trial counts and passed,
    and each stays within the benchmark's own tolerance."""
    fails = []
    names = [r.get("check_name") for r in reports]
    if sorted(names) != sorted(CERTIFICATES):
        fails.append(f"certificates {names} are not the five expected")
    for r in reports:
        tol, trials = CERTIFICATES.get(r.get("check_name"), (None, None))
        if tol is None:
            continue
        if r.get("trials") != trials:
            fails.append(f"{r['check_name']}: {r.get('trials')} trials, expected {trials}")
        if r.get("pass") is not True:
            fails.append(f"{r['check_name']}: the program reports the certificate failed")
        v = r.get("max_violation")
        if not (isinstance(v, float) and 0.0 <= v <= tol):
            fails.append(f"{r['check_name']}: violation {v!r} exceeds {tol}")
    return fails


def check_swap_test(mats, values) -> list:
    want = np.array([np.sum(np.abs(m) ** 2) for m in mats])  # tr(rho^2) = ||rho||_F^2
    worst = float(np.max(np.abs(np.asarray(values) - want)))
    if worst > SWAP_TEST_ATOL:
        return [f"swap-test purity off tr(rho^2) by {worst!r}"]
    return []
