"""Quantum state containers, Pauli expansions, entropy helpers and the
dataset samplers / JSONL serialization used by the training pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PAULIS,
    _int_log2,
    index_to_letters,
    kron,
    letters_to_index,
    partial_trace,
    pauli_word_basis,
    swap_permutation,
)

STATE_ATOL = 1e-10

# tr(rho_A^2) threshold splitting the Bloch ball into two equal-volume classes
PURITY_LABEL_THRESHOLD = (1.0 + 2.0 ** (-2.0 / 3.0)) / 2.0

# Renyi-2 entropy threshold, 0.3 bits in natural-log units; chosen so the
# two classes of Haar-random two-qubit pure states are balanced
ENTROPY_LABEL_THRESHOLD = 0.3 * np.log(2.0)

BAND_EDGE = 0.5

DATASET_TASKS = ("purity", "entropy", "band", "double-band", "psi-grid")
# meta scalars a prediction histogram can bin over, first match wins
META_KEYS = ("purity", "entropy", "r3", "lambda")


@dataclass
class DensityMatrix:
    """Validated density matrix on n_qubits qubits.

    Rejects input that is not Hermitian (1e-10), not unit trace (1e-10) or
    has an eigenvalue below -1e-10.
    """

    matrix: np.ndarray
    n_qubits: int = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"not a square matrix: {self.matrix.shape}")
        n = _int_log2(self.matrix.shape[0])
        if self.n_qubits == 0:
            self.n_qubits = n
        elif self.n_qubits != n:
            raise ValueError(f"n_qubits {self.n_qubits} does not match dim {self.matrix.shape[0]}")
        if not np.isfinite(self.matrix).all():
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > STATE_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(self.matrix).real - 1.0) > STATE_ATOL or abs(np.trace(self.matrix).imag) > STATE_ATOL:
            raise ValueError("density matrix does not have unit trace")
        evs = np.linalg.eigvalsh(self.matrix)
        if evs[0] < -STATE_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {evs[0]:.3e}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class PauliWord:
    """Multi-qubit Pauli word; letters[k] in 0..3 = I, X, Y, Z for qubit k."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(c) for c in self.letters))
        if not self.letters:
            raise ValueError("empty Pauli word")
        if any(c not in (0, 1, 2, 3) for c in self.letters):
            raise ValueError(f"letters must be in 0..3, got {self.letters}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def index(self) -> int:
        """Base-4 encoding, first qubit most significant."""
        return letters_to_index(self.letters)

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.letters)

    @classmethod
    def from_index(cls, alpha: int, n_qubits: int) -> "PauliWord":
        return cls(index_to_letters(alpha, n_qubits))


@dataclass
class PauliCoeffs:
    """Pauli expansion coefficients lam[alpha-1] = tr(rho W_alpha), alpha >= 1."""

    n_qubits: int
    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = 4**self.n_qubits - 1
        if self.lam.shape != (m,):
            raise ValueError(f"expected {m} coefficients, got {self.lam.shape}")
        largest = np.max(np.abs(self.lam))
        if not math.isfinite(largest):
            raise ValueError("Pauli coefficients must be finite")
        if largest > 1.0 + 1e-9:
            raise ValueError("Pauli coefficient exceeds 1 in magnitude")


@dataclass
class LabeledState:
    state: DensityMatrix
    label: float
    meta: dict = field(default_factory=dict)


def pauli_coeffs(rho: DensityMatrix) -> PauliCoeffs:
    """Expansion coefficients of rho over the non-identity Pauli words."""
    words = pauli_word_basis(rho.n_qubits)
    lam = np.einsum("aij,ji->a", words[1:], rho.matrix).real
    return PauliCoeffs(rho.n_qubits, lam)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def renyi2_entropy(rho: DensityMatrix) -> float:
    """Order-2 Renyi entropy of the first qubit of a two-qubit pure state.

    Computed as -ln tr[(rho (x) rho) S_A] with S_A swapping the two copies of
    the first qubit, and cross-checked against -ln tr(rho_A^2).  Natural log;
    a Bell state gives ln 2.  Mixed or non-two-qubit input is rejected.
    """
    if rho.n_qubits != 2:
        raise ValueError("renyi2_entropy expects a two-qubit state")
    if abs(purity(rho) - 1.0) > 1e-8:
        raise ValueError("renyi2_entropy expects a pure state")
    doubled = kron(rho.matrix, rho.matrix)
    val = np.trace(doubled @ swap_permutation(2, 2)).real
    rho_a = partial_trace(rho.matrix, 2, 2, keep="A")
    direct = np.trace(rho_a @ rho_a).real
    if abs(val - direct) > 1e-10:
        raise RuntimeError("swap-trick purity disagrees with the reduced state")
    return float(-np.log(val))


def sample_haar_pure(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state: normalized vector of complex normals."""
    d = 2**n_qubits
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()), n_qubits)


def sample_bloch_ball(rng: np.random.Generator) -> DensityMatrix:
    """Single-qubit state uniform over the Bloch ball.

    Direction from normalized Gaussians, radius as the cube root of a
    uniform variate, so tr(rho^2) >= PURITY_LABEL_THRESHOLD has probability
    exactly one half.
    """
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = np.cbrt(rng.uniform()) * v
    return density_from_bloch(r)


def density_from_bloch(r) -> DensityMatrix:
    r = np.asarray(r, dtype=float)
    m = (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3]) / 2
    return DensityMatrix(m, 1)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(tr(rho X), tr(rho Y), tr(rho Z)) of a single-qubit state."""
    if rho.n_qubits != 1:
        raise ValueError("bloch_vector expects a single-qubit state")
    m = rho.matrix
    return np.array(
        [2 * m[1, 0].real, 2 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real]
    )


def psi_t(t: float) -> DensityMatrix:
    """Pure qubit state t|0> + sqrt(1-t^2)|1> for 0 < t < 1.

    Its Bloch vector is (2 t sqrt(1-t^2), 0, 2 t^2 - 1); the z component
    2 t^2 - 1 is the scale factor the reset-and-entangle layer applies.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly between 0 and 1, got {t}")
    amp = np.array([t, np.sqrt(1.0 - t * t)], dtype=complex)
    return DensityMatrix(np.outer(amp, amp.conj()), 1)


# ---------------------------------------------------------------------------
# JSONL serialization


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def json_int(value, field: str, low: int = 1) -> int:
    """value, if it is a JSON integer (not a bool) of at least low (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise ValueError(f"{field} must be a {kind} JSON integer, got {json.dumps(value)}")
    return value


def json_number(value, field: str) -> float:
    """value as a float, if it is a JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def write_dataset(path, dataset) -> None:
    """Write labeled states as JSONL, one record per line."""
    with open(path, "w") as fh:
        for item in dataset:
            rec = {
                "n": item.state.n_qubits,
                "matrix": _matrix_to_json(item.state.matrix),
                "label": float(item.label),
                "meta": item.meta,
            }
            fh.write(json.dumps(rec) + "\n")


def read_dataset(path) -> list:
    """Read a JSONL dataset, revalidating every state.

    n must be a positive JSON integer and label a finite JSON number (not
    a bool), and every state must have the first record's qubit count.  meta
    must be a JSON object whose META_KEYS are finite JSON numbers, the same
    keys in every record.  Errors name the file and line.
    """
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                n = json_int(rec["n"], "n")
                label = json_number(rec["label"], "label")
                state = DensityMatrix(_matrix_from_json(rec["matrix"]), n)
                meta = rec.get("meta", {})
                if not isinstance(meta, dict):
                    raise ValueError(f"meta must be a JSON object, got {json.dumps(meta)}")
                item = LabeledState(state, label, dict(meta))
                if not math.isfinite(item.label):
                    raise ValueError("label must be finite")
                keys = [k for k in META_KEYS if k in meta]
                for k in keys:
                    if not math.isfinite(json_number(meta[k], f"meta {k}")):
                        raise ValueError(f"meta {k} must be finite")
                if out and state.n_qubits != out[0].state.n_qubits:
                    raise ValueError(
                        f"state has {state.n_qubits} qubits, the first record "
                        f"has {out[0].state.n_qubits}"
                    )
                if not out:
                    first_keys = keys
                elif keys != first_keys:
                    raise ValueError(f"meta has histogram keys {keys}, the first record has {first_keys}")
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# dataset generation


def _sample_sphere(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _purity_item(rng) -> LabeledState:
    rho = sample_bloch_ball(rng)
    p = purity(rho)
    return LabeledState(rho, float(p >= PURITY_LABEL_THRESHOLD), {"purity": p})


def _entropy_item(rng) -> LabeledState:
    rho = sample_haar_pure(2, rng)
    s = renyi2_entropy(rho)
    return LabeledState(rho, float(s >= ENTROPY_LABEL_THRESHOLD), {"entropy": s})


def _band_item(rng) -> LabeledState:
    r = _sample_sphere(rng)
    return LabeledState(density_from_bloch(r), float(abs(r[2]) >= BAND_EDGE), {"r3": r[2]})


def _double_band_item(rng) -> LabeledState:
    r = _sample_sphere(rng)
    label = float(r[2] >= BAND_EDGE or -BAND_EDGE <= r[2] < 0.0)
    return LabeledState(density_from_bloch(r), label, {"r3": r[2]})


def _psi_grid(count: int) -> list:
    out = []
    for k in range(count):
        lam = -1.0 + 2.0 * (k + 1) / (count + 1)
        t = np.sqrt((1.0 + lam) / 2.0)
        out.append(LabeledState(psi_t(t), lam, {"lambda": lam, "t": float(t)}))
    return out


def generate_dataset(task: str, n_train: int, n_test: int, seed: int):
    """Sample (train, test) lists for one of the built-in tasks.

    Tasks: purity (Bloch-ball states, purity threshold), entropy (Haar
    two-qubit pure states, Renyi-2 threshold), band / double-band (pure
    qubit states, z-component bands) and psi-grid (uniform lambda grid in
    the open interval (-1, 1), label = lambda).  Labels can always be
    re-derived from the meta fields.  Both sizes must be at least 1.
    """
    for name, size in (("train", n_train), ("test", n_test)):
        if size < 1:
            raise ValueError(f"{name} size must be at least 1, got {size}")
    if task == "psi-grid":
        return _psi_grid(n_train), _psi_grid(n_test)
    samplers = {
        "purity": _purity_item,
        "entropy": _entropy_item,
        "band": _band_item,
        "double-band": _double_band_item,
    }
    if task not in samplers:
        raise ValueError(f"unknown task {task!r}; choose from {DATASET_TASKS}")
    rng = np.random.default_rng(seed)
    make = samplers[task]
    train = [make(rng) for _ in range(n_train)]
    test = [make(rng) for _ in range(n_test)]
    return train, test
