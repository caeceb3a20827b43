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
    letters_to_index,
    pauli_traces,
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


def density_fault(stack: np.ndarray):
    """(k, reason) for the first matrix of an (N, d, d) stack that is not a
    density matrix, or None when every one is.

    The checks run on the whole stack in order, each on the prefix before
    the first failure so far: finite entries, Hermitian within 1e-10, unit
    trace within 1e-10, and no eigenvalue below -1e-10 (one eigvalsh of
    that prefix).  So k and its reason are those a matrix-by-matrix check
    would give.  Each check is one reduction over the stack; a matrix is
    located only when the stack fails it.
    """
    fault = None
    finite = np.isfinite(stack)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=(1, 2))))
        fault, stack = (k, "density matrix has non-finite entries"), stack[:k]
    if not len(stack):
        return fault
    skew = np.abs(stack - stack.conj().swapaxes(1, 2))
    # |re tr - 1| and |im tr| side by side, two per matrix
    trace_off = np.abs((stack.trace(axis1=1, axis2=2) - 1.0).view(float))
    if skew.max() > STATE_ATOL or trace_off.max() > STATE_ATOL:
        hermitian = skew.max(axis=(1, 2)) <= STATE_ATOL
        k = int(np.argmin(hermitian & (trace_off.reshape(-1, 2).max(axis=1) <= STATE_ATOL)))
        fault = (k, "density matrix does not have unit trace" if hermitian[k]
                 else "density matrix is not Hermitian within 1e-10")
        stack = stack[:k]
    evs = np.linalg.eigvalsh(stack)  # ascending, so evs[:, 0] is each matrix's lowest
    if len(evs) and evs.min() < -STATE_ATOL:
        k = int(np.argmax(evs[:, 0] < -STATE_ATOL))
        fault = (k, f"density matrix has negative eigenvalue {evs[k, 0]:.3e}")
    return fault


@dataclass(slots=True)
class DensityMatrix:
    """Validated density matrix on n_qubits qubits.

    Rejects input that is not finite, not Hermitian (1e-10), not unit trace
    (1e-10) or has an eigenvalue below -1e-10, with the reason
    `density_fault` gives.
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
        fault = density_fault(self.matrix[None])
        if fault is not None:
            raise ValueError(fault[1])

    @classmethod
    def prechecked(cls, matrix: np.ndarray, n_qubits: int) -> "DensityMatrix":
        """State of a matrix from a stack that already passed density_fault."""
        rho = object.__new__(cls)
        rho.matrix, rho.n_qubits = matrix, n_qubits
        return rho

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class PauliCoeffs:
    """Pauli expansion coefficients lam[..., alpha-1] = tr(rho W_alpha),
    alpha >= 1: shape (4**n - 1,) for one state, (N, 4**n - 1) for a stack."""

    n_qubits: int
    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        m = 4**self.n_qubits - 1
        if self.lam.ndim not in (1, 2) or self.lam.shape[-1] != m:
            raise ValueError(f"expected {m} coefficients, got {self.lam.shape}")
        largest = np.max(np.abs(self.lam), initial=0.0)
        if not math.isfinite(largest):
            raise ValueError("Pauli coefficients must be finite")
        if largest > 1.0 + 1e-9:
            raise ValueError("Pauli coefficient exceeds 1 in magnitude")


@dataclass(slots=True)
class LabeledState:
    state: DensityMatrix
    label: float
    meta: dict = field(default_factory=dict)


def pauli_coeffs(rho) -> PauliCoeffs:
    """Expansion coefficients over the non-identity Pauli words of a
    DensityMatrix, or of every matrix of an (N, d, d) stack of them."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    n = _int_log2(m.shape[-1])
    return PauliCoeffs(n, pauli_traces(m)[..., 1:].real)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def renyi2_entropy(rho):
    """Order-2 Renyi entropy of the first qubit of a two-qubit pure state,
    or the array of those of each matrix of an (N, 4, 4) stack.

    Computed as -ln tr[(rho (x) rho) S_A] with S_A swapping the two copies of
    the first qubit, and cross-checked against -ln tr(rho_A^2).  Natural log;
    a Bell state gives ln 2.  Mixed or non-two-qubit input is rejected.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if m.shape[-2:] != (4, 4):
        raise ValueError("renyi2_entropy expects a two-qubit state")
    stack = m.reshape(-1, 4, 4)
    if np.abs(np.trace(stack @ stack, axis1=1, axis2=2).real - 1.0).max() > 1e-8:
        raise ValueError("renyi2_entropy expects a pure state")
    # Diagonal entry i of (rho (x) rho) S_A is (rho (x) rho)[i, j], j the
    # index S_A swaps i with, that is rho[x1, y1] rho[x2, y2] for i = 4 x1 + x2
    # and j = 4 y1 + y2; so rho (x) rho, 6 MB for 1,500 states, is never built.
    x1, x2 = np.divmod(np.arange(16), 4)
    y1, y2 = np.divmod(swap_permutation(2, 2).argmax(axis=1), 4)
    flat = stack.reshape(-1, 16)
    diagonal = flat[:, 4 * x1 + y1] * flat[:, 4 * x2 + y2]
    # one 1-D sum per matrix, as np.trace sums: a sum along axis 1 adds in
    # another order and changes the last bits
    val = np.array([d.sum() for d in diagonal]).real
    rho_a = np.einsum("nabcb->nac", stack.reshape(-1, 2, 2, 2, 2))
    direct = np.einsum("nij,nji->n", rho_a, rho_a).real
    if np.abs(val - direct).max() > 1e-10:
        raise RuntimeError("swap-trick purity disagrees with the reduced state")
    s = -np.log(val)
    return float(s[0]) if m.ndim == 2 else s


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
    return DensityMatrix(_bloch_matrices(r), 1)


def _bloch_matrices(r) -> np.ndarray:
    """(I + r . sigma) / 2 of a Bloch vector r, or of each row of an (N, 3) array."""
    r = np.asarray(r, dtype=float)[..., None, None]
    return (PAULIS[0] + r[..., 0, :, :] * PAULIS[1] + r[..., 1, :, :] * PAULIS[2]
            + r[..., 2, :, :] * PAULIS[3]) / 2


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
    return DensityMatrix(_psi_t_matrices(t), 1)


def _psi_t_matrices(t) -> np.ndarray:
    """|psi_t><psi_t| of a t, or of each entry of an array of them."""
    t = np.asarray(t, dtype=float)
    amp = np.stack([t, np.sqrt(1.0 - t * t)], axis=-1).astype(complex)
    return amp[..., :, None] * amp.conj()[..., None, :]


# ---------------------------------------------------------------------------
# JSONL serialization


def _matrix_from_json(rows, n: int, may_hold_bool: bool) -> np.ndarray:
    """The (d, d, 2) re/im array of a d x d matrix, d = 2**n, given as rows
    of [re, im] pairs of JSON numbers.  numpy reads a bool as 0 or 1, so
    bools are looked for entry by entry when may_hold_bool: a record whose
    text spells neither true nor false holds none."""
    if n >= 64:  # no list holds 2**64 rows, and 2**n is not worth building
        raise ValueError(f"matrix: n = {n} needs 2**{n} rows")
    d = 2**n
    try:
        m = np.array(rows)
    except ValueError:  # ragged nesting
        m = None
    if (m is None or m.shape != (d, d, 2) or m.dtype.kind not in "fiu"
            or may_hold_bool
            and any(type(x) is bool for row in rows for pair in row for x in pair)):
        raise ValueError(f"matrix: {_matrix_fault(rows, n)}")
    return m


def _matrix_fault(rows, n: int) -> str:
    """Why rows is not a 2**n x 2**n matrix of [re, im] pairs of JSON numbers."""
    d = 2**n
    if not isinstance(rows, list):
        return f"expected a list of {d} rows, got {json.dumps(rows)}"
    if len(rows) != d:
        return f"expected {d} rows for n = {n}, got {len(rows)}"
    for row in rows:
        if not isinstance(row, list):
            return f"rows must be lists, got {json.dumps(row)}"
        if len(row) != d:
            return f"expected {d} entries per row, got {len(row)}"
        for pair in row:
            if not isinstance(pair, list) or len(pair) != 2:
                return f"entries must be [re, im] pairs, got {json.dumps(pair)}"
            for x in pair:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    return f"entries must be JSON numbers, got {json.dumps(x)}"
    return "integer entries must fit in 64 bits"  # numpy keeps them as objects


def json_int(value, field: str, low: int = 1) -> int:
    """value, if it is a JSON integer (not a bool) of at least low (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise ValueError(f"{field} must be a {kind} JSON integer, got {json.dumps(value)}")
    return value


def json_number(value, field: str) -> float:
    """value as a float, if it is a JSON number (not a bool) that a float
    can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a JSON number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{field} must fit a float, got an integer of "
                         f"{value.bit_length()} bits") from None


def json_object(value, field: str) -> dict:
    """value, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{field}: expected a JSON object, got {json.dumps(value)}")
    return value


def json_list(value, field: str) -> list:
    """value, if it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a JSON list, got {json.dumps(value)}")
    return value


def _check_record(n: int, label: float, meta, first):
    """Check a dataset record's label and meta, and its n and histogram keys
    against first, the (n, keys) of the file's first record (None for the
    first record itself); return the (n, keys) to check the next record by.

    label must be finite, meta a JSON object whose META_KEYS are finite JSON
    numbers.  A ValueError names the field.
    """
    json_object(meta, "meta")
    if not math.isfinite(label):
        raise ValueError("label must be finite")
    keys = [k for k in META_KEYS if k in meta]
    for k in keys:
        if not math.isfinite(json_number(meta[k], f"meta {k}")):
            raise ValueError(f"meta {k} must be finite")
    if first is None:
        return n, keys
    if n != first[0]:
        raise ValueError(f"state has {n} qubits, the first record has {first[0]}")
    if keys != first[1]:
        raise ValueError(f"meta has histogram keys {keys}, the first record has {first[1]}")
    return first


def write_dataset(path, dataset) -> None:
    """Write labeled states as JSONL, one record per line.

    Before it opens path, refuses what read_dataset would reject: a label
    that is not finite, meta whose histogram keys (META_KEYS) are not finite
    JSON numbers or differ from the first item's, and states of another
    qubit count than the first item's.  The ValueError reads `item K: reason`
    and names the field, meta's when json.dumps cannot encode it.  Every
    line is encoded before path is opened, so a refused dataset leaves no
    file behind.  Each matrix goes out through one tolist() of its [re, im]
    pairs, which keeps every bit of every entry.
    """
    first = None
    lines = []
    for k, item in enumerate(dataset):
        try:
            label = float(item.label)
            first = _check_record(item.state.n_qubits, label, item.meta, first)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"item {k}: {exc}") from exc
        m = np.ascontiguousarray(item.state.matrix, dtype=complex)
        rec = {
            "n": item.state.n_qubits,
            "matrix": m.view(float).reshape(*m.shape, 2).tolist(),
            "label": label,
            "meta": item.meta,
        }
        try:
            lines.append(json.dumps(rec) + "\n")
        except (TypeError, ValueError) as exc:
            # only meta can hold what JSON cannot encode
            raise ValueError(f"item {k}: meta: {exc}") from exc
    with open(path, "w") as fh:
        fh.writelines(lines)


def _checked_stack(path, buf: np.ndarray, line_nos: list) -> np.ndarray:
    """The (N, d, d) complex stack of the N matrices read so far, if all of
    them are density matrices; else the error for the first that is not."""
    stack = buf[: len(line_nos)].view(complex)[..., 0]
    fault = density_fault(stack)
    if fault is not None:
        raise ValueError(f"{path}: line {line_nos[fault[0]]}: {fault[1]}")
    return stack


def read_dataset(path) -> list:
    """Read a JSONL dataset, checking the states of the file as one stack.

    Each line (ended by a newline) is decoded as UTF-8 and parsed on its
    own, and must be a JSON object (the record), whose fields are checked
    by type: n must be
    a positive JSON integer, label a finite JSON number (not a bool), matrix
    2**n rows of 2**n [re, im] pairs of JSON numbers, with the first
    record's n.  meta must be a JSON object whose META_KEYS are finite JSON
    numbers, the same keys in every record.  The matrices go straight into
    one (N, d, d) stack, which `density_fault` checks once for the whole
    file.  Errors read `path: line N: reason`, `field: reason` for a
    malformed field, and name the first bad line, a state that fails the
    stack check included.
    """
    labels, metas, line_nos = [], [], []
    first = None  # the first record's n and histogram keys
    buf = np.empty((0, 1, 1, 2))  # re/im parts of the matrices read so far, then spare rows
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode().strip()  # UTF-8, so a bad byte names its line
                if not line:
                    continue
                rec = json_object(json.loads(line), "record")
                n = json_int(rec["n"], "n")
                label = json_number(rec["label"], "label")
                # a JSON bool is spelled true or false, so no other line holds one
                m = _matrix_from_json(rec["matrix"], n, "true" in line or "false" in line)
                meta = rec.get("meta", {})
                first = _check_record(n, label, meta, first)
            except (KeyError, TypeError, ValueError) as exc:
                _checked_stack(path, buf, line_nos)
                # a KeyError is a missing n, label or matrix
                reason = f"{exc.args[0]}: missing" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}: line {line_no}: {reason}") from exc
            if not line_nos:
                buf = np.empty((64,) + m.shape)
            elif len(line_nos) == len(buf):
                buf = np.concatenate((buf, np.empty_like(buf)))
            buf[len(line_nos)] = m
            labels.append(label)
            metas.append(meta)
            line_nos.append(line_no)
    stack = _checked_stack(path, buf, line_nos)
    return [LabeledState(DensityMatrix.prechecked(m, first[0]), label, meta)
            for m, label, meta in zip(stack, labels, metas)]


# ---------------------------------------------------------------------------
# dataset generation: one (N, d, d) stack per split, drawn from the rng
# stream that one item at a time would draw, with the same arithmetic


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v over its norm.  The norms are np.linalg.norm's of one
    vector at a time: a norm along an axis sums in another order, and its
    last bits would differ from the single-state samplers'."""
    return v / np.array([np.linalg.norm(row) for row in v])[:, None]


def _purity_split(rng, size: int):
    """sample_bloch_ball states; labels and meta from their purities."""
    # each state draws its direction, then its radius: the draws interleave
    v, u = np.empty((size, 3)), np.empty(size)
    for k in range(size):
        v[k], u[k] = rng.normal(size=3), rng.uniform()
    stack = _bloch_matrices(np.cbrt(u)[:, None] * _unit_rows(v))
    p = np.trace(stack @ stack, axis1=1, axis2=2).real
    return stack, p >= PURITY_LABEL_THRESHOLD, [{"purity": x} for x in p.tolist()]


def _entropy_split(rng, size: int):
    """sample_haar_pure(2, rng) states; labels and meta from their entropies."""
    z = rng.normal(size=(size, 2, 4))  # each state's real, then imaginary parts
    psi = _unit_rows(z[:, 0] + 1j * z[:, 1])
    stack = psi[:, :, None] * psi.conj()[:, None, :]
    s = renyi2_entropy(stack)
    return stack, s >= ENTROPY_LABEL_THRESHOLD, [{"entropy": x} for x in s.tolist()]


def _band_split(rng, size: int):
    """Pure qubit states, labelled by the band |r3| >= BAND_EDGE."""
    r = _unit_rows(rng.normal(size=(size, 3)))
    r3 = r[:, 2]
    return _bloch_matrices(r), np.abs(r3) >= BAND_EDGE, [{"r3": x} for x in r3.tolist()]


def _double_band_split(rng, size: int):
    """Pure qubit states, labelled by the bands r3 >= BAND_EDGE and
    -BAND_EDGE <= r3 < 0."""
    r = _unit_rows(rng.normal(size=(size, 3)))
    r3 = r[:, 2]
    labels = (r3 >= BAND_EDGE) | ((-BAND_EDGE <= r3) & (r3 < 0.0))
    return _bloch_matrices(r), labels, [{"r3": x} for x in r3.tolist()]


def _psi_grid(count: int):
    """psi_t states on a uniform grid of lambda = 2 t^2 - 1 in (-1, 1)."""
    lam = -1.0 + 2.0 * np.arange(1, count + 1) / (count + 1)
    t = np.sqrt((1.0 + lam) / 2.0)
    stack = _psi_t_matrices(t)
    lam, t = lam.tolist(), t.tolist()
    return stack, lam, [{"lambda": a, "t": b} for a, b in zip(lam, t)]


_SPLIT_SAMPLERS = {
    "purity": _purity_split,
    "entropy": _entropy_split,
    "band": _band_split,
    "double-band": _double_band_split,
}


def _labeled_states(stack: np.ndarray, labels, metas) -> list:
    """LabeledStates of one split, its stack checked by one density_fault."""
    fault = density_fault(stack)
    if fault is not None:
        raise ValueError(f"state {fault[0]}: {fault[1]}")
    n = _int_log2(stack.shape[-1])
    return [LabeledState(DensityMatrix.prechecked(m, n), label, meta)
            for m, label, meta in zip(stack, np.asarray(labels, dtype=float).tolist(), metas)]


def generate_dataset(task: str, n_train: int, n_test: int, seed: int):
    """Sample (train, test) lists for one of the built-in tasks.

    Tasks: purity (Bloch-ball states, purity threshold), entropy (Haar
    two-qubit pure states, Renyi-2 threshold), band / double-band (pure
    qubit states, z-component bands) and psi-grid (uniform lambda grid in
    the open interval (-1, 1), label = lambda).  Labels can always be
    re-derived from the meta fields.  Both sizes must be at least 1.

    Each split is built as one (N, d, d) stack: its labels and meta are
    computed on the stack, and one density_fault call checks its states.
    Train, then test, draw from one rng seeded by seed, the same stream
    and arithmetic as sampling one item at a time with sample_bloch_ball
    or sample_haar_pure, so the written files do not depend on the stacking.
    """
    for name, size in (("train", n_train), ("test", n_test)):
        if size < 1:
            raise ValueError(f"{name} size must be at least 1, got {size}")
    if task == "psi-grid":
        return _labeled_states(*_psi_grid(n_train)), _labeled_states(*_psi_grid(n_test))
    if task not in _SPLIT_SAMPLERS:
        raise ValueError(f"unknown task {task!r}; choose from {DATASET_TASKS}")
    rng = np.random.default_rng(seed)
    train = _labeled_states(*_SPLIT_SAMPLERS[task](rng, n_train))
    test = _labeled_states(*_SPLIT_SAMPLERS[task](rng, n_test))
    return train, test
