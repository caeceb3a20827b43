"""Numerical certificates for the channel algebra.

Cross-checks that are cheap to run but would be tedious by hand: the
single-layer evolution formula, the swap-test purity circuit, and the
correlation-matrix argument showing that a two-upload circuit measuring a
single-qubit observable cannot compute purity (every reachable effective
observable has a singular 3x3 correlation matrix, while any purity
observable has determinant >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    exp_i_hermitian, haar_unitary, is_hermitian, is_unitary, kron, pauli_word_basis,
    swap_permutation,
)
from .states import DensityMatrix, PauliWord, bloch_vector, purity, sample_bloch_ball
from .channel import CouplingSpec, LayerSpec, apply_layer, hadamard_test, rz_bloch

CORR_IMAG_ATOL = 1e-10
DECOMP_ATOL = 1e-10
KRAUS_ATOL = 1e-12

# pass threshold of each registered check on its worst trial
CHECK_TOLERANCES = {
    "evolution-formula": 1e-10,
    "observation1": 1e-9,
    "purity-observable": 1e-9,
    "ksigma": 1e-9,
    "swap-test": 1e-10,
}

_PAULI_PAIRS = pauli_word_basis(2).reshape(4, 4, 4, 4)[1:, 1:]  # [i-1, j-1]: sigma_i (x) sigma_j


@dataclass
class CorrMatrix:
    """Pauli-pair correlation profile of a two-qubit operator."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != (3, 3):
            raise ValueError("corr matrix must be 3x3")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))


@dataclass
class PurityObservableParams:
    """Free coefficients c1..c6 of the purity observable family."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (6,):
            raise ValueError("expected six coefficients")


def corr(m: np.ndarray) -> CorrMatrix:
    """corr(M)_ij = tr(M (sigma_i x sigma_j)) / 2, for 4x4 Hermitian M."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"corr needs a 4x4 matrix, got {m.shape}")
    out = 0.5 * np.einsum("ab,ijba->ij", m, _PAULI_PAIRS)
    if np.max(np.abs(out.imag)) > CORR_IMAG_ATOL:
        raise ValueError("corr entries are not real; input is not Hermitian")
    return CorrMatrix(out.real)


def _require_unitary(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4, got {m.shape}")
    if not is_unitary(m):
        raise ValueError(f"{name} is not unitary")
    return m


def swap_test_purity(rho: DensityMatrix, shots: int = 0, seed: int = 0) -> float:
    """Ancilla Z expectation of the swap test on two copies of rho.

    The circuit H - controlled-SWAP - H leaves <Z> on the ancilla equal to
    tr(rho^2); shots > 0 replaces the exact value with a binomial estimate.
    """
    pair = DensityMatrix(kron(rho.matrix, rho.matrix))
    return hadamard_test(pair, swap_permutation(rho.dim), shots=shots, rng=np.random.default_rng(seed))


def observation1_certificate(u: np.ndarray, v: np.ndarray, o: np.ndarray):
    """Correlation matrix of the two-upload effective observable, and its det.

    The first upload through u is resolved into Kraus operators K_k acting
    on the uploaded state; the second upload through v then measures o on
    the signal.  The effective two-copy observable sum_k J_k^dag (o x I) J_k
    always has a singular correlation matrix, which is the obstruction to
    computing purity this way.  Returns (CorrMatrix, det).
    """
    u = _require_unitary(u, "u")
    v = _require_unitary(v, "v")
    o = np.asarray(o, dtype=complex)
    if o.shape != (2, 2):
        raise ValueError(f"o must be 2x2, got {o.shape}")
    if not is_hermitian(o, 1e-10):
        raise ValueError("o must be Hermitian")

    u4 = u.reshape(2, 2, 2, 2)
    kraus = [u4[:, k, 0, :] for k in (0, 1)]
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(2))) > KRAUS_ATOL:
        raise RuntimeError("Kraus operators of the first upload do not resolve the identity")

    otilde = kron(o, np.eye(2))
    effective = np.zeros((4, 4), dtype=complex)
    for k in kraus:
        j = v @ kron(k, np.eye(2))
        effective += j.conj().T @ otilde @ j
    t = corr(effective)

    # independent decomposition: t must factor through the first upload's
    # Pauli transfer and the conjugated observable
    q = v.conj().T @ otilde @ v
    c = corr(q)
    sig = pauli_word_basis(1)[1:]
    lam_sig = sum(k @ sig @ k.conj().T for k in kraus)
    ctilde = 0.5 * np.einsum("mab,iba->mi", sig, lam_sig).real
    if np.max(np.abs(t.entries - ctilde.T @ c.entries)) > DECOMP_ATOL:
        raise RuntimeError("correlation decomposition check failed")
    return t, t.det


def purity_observable(params: PurityObservableParams) -> np.ndarray:
    """The general two-copy observable with tr((rho x rho) O) = tr(rho^2)."""
    if not isinstance(params, PurityObservableParams):
        params = PurityObservableParams(np.asarray(params, dtype=float))
    c1, c2, c3, c4, c5, c6 = params.c

    def unit(a: int, b: int) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[a - 1, b - 1] = 1.0
        return m

    o = swap_permutation(2).astype(complex)
    o += c1 * 1j * (unit(2, 3) - unit(3, 2))
    o += c2 * (unit(2, 2) - unit(3, 3))
    o += (c3 + c4 * 1j) * (unit(1, 2) - unit(1, 3))
    o += (c3 - c4 * 1j) * (unit(2, 1) - unit(3, 1))
    o += (c5 + c6 * 1j) * (unit(2, 4) - unit(3, 4))
    o += (c5 - c6 * 1j) * (unit(4, 2) - unit(4, 3))
    return o


@lru_cache(maxsize=1)
def _purity_probes():
    """Two-copy states rho (x) rho and purities of 50 fixed Bloch-ball states."""
    rng = np.random.default_rng(714)
    probes = [sample_bloch_ball(rng) for _ in range(50)]
    two_copy = np.array([kron(rho.matrix, rho.matrix) for rho in probes])
    purities = np.array([purity(rho) for rho in probes])
    two_copy.flags.writeable = False
    purities.flags.writeable = False
    return two_copy, purities


def purity_observable_det(params: PurityObservableParams) -> float:
    """det(corr(O)) for the purity observable family; always >= 1.

    Also re-derives tr((rho x rho) O) = tr(rho^2) on 50 fixed sampled states
    as a guard against construction mistakes.
    """
    o = purity_observable(params)
    two_copy, purities = _purity_probes()
    got = np.trace(two_copy @ o, axis1=1, axis2=2).real
    if np.max(np.abs(got - purities)) > 1e-10:
        raise RuntimeError("observable family does not evaluate purity")
    return corr(o).det


def ksigma_corr(k, i: int) -> CorrMatrix:
    """corr of sigma_i x I conjugated by exp(i k . Sigma).

    Sigma stacks the three same-index Pauli pairs; the result is always a
    rank <= 2 rotation-like profile, hence singular, and so is any real
    linear combination over i.
    """
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError("k must be a real 3-vector")
    words = pauli_word_basis(2)  # sigma_a (x) sigma_a is word 5a, sigma_i (x) I word 4i
    w = exp_i_hermitian(np.einsum("a,aij->ij", k, words[5::5]))
    return corr(w.conj().T @ words[4 * i] @ w)


# ---------------------------------------------------------------------------
# check registry

def _random_density(n_qubits: int, rng) -> DensityMatrix:
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, n_qubits)


def _random_hermitian2(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2


def _report(name: str, trials: int, worst: float) -> dict:
    return {"check_name": name, "trials": trials, "max_violation": float(worst),
            "pass": bool(worst <= CHECK_TOLERANCES[name])}


def evolution_formula_check(trials: int = 200, seed: int = 0) -> dict:
    """Single layer with a Pauli-word coupling: the rotated signal keeps its
    x component and has y, z scaled by the uploaded state's coefficient.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 3))
        alpha = int(rng.integers(1, 4**n))
        theta = float(rng.uniform(-np.pi, np.pi))
        rho = _random_density(n, rng)
        tau = sample_bloch_ball(rng)
        word = PauliWord.from_index(alpha, n)
        layer = LayerSpec(theta, CouplingSpec.cu_alpha(word))
        out = bloch_vector(apply_layer(tau, rho, layer))
        lam = float(np.trace(rho.matrix @ pauli_word_basis(n)[word.index]).real)
        tilted = rz_bloch(theta) @ bloch_vector(tau)
        want = np.array([tilted[0], lam * tilted[1], lam * tilted[2]])
        worst = max(worst, float(np.max(np.abs(out - want))))
    return _report("evolution-formula", trials, worst)


def observation1_check(trials: int = 1000, seed: int = 0) -> dict:
    """Haar-random two-upload circuits: effective corr matrix always singular."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        o = _random_hermitian2(rng)
        _, det = observation1_certificate(u, v, o)
        worst = max(worst, abs(det))
    return _report("observation1", trials, worst)


def purity_observable_check(trials: int = 200, seed: int = 0) -> dict:
    """Every purity observable has det(corr) = 1 + c1^2 + (c3+c5)^2 + (c4+c6)^2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        c = rng.uniform(-2.0, 2.0, size=6)
        det = purity_observable_det(PurityObservableParams(c))
        closed = 1.0 + c[0] ** 2 + (c[2] + c[4]) ** 2 + (c[3] + c[5]) ** 2
        worst = max(worst, abs(det - closed))
        if det < 1.0 - 1e-10:
            worst = max(worst, 1.0 - det)
    return _report("purity-observable", trials, worst)


def ksigma_check(trials: int = 200, seed: int = 0) -> dict:
    """Random coefficients over the three conjugated-Pauli corr profiles
    always combine to a singular matrix.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = rng.uniform(-np.pi, np.pi, size=3)
        combo = sum(
            rng.uniform(-1.0, 1.0) * ksigma_corr(k, i).entries for i in (1, 2, 3)
        )
        worst = max(worst, abs(np.linalg.det(combo)))
    return _report("ksigma", trials, worst)


def swap_test_check(trials: int = 100, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 3))
        rho = _random_density(n, rng)
        worst = max(worst, abs(swap_test_purity(rho) - purity(rho)))
    return _report("swap-test", trials, worst)


CHECKS = {
    "evolution-formula": evolution_formula_check,
    "observation1": observation1_check,
    "purity-observable": purity_observable_check,
    "ksigma": ksigma_check,
    "swap-test": swap_test_check,
}


def run_check(name: str, trials: int = None, seed: int = 0) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    if trials is None:
        return CHECKS[name](seed=seed)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return CHECKS[name](trials=trials, seed=seed)
