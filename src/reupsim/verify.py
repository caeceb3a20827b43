"""Numerical certificates for the channel algebra.

Cross-checks that are cheap to run but would be tedious by hand: the
single-layer evolution formula, the swap-test purity circuit, and the
correlation-matrix argument showing that a two-upload circuit measuring a
single-qubit observable cannot compute purity (every reachable effective
observable has a singular 3x3 correlation matrix, while any purity
observable has determinant >= 1).

The certificate algebra runs on stacks of trials along a leading axis; the
single-instance functions are stacks of one.  A check that fails on a
stack raises and names the trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    exp_i_hermitian, haar_from_ginibre, is_hermitian, is_unitary, kron, pauli_word_basis,
    swap_permutation,
)
from .states import DensityMatrix, PauliWord, bloch_vector, purity, sample_bloch_ball
from .channel import CouplingSpec, LayerSpec, apply_layer, hadamard_test_unchecked, rz_bloch

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

# Trials per stack.  Larger stacks run no faster, and a whole 1,000-trial
# observation1 stack raises the process's peak memory by a few MB.
TRIAL_BLOCK = 125

_WORDS = pauli_word_basis(2)
_PAULI_PAIRS = _WORDS.reshape(4, 4, 4, 4)[1:, 1:]  # [i-1, j-1]: sigma_i (x) sigma_j
_SIGNAL_PAULIS = _WORDS[4::4]  # sigma_i (x) I, i = 1..3
_SAME_INDEX_PAIRS = _WORDS[5::5]  # sigma_a (x) sigma_a, a = 1..3
_SIGMA = pauli_word_basis(1)[1:]


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


def _require(holds, stack: np.ndarray, exc, message: str, first: int) -> None:
    """Raise exc(message) naming the first trial of stack that fails holds;
    the stack's trials are numbered from first."""
    if not holds(stack):
        k = next(k for k, item in enumerate(stack) if not holds(item))
        raise exc(f"trial {first + k}: {message}")


def _within(atol: float):
    return lambda x: bool(np.max(np.abs(x)) <= atol)


def _stack_of_one(m, shape: tuple, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {m.shape}")
    return m[None]


def _corr(m: np.ndarray, first: int = 0) -> np.ndarray:
    """Real corr entries (T, ..., 3, 3) of a (T, ..., 4, 4) stack."""
    out = 0.5 * np.einsum("...ab,ijba->...ij", m, _PAULI_PAIRS)
    _require(_within(CORR_IMAG_ATOL), out.imag, ValueError,
             "corr entries are not real; input is not Hermitian", first)
    return out.real


def corr(m: np.ndarray) -> CorrMatrix:
    """corr(M)_ij = tr(M (sigma_i x sigma_j)) / 2, for 4x4 Hermitian M."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"corr needs a 4x4 matrix, got {m.shape}")
    return CorrMatrix(_corr(m[None])[0])


def swap_test_purity(rho: DensityMatrix, shots: int = 0, seed: int = 0) -> float:
    """Ancilla Z expectation of the swap test on two copies of rho.

    The circuit H - controlled-SWAP - H leaves <Z> on the ancilla equal to
    tr(rho^2); shots > 0 replaces the exact value with a binomial estimate.
    rho is already validated, so its two copies and the swap are not checked
    again.
    """
    return hadamard_test_unchecked(kron(rho.matrix, rho.matrix), swap_permutation(rho.dim),
                                   shots=shots, rng=np.random.default_rng(seed))


def _o_x_i_sandwich(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """x^dag (o (x) I) x for stacks x (..., 4, 4) and o (..., 2, 2)."""
    x = x.reshape(*x.shape[:-2], 2, 2, 4)
    return np.einsum("...abm,...ac,...cbn->...mn", x.conj(), o, x)


def _observation1(u: np.ndarray, v: np.ndarray, o: np.ndarray, first: int = 0):
    """Correlation matrices (T, 3, 3) of the two-upload effective observable
    and their dets (T,), for stacks u, v (T, 4, 4) and o (T, 2, 2)."""
    _require(is_unitary, u, ValueError, "u is not unitary", first)
    _require(is_unitary, v, ValueError, "v is not unitary", first)
    _require(lambda m: is_hermitian(m, 1e-10), o, ValueError, "o must be Hermitian", first)

    # kraus[t, k] = <k|_copy u |0>_copy, acting on the uploaded state
    kraus = u.reshape(-1, 2, 2, 2, 2)[:, :, :, 0, :].swapaxes(1, 2)
    completeness = np.einsum("tkab,tkac->tbc", kraus.conj(), kraus)
    _require(_within(KRAUS_ATOL), completeness - np.eye(2), RuntimeError,
             "Kraus operators of the first upload do not resolve the identity", first)

    # J_k = v (K_k x I); the effective observable is sum_k J_k^dag (o x I) J_k
    j = np.einsum("tmad,tkac->tkmcd", v.reshape(-1, 4, 2, 2), kraus).reshape(-1, 2, 4, 4)
    t = _corr(_o_x_i_sandwich(j, o[:, None]).sum(axis=1), first)

    # independent decomposition: t must factor through the first upload's
    # Pauli transfer and the conjugated observable
    c = _corr(_o_x_i_sandwich(v, o), first)
    lam_sig = np.einsum("tkab,mbc,tkdc->tmad", kraus, _SIGMA, kraus.conj())
    ctilde = 0.5 * np.einsum("mab,tiba->tmi", _SIGMA, lam_sig).real
    _require(_within(DECOMP_ATOL), t - ctilde.swapaxes(-1, -2) @ c, RuntimeError,
             "correlation decomposition check failed", first)
    return t, np.linalg.det(t)


def observation1_certificate(u: np.ndarray, v: np.ndarray, o: np.ndarray):
    """Correlation matrix of the two-upload effective observable, and its det.

    The first upload through u is resolved into Kraus operators K_k acting
    on the uploaded state; the second upload through v then measures o on
    the signal.  The effective two-copy observable sum_k J_k^dag (o x I) J_k
    always has a singular correlation matrix, which is the obstruction to
    computing purity this way.  Returns (CorrMatrix, det).
    """
    t, det = _observation1(_stack_of_one(u, (4, 4), "u"), _stack_of_one(v, (4, 4), "v"),
                           _stack_of_one(o, (2, 2), "o"))
    return CorrMatrix(t[0]), float(det[0])


def _unit(a: int, b: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[a - 1, b - 1] = 1.0
    return m


# purity_observable is the swap plus sum_j c_j _PURITY_DIRECTIONS[j]
_PURITY_DIRECTIONS = np.array([
    1j * (_unit(2, 3) - _unit(3, 2)),
    _unit(2, 2) - _unit(3, 3),
    (_unit(1, 2) - _unit(1, 3)) + (_unit(2, 1) - _unit(3, 1)),
    1j * (_unit(1, 2) - _unit(1, 3)) - 1j * (_unit(2, 1) - _unit(3, 1)),
    (_unit(2, 4) - _unit(3, 4)) + (_unit(4, 2) - _unit(4, 3)),
    1j * (_unit(2, 4) - _unit(3, 4)) - 1j * (_unit(4, 2) - _unit(4, 3)),
])


def purity_observable(params) -> np.ndarray:
    """The general two-copy observable with tr((rho x rho) O) = tr(rho^2).

    A (T, 6) array of coefficients gives a (T, 4, 4) stack.
    """
    if isinstance(params, PurityObservableParams):
        c = params.c
    else:
        c = np.asarray(params, dtype=float)
        if c.shape[-1:] != (6,):
            raise ValueError("expected six coefficients")
    return swap_permutation(2) + np.einsum("...j,jab->...ab", c, _PURITY_DIRECTIONS)


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


def _purity_observable_dets(o: np.ndarray, first: int = 0) -> np.ndarray:
    """det(corr(O)) for a (T, 4, 4) stack of purity observables, after
    re-deriving tr((rho x rho) O) = tr(rho^2) on the probe states."""
    two_copy, purities = _purity_probes()
    got = np.einsum("pab,tba->tp", two_copy, o).real
    _require(_within(1e-10), got - purities, RuntimeError,
             "observable family does not evaluate purity", first)
    return np.linalg.det(_corr(o, first))


def purity_observable_det(params: PurityObservableParams) -> float:
    """det(corr(O)) for the purity observable family; always >= 1.

    Also re-derives tr((rho x rho) O) = tr(rho^2) on 50 fixed sampled states
    as a guard against construction mistakes.
    """
    return float(_purity_observable_dets(purity_observable(params)[None])[0])


def _ksigma_corrs(k: np.ndarray, first: int = 0) -> np.ndarray:
    """corr of sigma_i x I conjugated by exp(i k . Sigma), for i = 1..3 and a
    (T, 3) stack of k: (T, 3, 3, 3), one exp(i k . Sigma) per trial."""
    w = exp_i_hermitian(np.einsum("ta,aij->tij", k, _SAME_INDEX_PAIRS))
    return _corr(np.einsum("tba,ibc,tcd->tiad", w.conj(), _SIGNAL_PAULIS, w), first)


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
    return CorrMatrix(_ksigma_corrs(k[None])[0, i - 1])


# ---------------------------------------------------------------------------
# check registry

def _random_density(n_qubits: int, rng) -> DensityMatrix:
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, n_qubits)


def _report(name: str, violations) -> dict:
    """A check's report; worst_trial is the 0-based index of the trial with
    the largest violation, which --trials worst_trial + 1 replays last."""
    violations = np.asarray(violations, dtype=float)
    k = int(np.argmax(violations))
    worst = float(violations[k])
    return {"check_name": name, "trials": len(violations), "max_violation": worst,
            "worst_trial": k, "pass": bool(worst <= CHECK_TOLERANCES[name])}


def _blockwise(violations, trials: int) -> np.ndarray:
    """Per-trial violations of a stacked check: violations(n, first) draws
    and certifies the next n <= TRIAL_BLOCK trials from the check's one
    stream, first being the index of the block's first trial.  Trial k's
    inputs are the same whatever the block size or the number of trials."""
    return np.concatenate([violations(min(TRIAL_BLOCK, trials - first), first)
                           for first in range(0, trials, TRIAL_BLOCK)])


def evolution_formula_check(trials: int = 200, seed: int = 0) -> dict:
    """Single layer with a Pauli-word coupling: the rotated signal keeps its
    x component and has y, z scaled by the uploaded state's coefficient.
    """
    rng = np.random.default_rng(seed)
    violations = []
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
        violations.append(np.max(np.abs(out - want)))
    return _report("evolution-formula", violations)


def _observation1_draws(rng, n: int):
    """u, v (n, 4, 4) and o (n, 2, 2) from one (n, 72) normal draw, equal to
    what n trials of haar_unitary(4), haar_unitary(4) and the Hermitian part
    of a complex Ginibre 2x2 draw one by one, real parts first."""
    g = rng.normal(size=(n, 72))
    z = g[:, :64].reshape(n, 2, 2, 4, 4)  # [u or v, real or imaginary part]
    uv = haar_from_ginibre(z[:, :, 0] + 1j * z[:, :, 1])
    w = g[:, 64:].reshape(n, 2, 2, 2)
    o = w[:, 0] + 1j * w[:, 1]
    return uv[:, 0], uv[:, 1], (o + o.conj().swapaxes(-1, -2)) / 2


def observation1_check(trials: int = 1000, seed: int = 0) -> dict:
    """Haar-random two-upload circuits: effective corr matrix always singular."""
    rng = np.random.default_rng(seed)

    def violations(n, first):
        return np.abs(_observation1(*_observation1_draws(rng, n), first)[1])

    return _report("observation1", _blockwise(violations, trials))


def purity_observable_check(trials: int = 200, seed: int = 0) -> dict:
    """Every purity observable has det(corr) = 1 + c1^2 + (c3+c5)^2 + (c4+c6)^2."""
    rng = np.random.default_rng(seed)

    def violations(n, first):
        c = rng.uniform(-2.0, 2.0, size=(n, 6))
        det = _purity_observable_dets(purity_observable(c), first)
        closed = 1.0 + c[:, 0] ** 2 + (c[:, 2] + c[:, 4]) ** 2 + (c[:, 3] + c[:, 5]) ** 2
        gap = np.abs(det - closed)
        return np.where(det < 1.0 - 1e-10, np.maximum(gap, 1.0 - det), gap)

    return _report("purity-observable", _blockwise(violations, trials))


def _ksigma_draws(rng, n: int) -> np.ndarray:
    """(n, 6): per trial k uniform in [-pi, pi)^3, then three weights uniform
    in [-1, 1), scaled from one rng.random draw as rng.uniform scales them."""
    low = np.array([-np.pi] * 3 + [-1.0] * 3)
    high = -low
    return low + (high - low) * rng.random((n, 6))


def ksigma_check(trials: int = 200, seed: int = 0) -> dict:
    """Random coefficients over the three conjugated-Pauli corr profiles
    always combine to a singular matrix.
    """
    rng = np.random.default_rng(seed)

    def violations(n, first):
        x = _ksigma_draws(rng, n)
        combo = np.einsum("ti,tijk->tjk", x[:, 3:], _ksigma_corrs(x[:, :3], first))
        return np.abs(np.linalg.det(combo))

    return _report("ksigma", _blockwise(violations, trials))


def swap_test_check(trials: int = 100, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        n = int(rng.integers(1, 3))
        rho = _random_density(n, rng)
        violations.append(abs(swap_test_purity(rho) - purity(rho)))
    return _report("swap-test", violations)


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
