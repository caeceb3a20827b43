"""Numerical certificates for the channel algebra.

Cross-checks that are cheap to run but would be tedious by hand: the
single-layer evolution formula, the swap-test purity circuit, and the
correlation-matrix argument showing that a two-upload circuit measuring a
single-qubit observable cannot compute purity (every reachable effective
observable has a singular 3x3 correlation matrix, while any purity
observable has determinant >= 1).

Each certificate function takes one instance or a stack of trials along a
leading axis, and returns plain arrays of the matching shape.  A check that
fails raises and names the trial: a single instance is trial 0, and the
trials of a stack are numbered from its `first` argument.
"""

from __future__ import annotations

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


def _require(holds, x: np.ndarray, item_ndim: int, exc, message: str, first: int) -> None:
    """Raise exc(message) naming the first trial of x that fails holds.  x is
    one trial of item_ndim axes or a stack of them along a leading axis; the
    trials are numbered from first."""
    if not holds(x):
        stack = x if x.ndim > item_ndim else x[None]
        k = next(k for k, item in enumerate(stack) if not holds(item))
        raise exc(f"trial {first + k}: {message}")


def _within(atol: float):
    return lambda x: bool(np.max(np.abs(x)) <= atol)


def _all_finite(x) -> bool:
    return bool(np.isfinite(x).all())


def _matrices(m, shape: tuple, name: str, first: int) -> np.ndarray:
    """m as a complex array of one shape matrix or a (..., *shape) stack,
    every entry finite."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]} or a stack of them, got {m.shape}")
    _require(_all_finite, m, 2, ValueError, f"{name} is not finite", first)
    return m


def corr(m, first: int = 0) -> np.ndarray:
    """corr(M)_ij = tr(M (sigma_i x sigma_j)) / 2 of a 4x4 Hermitian M, or
    of each matrix of a (T, ..., 4, 4) stack: real (..., 3, 3)."""
    m = _matrices(m, (4, 4), "corr input", first)
    out = 0.5 * np.einsum("...ab,ijba->...ij", m, _PAULI_PAIRS)
    _require(_within(CORR_IMAG_ATOL), out.imag, 2, ValueError,
             "corr entries are not real; input is not Hermitian", first)
    return out.real


def swap_test_purity(rho: DensityMatrix) -> float:
    """Ancilla Z expectation of the swap test on two copies of rho.

    The circuit H - controlled-SWAP - H leaves <Z> on the ancilla equal to
    tr(rho^2).  rho is already validated, so its two copies and the swap are
    not checked again.
    """
    return hadamard_test_unchecked(kron(rho.matrix, rho.matrix), swap_permutation(rho.dim))


def _o_x_i_sandwich(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """x^dag (o (x) I) x for stacks x (..., 4, 4) and o (..., 2, 2)."""
    x = x.reshape(*x.shape[:-2], 2, 2, 4)
    return np.einsum("...abm,...ac,...cbn->...mn", x.conj(), o, x)


def observation1_certificate(u, v, o, first: int = 0):
    """Correlation matrix of the two-upload effective observable, and its det.

    The first upload through u is resolved into Kraus operators K_k acting
    on the uploaded state; the second upload through v then measures o on
    the signal.  The effective two-copy observable sum_k J_k^dag (o x I) J_k
    always has a singular correlation matrix, which is the obstruction to
    computing purity this way.  u, v are 4x4 and o 2x2, or (T, 4, 4) and
    (T, 2, 2) stacks; returns corr (..., 3, 3) and det (...).
    """
    u, v, o = (_matrices(u, (4, 4), "u", first), _matrices(v, (4, 4), "v", first),
               _matrices(o, (2, 2), "o", first))
    if not u.shape[:-2] == v.shape[:-2] == o.shape[:-2]:
        raise ValueError(f"u, v and o must be stacks of one length, got leading shapes "
                         f"{u.shape[:-2]}, {v.shape[:-2]} and {o.shape[:-2]}")
    _require(is_unitary, u, 2, ValueError, "u is not unitary", first)
    _require(is_unitary, v, 2, ValueError, "v is not unitary", first)
    _require(lambda m: is_hermitian(m, 1e-10), o, 2, ValueError, "o must be Hermitian", first)

    # kraus[..., k] = <k|_copy u |0>_copy, acting on the uploaded state
    kraus = u.reshape(*u.shape[:-2], 2, 2, 2, 2)[..., 0, :].swapaxes(-3, -2)
    completeness = np.einsum("...kab,...kac->...bc", kraus.conj(), kraus)
    _require(_within(KRAUS_ATOL), completeness - np.eye(2), 2, RuntimeError,
             "Kraus operators of the first upload do not resolve the identity", first)

    # J_k = v (K_k x I); the effective observable is sum_k J_k^dag (o x I) J_k
    j = np.einsum("...mad,...kac->...kmcd", v.reshape(*v.shape[:-2], 4, 2, 2), kraus)
    j = j.reshape(*j.shape[:-4], 2, 4, 4)
    t = corr(_o_x_i_sandwich(j, o[..., None, :, :]).sum(axis=-3), first)

    # independent decomposition: t must factor through the first upload's
    # Pauli transfer and the conjugated observable
    c = corr(_o_x_i_sandwich(v, o), first)
    lam_sig = np.einsum("...kab,mbc,...kdc->...mad", kraus, _SIGMA, kraus.conj())
    ctilde = 0.5 * np.einsum("mab,...iba->...mi", _SIGMA, lam_sig).real
    _require(_within(DECOMP_ATOL), t - ctilde.swapaxes(-1, -2) @ c, 2, RuntimeError,
             "correlation decomposition check failed", first)
    return t, np.linalg.det(t)


# purity_observable is the swap plus sum_j c_j _PURITY_DIRECTIONS[j]; each
# direction is x + x^dag, with s = |01> - |10> the antisymmetric two-copy state
_E = np.eye(4)
_S = _E[1] - _E[2]
_PURITY_DIRECTIONS = np.array([x + x.conj().T for x in (
    1j * np.outer(_E[1], _E[2]), np.diag(_S) / 2, np.outer(_E[0], _S),
    1j * np.outer(_E[0], _S), np.outer(_S, _E[3]), 1j * np.outer(_S, _E[3]),
)])


def purity_observable(params) -> np.ndarray:
    """The general two-copy observable with tr((rho x rho) O) = tr(rho^2),
    from its free coefficients c1..c6.

    A (T, 6) array of coefficients gives a (T, 4, 4) stack.
    """
    c = np.asarray(params, dtype=float)
    if c.shape[-1:] != (6,):
        raise ValueError("expected six coefficients")
    return swap_permutation(2) + np.einsum("...j,jab->...ab", c, _PURITY_DIRECTIONS)


@lru_cache(maxsize=1)
def _purity_probes():
    """Two-copy states rho (x) rho and purities of 50 fixed Bloch-ball states."""
    rng = np.random.default_rng(714)
    probes = [sample_bloch_ball(rng) for _ in range(50)]
    matrices = np.array([rho.matrix for rho in probes])
    two_copy = kron(matrices, matrices)
    purities = np.array([purity(rho) for rho in probes])
    two_copy.flags.writeable = False
    purities.flags.writeable = False
    return two_copy, purities


def purity_observable_det(params, first: int = 0) -> np.ndarray:
    """det(corr(O)) of the purity observable with coefficients params (6,),
    or of each row of a (T, 6) stack; always >= 1.

    Also re-derives tr((rho x rho) O) = tr(rho^2) on 50 fixed sampled states
    as a guard against construction mistakes.
    """
    c = np.asarray(params, dtype=float)
    o = purity_observable(c)
    _require(_all_finite, c, 1, ValueError, "coefficients are not finite", first)
    two_copy, purities = _purity_probes()
    got = np.einsum("pab,...ba->...p", two_copy, o).real
    _require(_within(1e-10), got - purities, 1, RuntimeError,
             "observable family does not evaluate purity", first)
    return np.linalg.det(corr(o, first))


def ksigma_corr(k, first: int = 0) -> np.ndarray:
    """corr of sigma_i x I conjugated by exp(i k . Sigma), for i = 1..3 at
    index i - 1: (3, 3, 3) for a real 3-vector k, (T, 3, 3, 3) for a (T, 3)
    stack, one exp(i k . Sigma) per trial.

    Sigma stacks the three same-index Pauli pairs; each profile is always a
    rank <= 2 rotation-like matrix, hence singular, and so is any real
    linear combination of the three.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (3,):
        raise ValueError(f"k must be a real 3-vector or a stack of them, got {k.shape}")
    _require(_all_finite, k, 1, ValueError, "k is not finite", first)
    w = exp_i_hermitian(np.einsum("...a,aij->...ij", k, _SAME_INDEX_PAIRS))
    profiles = np.einsum("...ba,ibc,...cd->...iad", w.conj(), _SIGNAL_PAULIS, w)
    # a single k's three profiles are one trial, not a stack of three
    return corr(profiles, first) if k.ndim > 1 else corr(profiles[None], first)[0]


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
        layer = LayerSpec(theta, CouplingSpec.cu_alpha(PauliWord.from_index(alpha, n)))
        out = bloch_vector(apply_layer(tau, rho, layer))
        lam = float(np.trace(rho.matrix @ pauli_word_basis(n)[alpha]).real)
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
        return np.abs(observation1_certificate(*_observation1_draws(rng, n), first)[1])

    return _report("observation1", _blockwise(violations, trials))


def purity_observable_check(trials: int = 200, seed: int = 0) -> dict:
    """Every purity observable has det(corr) = 1 + c1^2 + (c3+c5)^2 + (c4+c6)^2."""
    rng = np.random.default_rng(seed)

    def violations(n, first):
        c = rng.uniform(-2.0, 2.0, size=(n, 6))
        det = purity_observable_det(c, first)
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
        combo = np.einsum("ti,tijk->tjk", x[:, 3:], ksigma_corr(x[:, :3], first))
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
