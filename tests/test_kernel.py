"""Property tests of the batched transfer-tensor kernel against the
density-matrix simulation, of complete positivity and trace preservation of
every layer, of the trainer's exact gradient against finite differences, and
of the shared swap permutation."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim.channel import (
    CouplingSpec,
    LayerSpec,
    ReuploadModel,
    affine_chain,
    initial_bloch,
    layer_affine_map,
    layer_transfer_tensor,
    run_model,
)
from reupsim.linalg import HermitianGenerator, partial_trace, pauli_word_basis, swap_permutation
from reupsim.states import DensityMatrix, LabeledState, PauliWord, pauli_coeffs, sample_haar_pure
from reupsim.trainer import TrainConfig, _labels, _lam_ext, _loss_gradient, gradient_fd


@st.composite
def couplings(draw, n_qubits: int):
    # CNOT_BtoA and CU_ij couple to a single environment qubit
    variants = ("CNOT_BtoA", "CU_ij", "CU_alpha", "General") if n_qubits == 1 else ("CU_alpha", "General")
    variant = draw(st.sampled_from(variants))
    if variant == "CNOT_BtoA":
        return CouplingSpec.cnot()
    if variant == "CU_ij":
        return CouplingSpec.cu_ij(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if variant == "CU_alpha":
        return CouplingSpec.cu_alpha(PauliWord.from_index(draw(st.integers(1, 4**n_qubits - 1)), n_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = 4 ** (n_qubits + 1) - 1
    return CouplingSpec.general(HermitianGenerator(n_qubits + 1, rng.normal(scale=0.7, size=m)))


@st.composite
def models(draw):
    n = draw(st.sampled_from((1, 2)))
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    layers = [LayerSpec(draw(angles), draw(couplings(n))) for _ in range(draw(st.integers(1, 4)))]
    w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    return ReuploadModel(n, layers, w, draw(st.floats(-1.0, 1.0)),
                         draw(st.sampled_from(("plus", "zero"))))


def random_state(n_qubits: int, pure: bool, rng) -> DensityMatrix:
    if pure:
        return sample_haar_pure(n_qubits, rng)
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, n_qubits)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models(), pure=st.lists(st.booleans(), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_affine_chain_equals_density_matrix_path(model, pure, seed):
    rng = np.random.default_rng(seed)
    inputs = [random_state(model.n_qubits, p, rng) for p in pure]
    lam_ext = np.array([np.concatenate(([1.0], pauli_coeffs(rho).lam)) for rho in inputs])
    tensors = [layer_transfer_tensor(layer, model.n_qubits) for layer in model.layers]
    maps, states = affine_chain(tensors, lam_ext, initial_bloch(model.initial_signal))
    assert len(maps) == len(model.layers) and len(states) == len(model.layers) + 1
    f = states[-1] @ model.readout_w + model.readout_b
    for k, rho in enumerate(inputs):
        assert abs(f[k] - run_model(model, rho)[1]) <= 1e-10
        # the state after each layer is the oracle's for the truncated stack
        for depth in range(1, len(model.layers) + 1):
            head = ReuploadModel(model.n_qubits, model.layers[:depth], model.readout_w,
                                 model.readout_b, model.initial_signal)
            np.testing.assert_allclose(states[depth][k], run_model(head, rho)[0],
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(maps[depth - 1][k],
                                       layer_affine_map(model.layers[depth - 1], rho).m,
                                       rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models(), pure=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_layers_are_cptp(model, pure, seed):
    rho = random_state(model.n_qubits, pure, np.random.default_rng(seed))
    sig = pauli_word_basis(1)
    for layer in model.layers:
        e = layer_affine_map(layer, rho)
        # E(I) = I + d . sigma and E(sigma_j) = sum_i M_ij sigma_i
        images = [sig[0] + np.einsum("i,iab->ab", e.d, sig[1:]),
                  *np.einsum("ij,iab->jab", e.m, sig[1:])]
        choi = sum(np.kron(s.T, img) for s, img in zip(sig, images)) / 4
        assert np.linalg.eigvalsh(choi)[0] >= -1e-12
        np.testing.assert_allclose(partial_trace(choi, 2, 2, keep="A"), np.eye(2) / 2,
                                   rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models(), pure=st.lists(st.booleans(), min_size=1, max_size=4),
       loss=st.sampled_from(("mse", "logistic")), seed=st.integers(0, 2**32 - 1))
def test_loss_gradient_equals_finite_differences(model, pure, loss, seed):
    rng = np.random.default_rng(seed)
    # logistic labels are classes, mse labels any target value
    labels = rng.integers(0, 2, len(pure)) if loss == "logistic" else rng.normal(size=len(pure))
    batch = [LabeledState(random_state(model.n_qubits, p, rng), float(y), {})
             for p, y in zip(pure, labels)]
    cfg = TrainConfig(loss=loss)
    _, g = _loss_gradient(model, _lam_ext(batch, model.n_qubits), _labels(batch), cfg)
    np.testing.assert_allclose(g, gradient_fd(model, batch, cfg), rtol=0, atol=1e-6)


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 1), (4, 1)])
def test_swap_permutation_exchanges_first_factors(dim_a, dim_b):
    rng = np.random.default_rng(dim_a + 7 * dim_b)

    def rand(d):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    a1, a2, b1, b2 = rand(dim_a), rand(dim_a), rand(dim_b), rand(dim_b)
    s = swap_permutation(dim_a, dim_b)
    np.testing.assert_allclose(s @ reduce(np.kron, [a1, b1, a2, b2]) @ s,
                               reduce(np.kron, [a2, b1, a1, b2]), rtol=0, atol=1e-14)
    assert not s.flags.writeable
