"""Property tests of the batched transfer-tensor kernel against the
density-matrix simulation, of the restricted tensors against the evolution
formula, of the coefficient chain against the kernel, of complete
positivity and trace preservation of every layer, of the trainer's exact
gradient against finite differences and of its coefficient-path gradient
against the adjoint one, of bit-exact JSON round trips, and of the shared
swap permutation."""

import os
import tempfile
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
    model_from_json,
    model_to_json,
    readout_chain,
    run_model,
    rz_bloch,
)
from reupsim.linalg import (
    HermitianGenerator,
    exp_i_hermitian,
    partial_trace,
    pauli_word_basis,
    swap_permutation,
)
from reupsim.states import (
    DensityMatrix,
    LabeledState,
    PauliWord,
    pauli_coeffs,
    read_dataset,
    sample_haar_pure,
    write_dataset,
)
from reupsim.trainer import (
    TrainConfig,
    _batch_gradient,
    _coefficient_axes,
    _coefficient_path,
    _forward_states,
    _labels,
    _lam_ext,
    _loss_gradient,
    _loss_terms,
    gradient_fd,
    pack_params,
)


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
                                       layer_affine_map(model.layers[depth - 1], rho)[0],
                                       rtol=0, atol=1e-12)


# (coupling, n, i, alpha): the coupling applies sigma_i on the -1 eigenspace of W_alpha
RESTRICTED = (
    [(CouplingSpec.cnot(), 1, 1, 3)]
    + [(CouplingSpec.cu_ij(i, j), 1, i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    + [(CouplingSpec.cu_alpha(PauliWord.from_index(a, n)), n, 1, a)
       for n in (1, 2) for a in range(1, 4**n)]
)


@pytest.mark.parametrize("coupling, n, i, alpha", RESTRICTED)
def test_restricted_tensor_is_the_evolution_formula(coupling, n, i, alpha):
    # sigma_i is kept, the other two signal Paulis pick up W_alpha
    formula = np.zeros((3, 4, 4**n))
    for k in (1, 2, 3):
        formula[k - 1, k, 0 if k == i else alpha] = 1.0
    assert np.array_equal(layer_transfer_tensor(LayerSpec(0.0, coupling), n), formula)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models(), data=st.data())
def test_readout_polynomials_equal_affine_chain(model, data):
    n = model.n_qubits
    variables = data.draw(st.lists(st.integers(1, 4**n - 1), min_size=1, max_size=2, unique=True))
    # every layer raises each variable's degree by at most one: nothing is truncated
    c = readout_chain(model, variables, [len(model.layers) + 1] * len(variables))[:, 0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lam_ext = np.zeros((5, 4**n))
    lam_ext[:, 0] = 1.0
    lam_ext[:, variables] = rng.uniform(-1.0, 1.0, size=(5, len(variables)))
    r = affine_chain([layer_transfer_tensor(l, n) for l in model.layers], lam_ext,
                     initial_bloch(model.initial_signal))[1][-1]
    for row, lam in zip(r, lam_ext):
        value = c
        for x in lam[variables]:  # sum out the leading variable's powers
            value = np.tensordot(value, x ** np.arange(value.shape[1]), axes=(1, 0))
        np.testing.assert_allclose(value, [1.0, *row], rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models(), pure=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_layers_are_cptp(model, pure, seed):
    rho = random_state(model.n_qubits, pure, np.random.default_rng(seed))
    sig = pauli_word_basis(1)
    for layer in model.layers:
        m, d = layer_affine_map(layer, rho)
        # E(I) = I + d . sigma and E(sigma_j) = sum_i M_ij sigma_i
        images = [sig[0] + np.einsum("i,iab->ab", d, sig[1:]),
                  *np.einsum("ij,iab->jab", m, sig[1:])]
        choi = sum(np.kron(s.T, img) for s, img in zip(sig, images)) / 4
        assert np.linalg.eigvalsh(choi)[0] >= -1e-12
        np.testing.assert_allclose(partial_trace(choi, 2, 2), np.eye(2) / 2,
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
    g = _batch_gradient(model, _lam_ext(batch, model.n_qubits), _labels(batch), cfg)
    np.testing.assert_allclose(g, gradient_fd(model, batch, cfg), rtol=0, atol=1e-6)


@st.composite
def restricted_models(draw):
    # one qubit: CNOT and CU_ij read lam_1 .. lam_3; two qubits: CU_alpha words
    n = draw(st.sampled_from((1, 2)))
    if n == 1:
        coupling = st.one_of(st.just(CouplingSpec.cnot()),
                             st.builds(CouplingSpec.cu_ij, st.integers(1, 3), st.integers(1, 3)))
    else:
        coupling = st.builds(lambda a: CouplingSpec.cu_alpha(PauliWord.from_index(a, 2)),
                             st.integers(1, 15))
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    layers = [LayerSpec(draw(angles), draw(coupling)) for _ in range(draw(st.integers(1, 4)))]
    w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    return ReuploadModel(n, layers, w, draw(st.floats(-1.0, 1.0)),
                         draw(st.sampled_from(("plus", "zero"))))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=restricted_models(), pure=st.lists(st.booleans(), min_size=1, max_size=6),
       loss=st.sampled_from(("mse", "logistic")), seed=st.integers(0, 2**32 - 1))
def test_coefficient_gradient_equals_adjoint_gradient(model, pure, loss, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, len(pure)) if loss == "logistic" else rng.normal(size=len(pure))
    batch = [LabeledState(random_state(model.n_qubits, p, rng), float(y), {})
             for p, y in zip(pure, labels)]
    lam, y, cfg = _lam_ext(batch, model.n_qubits), _labels(batch), TrainConfig(loss=loss)
    point, batch_gradient = _coefficient_path(model, lam, y, cfg, *_coefficient_axes(model))
    p = pack_params(model)
    f, bloch, gradient = point(p)
    forward = _forward_states(model, lam)
    r = forward[2][-1]
    np.testing.assert_allclose(f, r @ model.readout_w + model.readout_b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bloch(), r, rtol=0, atol=1e-12)
    dldf = _loss_terms(f, y, cfg)[1]
    np.testing.assert_allclose(gradient(dldf), _loss_gradient(model, lam, forward, dldf),
                               rtol=0, atol=1e-12)
    idx = rng.permutation(len(batch))[: max(1, len(batch) // 2)]
    np.testing.assert_allclose(batch_gradient(p, idx), _batch_gradient(model, lam[idx], y[idx], cfg),
                               rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(model=models())
def test_model_json_round_trip_is_bit_exact(model):
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.sampled_from((1, 2)), pure=st.lists(st.booleans(), min_size=1, max_size=4),
       labels=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_dataset_round_trip_is_bit_exact(n, pure, labels, seed):
    rng = np.random.default_rng(seed)
    items = [LabeledState(random_state(n, p, rng), y, {"k": k})
             for k, (p, y) in enumerate(zip(pure, labels))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        write_dataset(path, items)
        back = read_dataset(path)
    assert len(back) == len(items)
    for a, b in zip(items, back):
        assert np.array_equal(a.state.matrix, b.state.matrix)
        assert a.state.n_qubits == b.state.n_qubits
        assert a.label == b.label and a.meta == b.meta


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


def _mixed_layers(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(6):
        theta = rng.uniform(-np.pi, np.pi)
        if k % 2:
            alpha = int(rng.integers(1, 4**n))
            layers.append(LayerSpec(theta, CouplingSpec.cu_alpha(PauliWord.from_index(alpha, n))))
        else:
            gen = HermitianGenerator(n + 1, rng.normal(scale=0.7, size=4 ** (n + 1) - 1))
            layers.append(LayerSpec(theta, CouplingSpec.general(gen)))
    return layers


def _general_tensor_by_einsum(layer: LayerSpec, n: int) -> np.ndarray:
    """A General layer's tensor one layer at a time, by the trace formula."""
    words = pauli_word_basis(n + 1)
    c = exp_i_hermitian(layer.coupling.generator)
    heis = c.conj().T @ words[4**n :: 4**n] @ c
    t = (np.einsum("iab,mba->im", heis, words).real / 2 ** (n + 1)).reshape(3, 4, 4**n)
    t[:, 1:] = np.einsum("ika,kj->ija", t[:, 1:], rz_bloch(layer.theta))
    return t


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_transfer_tensors_equal_the_per_layer_ones(n):
    layers = _mixed_layers(n, seed=5 + n)
    stack = layer_transfer_tensor(layers, n)
    assert stack.shape == (len(layers), 3, 4, 4**n)
    for layer, t in zip(layers, stack):
        single = layer_transfer_tensor(layer, n)
        assert single.shape == (3, 4, 4**n)
        if layer.coupling.variant == "General":
            np.testing.assert_allclose(t, single, rtol=0, atol=1e-14)
            np.testing.assert_allclose(t, _general_tensor_by_einsum(layer, n), rtol=0, atol=1e-14)
        else:
            assert np.array_equal(t, single)
