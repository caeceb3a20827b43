import json

import numpy as np
import pytest

from reupsim.linalg import (
    PAULIS,
    HermitianGenerator,
    haar_unitary,
    kron,
    partial_trace,
    unitary_to_generator,
)
from reupsim.states import (
    DensityMatrix,
    PauliCoeffs,
    PauliWord,
    bloch_vector,
    density_from_bloch,
    pauli_coeffs,
    psi_t,
    sample_bloch_ball,
    sample_haar_pure,
)
from reupsim.channel import (
    CouplingSpec,
    LayerSpec,
    ReuploadModel,
    _hadamard_frame,
    apply_layer,
    build_coupling,
    hadamard_test,
    layer_affine_map,
    layer_transfer_tensor,
    layer_unitary,
    model_from_json,
    model_to_json,
    run_model,
    rz_bloch,
)

CNOT_SIGNAL_TARGET = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def random_general_layer(rng, n_env=1, theta=0.0):
    m = 4 ** (n_env + 1) - 1
    gen = HermitianGenerator(n_env + 1, rng.normal(scale=0.5, size=m))
    return LayerSpec(theta, CouplingSpec.general(gen))


def test_build_coupling_cnot_matrix():
    u = build_coupling(CouplingSpec.cnot(), 1)
    assert np.max(np.abs(u - CNOT_SIGNAL_TARGET)) < 1e-14


def test_cu_ij_13_equals_cnot():
    u = build_coupling(CouplingSpec.cu_ij(1, 3), 1)
    assert np.array_equal(u, build_coupling(CouplingSpec.cnot(), 1))


def test_cu_alpha_z_equals_cnot():
    u = build_coupling(CouplingSpec.cu_alpha(PauliWord((3,))), 1)
    assert np.max(np.abs(u - CNOT_SIGNAL_TARGET)) < 1e-14


def test_general_zero_generator_is_identity():
    gen = HermitianGenerator(2, np.zeros(15))
    u = build_coupling(CouplingSpec.general(gen), 1)
    assert np.max(np.abs(u - np.eye(4))) < 1e-12


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingSpec.cu_ij(0, 3)
    with pytest.raises(ValueError):
        CouplingSpec.cu_alpha(PauliWord((0, 0)))
    with pytest.raises(ValueError):
        build_coupling(CouplingSpec.cnot(), 2)


def test_layer_is_cptp():
    rng = np.random.default_rng(0)
    layer = random_general_layer(rng, n_env=2, theta=0.4)
    rho = sample_haar_pure(2, rng)
    tau = sample_bloch_ball(rng)
    out = apply_layer(tau, rho, layer)  # constructor revalidates the state
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


def test_cnot_layer_bloch_action():
    # diag(1, lam, lam) after the z-rotation, no offset
    theta = 0.6
    layer = LayerSpec(theta, CouplingSpec.cnot())
    for t in (0.3, 0.62, 0.9):
        rho = psi_t(t)
        lam = 2 * t * t - 1
        m, d = layer_affine_map(layer, rho)
        expected = np.diag([1.0, lam, lam]) @ rz_bloch(theta)
        assert np.max(np.abs(m - expected)) < 1e-10
        assert np.max(np.abs(d)) < 1e-10


def test_cu_alpha_evolution_formula():
    # x is held fixed, y and z are scaled by the input's word coefficient
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        alpha = int(rng.integers(1, 4**n))
        word = PauliWord.from_index(alpha, n)
        theta = float(rng.uniform(-np.pi, np.pi))
        layer = LayerSpec(theta, CouplingSpec.cu_alpha(word))
        rho = sample_haar_pure(n, rng)
        lam = pauli_coeffs(rho).lam[alpha - 1]
        tau = sample_bloch_ball(rng)
        rt = rz_bloch(theta) @ bloch_vector(tau)
        out = bloch_vector(apply_layer(tau, rho, layer))
        assert np.max(np.abs(out - [rt[0], lam * rt[1], lam * rt[2]])) < 1e-10


def test_cu_ij_fixes_component_i():
    rng = np.random.default_rng(2)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            layer = LayerSpec(0.0, CouplingSpec.cu_ij(i, j))
            rho = sample_bloch_ball(rng)
            lam = bloch_vector(rho)[j - 1]
            tau = sample_bloch_ball(rng)
            r = bloch_vector(tau)
            expected = np.array([lam * x for x in r])
            expected[i - 1] = r[i - 1]
            out = bloch_vector(apply_layer(tau, rho, layer))
            assert np.max(np.abs(out - expected)) < 1e-10


def test_affine_map_matches_channel():
    rng = np.random.default_rng(3)
    layer = random_general_layer(rng, n_env=1, theta=0.8)
    rho = sample_haar_pure(1, rng)
    m, d = layer_affine_map(layer, rho)
    for _ in range(20):
        tau = sample_bloch_ball(rng)
        direct = bloch_vector(apply_layer(tau, rho, layer))
        assert np.max(np.abs(m @ bloch_vector(tau) + d - direct)) < 1e-10


def test_affine_map_special_cases():
    rng = np.random.default_rng(4)
    rho = sample_bloch_ball(rng)
    # identity coupling: Bloch map is exactly the z-rotation
    gen = HermitianGenerator(2, np.zeros(15))
    m, d = layer_affine_map(LayerSpec(0.0, CouplingSpec.general(gen)), rho)
    assert np.max(np.abs(m - np.eye(3))) < 1e-12
    assert np.max(np.abs(d)) < 1e-12
    # swap coupling: output is the uploaded state regardless of the signal
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    m, d = layer_affine_map(LayerSpec(0.0, CouplingSpec.general(unitary_to_generator(swap))), rho)
    assert np.max(np.abs(m)) < 1e-10
    assert np.max(np.abs(d - bloch_vector(rho))) < 1e-10


def test_layer_composition():
    rng = np.random.default_rng(5)
    l1 = random_general_layer(rng, theta=0.3)
    l2 = random_general_layer(rng, theta=-1.1)
    rho = sample_haar_pure(1, rng)
    (m1, d1), (m2, d2) = layer_affine_map(l1, rho), layer_affine_map(l2, rho)
    tau = sample_bloch_ball(rng)
    direct = bloch_vector(apply_layer(apply_layer(tau, rho, l1), rho, l2))
    assert np.max(np.abs(m2 @ (m1 @ bloch_vector(tau) + d1) + d2 - direct)) < 1e-10


def test_transfer_tensor_contraction():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        layer = random_general_layer(rng, n_env=n, theta=0.5)
        t = layer_transfer_tensor(layer, n)
        assert t.shape == (3, 4, 4**n)
        rho = sample_haar_pure(n, rng)
        tau = sample_bloch_ball(rng)
        lam_ext = np.concatenate(([1.0], pauli_coeffs(rho).lam))
        r_ext = np.concatenate(([1.0], bloch_vector(tau)))
        out = np.einsum("ija,j,a->i", t, r_ext, lam_ext)
        assert np.max(np.abs(out - bloch_vector(apply_layer(tau, rho, layer)))) < 1e-10


def test_run_model_one_hot_angle():
    # single active angle at layer l reads out as lam^(L+1-l) sin(theta)
    L, act, theta = 3, 2, 0.9
    layers = [LayerSpec(theta if k == act else 0.0, CouplingSpec.cnot()) for k in range(1, L + 1)]
    model = ReuploadModel(1, layers, np.array([0.0, 1.0, 0.0]), 0.0)
    for t in (0.35, 0.6, 0.85):
        lam = 2 * t * t - 1
        _, f = run_model(model, psi_t(t))
        assert abs(f - lam ** (L + 1 - act) * np.sin(theta)) < 1e-10


def test_run_model_zero_readout_returns_bias():
    layers = [LayerSpec(0.7, CouplingSpec.cnot())]
    model = ReuploadModel(1, layers, np.zeros(3), -1.25)
    _, f = run_model(model, psi_t(0.5))
    assert f == -1.25


def test_run_model_two_layer_trajectory():
    # product of two fixed-axis moves: (1,0,0) -> (0.5, a, a) -> scale 0.7
    # -> quarter turn about x -> scale 0.5, with a = sqrt(0.375)
    a = np.sqrt(0.375)
    rho = density_from_bloch([0.7, 0.5, 0.3])

    def rot_unitary(axis, angle):
        axis = np.asarray(axis, float) / np.linalg.norm(axis)
        gen = axis[0] * PAULIS[1] + axis[1] * PAULIS[2] + axis[2] * PAULIS[3]
        vals, vecs = np.linalg.eigh(-(angle / 2) * gen)
        return (vecs * np.exp(1j * vals)) @ vecs.conj().T

    u1 = build_coupling(CouplingSpec.cu_ij(1, 1), 1) @ kron(rot_unitary([0, -1, 1], np.pi / 3), np.eye(2))
    u2 = build_coupling(CouplingSpec.cu_ij(1, 2), 1) @ kron(rot_unitary([1, 0, 0], np.pi / 2), np.eye(2))
    layers = [
        LayerSpec(0.0, CouplingSpec.general(unitary_to_generator(u1))),
        LayerSpec(0.0, CouplingSpec.general(unitary_to_generator(u2))),
    ]
    model = ReuploadModel(1, layers, np.zeros(3), 0.0, initial_signal="plus")
    r, _ = run_model(model, rho)
    assert np.max(np.abs(r - [0.5, -0.35 * a, 0.35 * a])) < 1e-10


def test_readout_scaling_law():
    rng = np.random.default_rng(7)
    word = PauliWord((1, 2))
    layers = [
        LayerSpec(0.4, CouplingSpec.cu_alpha(word)),
        LayerSpec(-0.9, CouplingSpec.cu_alpha(word)),
    ]
    w, b, c = rng.normal(size=3), 0.37, -1.7
    rho = sample_haar_pure(2, rng)
    _, f = run_model(ReuploadModel(2, layers, w, b), rho)
    _, g = run_model(ReuploadModel(2, layers, c * w, c * b), rho)
    assert g == pytest.approx(c * f, abs=1e-14)


def test_deferred_measurement_equivalence():
    # two tracing layers equal one pure 3-qubit circuit traced at the end
    rng = np.random.default_rng(8)
    l1 = random_general_layer(rng, theta=0.25)
    l2 = random_general_layer(rng, theta=-0.6)
    rho = sample_haar_pure(1, rng)
    tau0 = DensityMatrix(np.diag([1.0, 0.0]))
    seq = apply_layer(apply_layer(tau0, rho, l1), rho, l2)

    u1, u2 = layer_unitary(l1, 1), layer_unitary(l2, 1)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    p12 = kron(np.eye(2), swap)
    m1 = kron(u1, np.eye(2))
    m2 = p12 @ kron(u2, np.eye(2)) @ p12
    joint = kron(kron(tau0.matrix, rho.matrix), rho.matrix)
    out = m2 @ m1 @ joint @ m1.conj().T @ m2.conj().T
    direct = partial_trace(out, 2, 4)
    assert np.max(np.abs(direct - seq.matrix)) < 1e-10


def test_hadamard_test_real_and_imag():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        rho = sample_haar_pure(n, rng)
        u = haar_unitary(2**n, rng)
        val = np.trace(rho.matrix @ u)
        assert abs(hadamard_test(rho, u) - val.real) < 1e-10
        assert abs(hadamard_test(rho, u, imag=True) - val.imag) < 1e-10


@pytest.mark.parametrize("imag", [False, True])
def test_hadamard_frame_is_read_only(imag):
    for m in _hadamard_frame(4, imag):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0


def test_hadamard_test_rejects_non_unitary():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        hadamard_test(rho, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_model_json_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    layers = [
        LayerSpec(0.123456789123456789, CouplingSpec.cnot()),
        LayerSpec(-np.pi / 7, CouplingSpec.cu_ij(2, 3)),
        LayerSpec(1e-13, CouplingSpec.cu_alpha(PauliWord((2,)))),
        random_general_layer(rng, theta=0.77),
    ]
    model = ReuploadModel(1, layers, rng.normal(size=3), float(rng.normal()), "zero")
    text = model_to_json(model)
    back = model_from_json(text)
    assert model_to_json(back) == text
    assert back.n_qubits == model.n_qubits
    assert back.initial_signal == model.initial_signal
    assert np.array_equal(back.readout_w, model.readout_w)
    assert back.readout_b == model.readout_b
    for la, lb in zip(model.layers, back.layers):
        assert la.theta == lb.theta
        assert la.coupling.variant == lb.coupling.variant
    gen_a = model.layers[3].coupling.generator.coeffs
    gen_b = back.layers[3].coupling.generator.coeffs
    assert np.array_equal(gen_a, gen_b)


def test_model_json_rejects_unknown_variant_by_name():
    rec = json.loads(model_to_json(ReuploadModel(1, [LayerSpec(0.1, CouplingSpec.cnot())],
                                                 np.zeros(3), 0.0)))
    rec["layers"][0]["coupling"] = {"variant": "CZ"}
    with pytest.raises(ValueError, match="'CZ'"):
        model_from_json(json.dumps(rec))


# one field of a valid model record replaced by a value of the wrong JSON type
MISTYPED_MODEL_FIELDS = [
    ("n", lambda rec: rec.update(n=1.7)),
    ("theta", lambda rec: rec["layers"][0].update(theta=True)),
    ("i", lambda rec: rec["layers"][0]["coupling"].update(i=1.9)),
    ("j", lambda rec: rec["layers"][0]["coupling"].update(j="2")),
    ("b", lambda rec: rec.update(b="0.5")),
]


def test_model_json_rejects_mistyped_fields_by_name():
    text = model_to_json(ReuploadModel(1, [LayerSpec(0.1, CouplingSpec.cu_ij(1, 2))],
                                       np.zeros(3), 0.0))
    for field, edit in MISTYPED_MODEL_FIELDS:
        rec = json.loads(text)
        edit(rec)
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            model_from_json(json.dumps(rec))


@pytest.mark.parametrize("field, edit", [
    ("theta", lambda rec: rec["layers"][0].update(theta=10**400)),
    ("w", lambda rec: rec["w"].__setitem__(1, 10**400)),
    ("b", lambda rec: rec.update(b=10**400)),
    ("coeffs", lambda rec: rec["layers"][0].update(
        coupling={"variant": "General", "n_qubits": 2, "coeffs": [10**400] + [0.0] * 14})),
], ids=["theta", "w", "b", "coeffs"])
def test_model_json_names_an_integer_too_large_for_a_float(field, edit):
    rec = json.loads(model_to_json(ReuploadModel(1, [LayerSpec(0.1, CouplingSpec.cu_ij(1, 2))],
                                                 np.zeros(3), 0.0)))
    edit(rec)
    with pytest.raises(ValueError, match=rf"^{field} must fit a float, got an integer of "
                                         rf"{(10**400).bit_length()} bits$"):
        model_from_json(json.dumps(rec))


# one field of a valid model record removed or replaced by another JSON shape
MALFORMED_MODELS = [
    (r"b: missing", lambda rec: rec.pop("b")),
    (r"theta: missing", lambda rec: rec["layers"][0].pop("theta")),
    (r"variant: missing", lambda rec: rec["layers"][0]["coupling"].pop("variant")),
    (r'layers: expected a JSON list, got "x"', lambda rec: rec.update(layers="x")),
    (r"w: expected a JSON list, got 0.5", lambda rec: rec.update(w=0.5)),
    (r"layer: expected a JSON object, got 3", lambda rec: rec.update(layers=[3])),
    (r"coupling: expected a JSON object, got \[\]", lambda rec: rec["layers"][0].update(coupling=[])),
    (r"word: expected a JSON list, got 3", lambda rec: rec["layers"][0].update(
        coupling={"variant": "CU_alpha", "word": 3})),
]


@pytest.mark.parametrize("reason,edit", MALFORMED_MODELS,
                         ids=[r.split(":")[0] for r, _ in MALFORMED_MODELS])
def test_model_json_names_a_missing_or_misshapen_field(reason, edit):
    rec = json.loads(model_to_json(ReuploadModel(1, [LayerSpec(0.1, CouplingSpec.cu_ij(1, 2))],
                                                 np.zeros(3), 0.0)))
    edit(rec)
    with pytest.raises(ValueError, match=f"^{reason}$"):
        model_from_json(json.dumps(rec))


def test_model_json_rejects_a_record_that_is_not_an_object():
    with pytest.raises(ValueError, match=r"^model: expected a JSON object, got \[1, 2\]$"):
        model_from_json("[1, 2]")


def _cnot_model(theta=0.0, w=(1.0, 0.0, 0.0), b=0.0) -> ReuploadModel:
    return ReuploadModel(1, [LayerSpec(theta, CouplingSpec.cnot())], np.array(w), b)


NON_FINITE_INPUTS = {
    "density-matrix": lambda x: DensityMatrix(np.full((2, 2), x, dtype=complex)),
    "pauli-coeffs": lambda x: PauliCoeffs(1, np.full(3, x)),
    "generator": lambda x: HermitianGenerator(2, np.full(15, x)),
    "readout-w": lambda x: _cnot_model(w=(x, 0.0, 0.0)),
    "readout-b": lambda x: _cnot_model(b=x),
    "theta": lambda x: _cnot_model(theta=x),
}


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_constructors_reject_non_finite(make, x):
    with pytest.raises(ValueError, match="finite"):
        make(x)
