import json

import numpy as np
import pytest

from reupsim.linalg import pauli_word_basis
from reupsim.states import (
    ENTROPY_LABEL_THRESHOLD,
    PURITY_LABEL_THRESHOLD,
    DensityMatrix,
    LabeledState,
    PauliWord,
    bloch_vector,
    density_from_bloch,
    generate_dataset,
    pauli_coeffs,
    psi_t,
    purity,
    read_dataset,
    renyi2_entropy,
    sample_bloch_ball,
    sample_haar_pure,
    write_dataset,
)

BELL = DensityMatrix(0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix(np.diag([0.25, 0.25, 0.25, 0.25]))
    assert rho.n_qubits == 2 and rho.dim == 4


def test_pauli_word_index_and_validation():
    w = PauliWord((1, 0, 3))
    assert w.index == 1 * 16 + 0 * 4 + 3
    assert PauliWord.from_index(w.index, 3) == w
    assert PauliWord((0, 0)).is_identity
    with pytest.raises(ValueError):
        PauliWord((4,))
    with pytest.raises(ValueError):
        PauliWord(())


def test_pauli_matrix_example():
    zz = pauli_word_basis(2)[PauliWord((3, 3)).index]
    assert np.array_equal(zz, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_pauli_coeffs_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = sample_haar_pure(2, rng)
        c = pauli_coeffs(rho)
        assert c.lam.shape == (15,)
        assert np.max(np.abs(c.lam)) <= 1 + 1e-12
        words = pauli_word_basis(2)
        back = (words[0] + np.einsum("a,aij->ij", c.lam, words[1:])) / 4
        assert np.max(np.abs(back - rho.matrix)) < 1e-10


def test_pauli_coeffs_known_state():
    # |0><0| has lam = (0, 0, 1)
    c = pauli_coeffs(DensityMatrix(np.diag([1.0, 0.0])))
    assert np.allclose(c.lam, [0.0, 0.0, 1.0], atol=1e-14)


def test_purity_range():
    assert abs(purity(BELL) - 1.0) < 1e-12
    assert abs(purity(DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-12


def test_renyi2_entropy_bell_state():
    assert abs(renyi2_entropy(BELL) - np.log(2.0)) < 1e-10


def test_renyi2_entropy_product_state_is_zero():
    rng = np.random.default_rng(1)
    a = sample_haar_pure(1, rng)
    b = sample_haar_pure(1, rng)
    rho = DensityMatrix(np.kron(a.matrix, b.matrix))
    assert abs(renyi2_entropy(rho)) < 1e-10


def test_renyi2_entropy_matches_reduced_purity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = sample_haar_pure(2, rng)
        m = rho.matrix.reshape(2, 2, 2, 2)
        rho_a = np.einsum("abcb->ac", m)
        assert abs(renyi2_entropy(rho) + np.log(np.trace(rho_a @ rho_a).real)) < 1e-10


def test_renyi2_entropy_rejects_mixed_and_wrong_size():
    with pytest.raises(ValueError):
        renyi2_entropy(DensityMatrix(np.eye(4) / 4))
    with pytest.raises(ValueError):
        renyi2_entropy(DensityMatrix(np.diag([1.0, 0.0])))


def test_sample_haar_pure_marginal_purity():
    # mean purity of the one-qubit marginal of a Haar two-qubit state is 0.8
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(10_000):
        rho = sample_haar_pure(2, rng)
        m = rho.matrix.reshape(2, 2, 2, 2)
        rho_a = np.einsum("abcb->ac", m)
        vals.append(np.trace(rho_a @ rho_a).real)
    assert abs(np.mean(vals) - 0.8) < 0.01


def test_sample_bloch_ball_balance_at_threshold():
    rng = np.random.default_rng(4)
    n = 20_000
    hits = sum(purity(sample_bloch_ball(rng)) >= PURITY_LABEL_THRESHOLD for _ in range(n))
    sigma = 0.5 / np.sqrt(n)
    assert abs(hits / n - 0.5) < 3 * sigma + 1e-9


def test_psi_t_bloch_vector():
    t = 0.8
    r = bloch_vector(psi_t(t))
    lam = 2 * t * t - 1
    assert np.allclose(r, [2 * t * np.sqrt(1 - t * t), 0.0, lam], atol=1e-12)
    for bad in (0.0, 1.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            psi_t(bad)


def test_density_from_bloch_roundtrip():
    r = np.array([0.3, -0.4, 0.5])
    assert np.allclose(bloch_vector(density_from_bloch(r)), r, atol=1e-12)


def test_dataset_jsonl_roundtrip(tmp_path):
    # one file per qubit count: read_dataset rejects a file that mixes them
    rng = np.random.default_rng(5)
    for data in (
        [LabeledState(sample_haar_pure(2, rng), 1.0, {"entropy": 0.25}),
         LabeledState(sample_haar_pure(2, rng), 0.0, {"entropy": 0.1})],
        [LabeledState(sample_bloch_ball(rng), 0.0, {"purity": 0.7}),
         LabeledState(sample_bloch_ball(rng), 1.0, {"purity": 0.9})],
    ):
        path = tmp_path / "data.jsonl"
        write_dataset(path, data)
        back = read_dataset(path)
        assert len(back) == 2
        for a, b in zip(data, back):
            assert a.state.n_qubits == b.state.n_qubits
            assert np.max(np.abs(a.state.matrix - b.state.matrix)) < 1e-15
            assert a.label == b.label
            assert a.meta == b.meta


GOOD_RECORD = ('{"n": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], '
               '[[0.0, 0.0], [0.0, 0.0]]], "label": 0.0, "meta": {}}')


def _two_qubit_record() -> str:
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    return json.dumps({"n": 2, "matrix": [[[x, 0.0] for x in row] for row in m.tolist()],
                       "label": 1.0, "meta": {}})


def test_read_dataset_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = GOOD_RECORD
    bad_lines = [
        "not json",
        '{"n": 1, "matrix": 5, "label": 0.0, "meta": {}}',
        good.replace('"label": 0.0', '"label": null'),
        good.replace('"meta": {}', '"meta": [1, 2]'),
        good.replace('"label": 0.0', '"label": NaN'),
        good.replace('"label": 0.0', '"label": Infinity'),
        good.replace('"n": 1', '"n": 1.7'),
        good.replace('"n": 1', '"n": true'),
        good.replace('"n": 1', '"n": "1"'),
        good.replace('"n": 1', '"n": 0'),
        good.replace('"label": 0.0', '"label": true'),
        good.replace('"label": 0.0', '"label": "0.5"'),
        good.replace('"meta": {}', '"meta": [["r3", 0.5]]'),
        good.replace('"meta": {}', '"meta": "r3"'),
        good.replace('"meta": {}', '"meta": {"r3": NaN}'),
        good.replace('"meta": {}', '"meta": {"purity": Infinity}'),
        good.replace('"meta": {}', '"meta": {"r3": "x"}'),
        good.replace('"meta": {}', '"meta": {"lambda": true}'),
        good.replace('"meta": {}', '"meta": {"entropy": 0.1}'),
    ]
    for bad in bad_lines:
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path)


def test_read_dataset_rejects_mixed_qubit_counts(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD + "\n" + _two_qubit_record() + "\n")
    with pytest.raises(ValueError, match=r"mixed\.jsonl: line 3: state has 2 qubits"):
        read_dataset(path)
    # a file of two-qubit states alone is fine
    path.write_text(_two_qubit_record() + "\n")
    assert read_dataset(path)[0].state.n_qubits == 2


@pytest.mark.parametrize("task", ["band", "psi-grid"])
def test_generate_dataset_rejects_empty_sizes(task):
    for sizes in ((0, 5), (5, 0), (-2, 5)):
        bad = min(sizes)
        with pytest.raises(ValueError, match=f"size must be at least 1, got {bad}"):
            generate_dataset(task, *sizes, seed=0)


def test_generate_dataset_labels_rederivable():
    train, test = generate_dataset("purity", 40, 10, seed=0)
    assert len(train) == 40 and len(test) == 10
    for item in train + test:
        assert item.label == float(item.meta["purity"] >= PURITY_LABEL_THRESHOLD)
        assert abs(purity(item.state) - item.meta["purity"]) < 1e-12

    train, _ = generate_dataset("entropy", 20, 5, seed=1)
    for item in train:
        assert item.state.n_qubits == 2
        assert item.label == float(item.meta["entropy"] >= ENTROPY_LABEL_THRESHOLD)

    train, _ = generate_dataset("band", 30, 5, seed=2)
    for item in train:
        assert item.label == float(abs(item.meta["r3"]) >= 0.5)
        assert abs(purity(item.state) - 1.0) < 1e-12

    train, _ = generate_dataset("double-band", 30, 5, seed=3)
    for item in train:
        r3 = item.meta["r3"]
        assert item.label == float(r3 >= 0.5 or -0.5 <= r3 < 0)


def test_generate_dataset_psi_grid():
    train, test = generate_dataset("psi-grid", 101, 101, seed=0)
    lams = np.array([s.meta["lambda"] for s in train])
    assert len(lams) == 101
    assert lams[0] > -1.0 and lams[-1] < 1.0
    assert np.allclose(np.diff(lams), lams[1] - lams[0], atol=1e-12)
    for item in train[:5]:
        assert item.label == item.meta["lambda"]
        r = bloch_vector(item.state)
        assert abs(r[2] - item.meta["lambda"]) < 1e-12


def test_generate_dataset_rejects_unknown_task():
    with pytest.raises(ValueError):
        generate_dataset("nonsense", 1, 1, seed=0)


def test_generate_dataset_deterministic():
    a, _ = generate_dataset("band", 5, 2, seed=42)
    b, _ = generate_dataset("band", 5, 2, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.state.matrix, y.state.matrix)
