import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim.linalg import PAULIS, partial_trace, pauli_word_basis, swap_permutation
from reupsim.states import (
    BAND_EDGE,
    DATASET_TASKS,
    ENTROPY_LABEL_THRESHOLD,
    PURITY_LABEL_THRESHOLD,
    DensityMatrix,
    LabeledState,
    PauliWord,
    bloch_ball_matrix,
    bloch_vector,
    density_fault,
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


def test_renyi2_entropy_of_a_stack_is_that_of_each_state():
    rng = np.random.default_rng(4)
    states = [sample_haar_pure(2, rng) for _ in range(6)]
    stacked = renyi2_entropy(np.array([rho.matrix for rho in states]))
    assert stacked.tolist() == [renyi2_entropy(rho) for rho in states]


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


def test_bloch_ball_matrix_is_the_sampled_state():
    # the same draws and arithmetic, so the same bytes and the same stream after
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        rho, m = sample_bloch_ball(a), bloch_ball_matrix(b)
        assert rho.matrix.tobytes() == m.tobytes()
        assert np.array_equal(bloch_vector(rho), bloch_vector(m))
    assert a.random() == b.random()
    with pytest.raises(ValueError, match="single-qubit"):
        bloch_vector(np.eye(4) / 4)


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
        good.replace('"n": 1', '"n": 1000000000000'),
        good.replace('"label": 0.0', '"label": true'),
        good.replace('"label": 0.0', '"label": "0.5"'),
        good.replace('"meta": {}', '"meta": [["r3", 0.5]]'),
        good.replace('"meta": {}', '"meta": "r3"'),
        good.replace('"meta": {}', '"meta": {"r3": NaN}'),
        good.replace('"meta": {}', '"meta": {"purity": Infinity}'),
        good.replace('"meta": {}', '"meta": {"r3": "x"}'),
        good.replace('"meta": {}', '"meta": {"lambda": true}'),
        good.replace('"meta": {}', '"meta": {"entropy": 0.1}'),
        '{"n": 1, "matrix": [[[true, false], [0, 0]], [[0, 0], [false, 0]]], '
        '"label": 0.0, "meta": {}}',
    ]
    for bad in bad_lines:
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path)


def test_read_dataset_names_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1, 2]\n" + GOOD_RECORD + "\n")
    with pytest.raises(ValueError, match=r"list\.jsonl: line 1: record: "
                                         r"expected a JSON object, got \[1, 2\]$"):
        read_dataset(path)


# a JSON integer past the float range
HUGE = 10**400


@pytest.mark.parametrize("field, edit", [
    ("label", lambda rec: rec.update(label=HUGE)),
    ("meta r3", lambda rec: rec.update(meta={"r3": HUGE})),
], ids=["label", "meta"])
def test_read_dataset_names_an_integer_too_large_for_a_float(tmp_path, field, edit):
    path = tmp_path / "huge.jsonl"
    bad = json.loads(GOOD_RECORD)
    edit(bad)
    path.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=rf"huge\.jsonl: line 2: {field} must fit a float, "
                                         rf"got an integer of {HUGE.bit_length()} bits$"):
        read_dataset(path)


def test_read_dataset_names_a_line_that_is_not_utf8(tmp_path):
    # past the first 8 KB, where a decoder reading ahead in chunks would stop
    path = tmp_path / "bytes.jsonl"
    path.write_bytes((GOOD_RECORD + "\n").encode() * 120 + b'{"n": 1, "label": "\xff"}\n')
    with pytest.raises(ValueError, match=r"bytes\.jsonl: line 121: 'utf-8' codec can't decode "
                                         r"byte 0xff"):
        read_dataset(path)


def test_read_dataset_rejects_mixed_qubit_counts(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD + "\n" + _two_qubit_record() + "\n")
    with pytest.raises(ValueError, match=r"mixed\.jsonl: line 3: state has 2 qubits"):
        read_dataset(path)
    # a file of two-qubit states alone is fine
    path.write_text(_two_qubit_record() + "\n")
    assert read_dataset(path)[0].state.n_qubits == 2


MATRIX_FAULTS = {
    "string entry": ('[[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
                     'entries must be JSON numbers, got "1.0"'),
    "bool entry": ('[[[1.0, 0.0], [0.0, false]], [[0.0, 0.0], [0.0, 0.0]]]',
                   "entries must be JSON numbers, got false"),
    "pair of three": ('[[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
                      r"entries must be \[re, im\] pairs, got \[1.0, 0.0, 0.0\]"),
    "ragged row": ('[[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
                   "expected 2 entries per row, got 1"),
    "bare number": ("5", "expected a list of 2 rows, got 5"),
    "wrong size": ("[[[1.0, 0.0]]]", "expected 2 rows for n = 1, got 1"),
    "integer beyond 64 bits": ('[[[18446744073709551616, 0], [0, 0]], [[0, 0], [0, 0]]]',
                               "integer entries must fit in 64 bits"),
}


@pytest.mark.parametrize("field", ["n", "label", "matrix"])
def test_read_dataset_names_a_missing_field(tmp_path, field):
    path = tmp_path / "bad.jsonl"
    bad = json.loads(GOOD_RECORD)
    del bad[field]
    path.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.jsonl: line 2: {field}: missing$"):
        read_dataset(path)


@pytest.mark.parametrize("case", sorted(MATRIX_FAULTS))
def test_read_dataset_names_the_matrix_field(tmp_path, case):
    matrix, reason = MATRIX_FAULTS[case]
    path = tmp_path / "bad.jsonl"
    bad = json.loads(GOOD_RECORD)
    bad["matrix"] = json.loads(matrix)
    path.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.jsonl: line 2: matrix: {reason}$"):
        read_dataset(path)


def test_read_dataset_reads_true_and_false_outside_the_matrix(tmp_path):
    # the words send the record's matrix through the bool scan, which finds none
    path = tmp_path / "ok.jsonl"
    rec = GOOD_RECORD.replace('"meta": {}', '"meta": {"note": "true", "flag": false}')
    path.write_text(rec + "\n")
    (item,) = read_dataset(path)
    assert item.meta == {"note": "true", "flag": False}
    assert np.array_equal(item.state.matrix, [[1.0, 0.0], [0.0, 0.0]])


def test_read_dataset_names_the_first_bad_state_before_a_later_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    trace_two = GOOD_RECORD.replace('[[0.0, 0.0], [0.0, 0.0]]]', '[[0.0, 0.0], [1.0, 0.0]]]')
    path.write_text("\n".join([GOOD_RECORD, trace_two, GOOD_RECORD, "not json"]) + "\n")
    with pytest.raises(ValueError, match=r"line 2: density matrix does not have unit trace$"):
        read_dataset(path)


def test_read_dataset_checks_a_file_with_one_eigvalsh(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    write_dataset(path, generate_dataset("entropy", 200, 1, seed=0)[0])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert len(read_dataset(path)) == 200
    assert calls == [(200, 4, 4)]


# a matrix that fails exactly one check, and the reason it fails with
ONE_FAULT = {
    "none": None,
    "non-finite": "density matrix has non-finite entries",
    "non-Hermitian": "density matrix is not Hermitian within 1e-10",
    "trace": "density matrix does not have unit trace",
    "negative": "density matrix has negative eigenvalue",
}


def _matrix_with_fault(n: int, seed: int, fault: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    m /= np.trace(m).real
    i, j = rng.choice(d, size=2, replace=False)
    if fault == "non-finite":
        m[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    elif fault == "non-Hermitian":
        m[i, j] += 1e-6j
    elif fault == "trace":
        m *= 1.0 + rng.choice([-1.0, 1.0]) * 1e-6
    elif fault == "negative":
        w, v = np.linalg.eigh(m)
        w[-1] += w[0] + 1e-3
        w[0] = -1e-3
        m = (v * w) @ v.conj().T
    return m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]),
       specs=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(sorted(ONE_FAULT))),
                      min_size=1, max_size=6))
def test_density_fault_agrees_with_density_matrix(n, specs):
    stack = np.array([_matrix_with_fault(n, seed, fault) for seed, fault in specs])
    expected = None
    for k, (m, (_, fault)) in enumerate(zip(stack, specs)):
        try:
            DensityMatrix(m, n)
        except ValueError as exc:
            assert str(exc).startswith(ONE_FAULT[fault])
            expected = expected or (k, str(exc))
        else:
            assert ONE_FAULT[fault] is None
    assert density_fault(stack) == expected


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


# ---------------------------------------------------------------------------
# generate_dataset and write_dataset as they were, one state and one entry at
# a time: the reference the stacked splits and the tolist() writer must match
# byte for byte


def _ref_bloch(r) -> DensityMatrix:
    m = (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3]) / 2
    return DensityMatrix(m, 1)


def _ref_purity(rho) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def _ref_renyi2(rho) -> float:
    assert abs(_ref_purity(rho) - 1.0) <= 1e-8
    doubled = np.kron(rho.matrix, rho.matrix)
    val = np.trace(doubled @ swap_permutation(2, 2)).real
    rho_a = partial_trace(rho.matrix, 2, 2)
    assert abs(val - np.trace(rho_a @ rho_a).real) <= 1e-10
    return float(-np.log(val))


def _ref_item(task, rng) -> LabeledState:
    if task == "purity":
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rho = _ref_bloch(np.cbrt(rng.uniform()) * v)
        p = _ref_purity(rho)
        return LabeledState(rho, float(p >= PURITY_LABEL_THRESHOLD), {"purity": p})
    if task == "entropy":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix(np.outer(psi, psi.conj()), 2)
        s = _ref_renyi2(rho)
        return LabeledState(rho, float(s >= ENTROPY_LABEL_THRESHOLD), {"entropy": s})
    v = rng.normal(size=3)
    r = v / np.linalg.norm(v)
    if task == "band":
        label = float(abs(r[2]) >= BAND_EDGE)
    else:
        label = float(r[2] >= BAND_EDGE or -BAND_EDGE <= r[2] < 0.0)
    return LabeledState(_ref_bloch(r), label, {"r3": r[2]})


def _ref_psi_grid(count: int) -> list:
    out = []
    for k in range(count):
        lam = -1.0 + 2.0 * (k + 1) / (count + 1)
        t = np.sqrt((1.0 + lam) / 2.0)
        amp = np.array([t, np.sqrt(1.0 - t * t)], dtype=complex)
        rho = DensityMatrix(np.outer(amp, amp.conj()), 1)
        out.append(LabeledState(rho, lam, {"lambda": lam, "t": float(t)}))
    return out


def _ref_generate(task, n_train, n_test, seed):
    if task == "psi-grid":
        return _ref_psi_grid(n_train), _ref_psi_grid(n_test)
    rng = np.random.default_rng(seed)
    train = [_ref_item(task, rng) for _ in range(n_train)]
    return train, [_ref_item(task, rng) for _ in range(n_test)]


def _ref_write(path, dataset) -> None:
    with open(path, "w") as fh:
        for item in dataset:
            rec = {
                "n": item.state.n_qubits,
                "matrix": [[[float(x.real), float(x.imag)] for x in row]
                           for row in item.state.matrix],
                "label": float(item.label),
                "meta": item.meta,
            }
            fh.write(json.dumps(rec) + "\n")


def _types(split) -> list:
    return [(type(x.label), {k: type(v) for k, v in x.meta.items()}) for x in split]


@pytest.mark.parametrize("task,sizes,seed", [
    *[(task, sizes, seed) for task in DATASET_TASKS
      for sizes in ((1, 1), (37, 5)) for seed in (0, 1, 2)],
    ("entropy", (1000, 500), 1),  # the entropy-train benchmark's dataset
])
def test_generate_dataset_writes_the_bytes_of_one_item_at_a_time(tmp_path, task, sizes, seed):
    new, ref = tmp_path / "new.jsonl", tmp_path / "ref.jsonl"
    splits = zip(generate_dataset(task, *sizes, seed), _ref_generate(task, *sizes, seed))
    for split, ref_split in splits:
        write_dataset(new, split)
        _ref_write(ref, ref_split)
        assert new.read_bytes() == ref.read_bytes()
        if task == "psi-grid":  # quartic-fit reads these values, types included
            assert _types(split) == _types(ref_split)


def test_generate_dataset_checks_each_split_with_one_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    generate_dataset("entropy", 1000, 500, seed=0)
    assert calls == [(1000, 4, 4), (500, 4, 4)]


def _qubit(label=0.0, meta=None) -> LabeledState:
    return LabeledState(density_from_bloch([0.0, 0.0, 0.5]), label, {} if meta is None else meta)


# datasets read_dataset would reject once written, and the writer's reason
UNWRITABLE = {
    "mixed qubit counts": ([_qubit(), LabeledState(BELL, 0.0, {})],
                           r"item 1: state has 2 qubits, the first record has 1"),
    "NaN label": ([_qubit(), _qubit(label=float("nan"))], r"item 1: label must be finite"),
    "infinite meta": ([_qubit(meta={"purity": float("inf")})],
                      r"item 0: meta purity must be finite"),
    "other histogram keys": ([_qubit(meta={"r3": 0.5}), _qubit(meta={"purity": 0.5})],
                             r"item 1: meta has histogram keys \['purity'\], "
                             r"the first record has \['r3'\]"),
    # a meta value json.dumps cannot encode, under a key read_dataset does not check
    "unencodable meta": ([_qubit(), _qubit(meta={"t": np.float32(0.5)})],
                         r"item 1: meta: Object of type float32 is not JSON serializable"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_write_dataset_refuses_what_read_dataset_rejects(tmp_path, case):
    data, reason = UNWRITABLE[case]
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match=f"^{reason}$"):
        write_dataset(path, data)
    assert not path.exists()
