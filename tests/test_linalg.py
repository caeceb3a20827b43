import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reupsim.linalg import (
    PAULIS,
    HermitianGenerator,
    exp_i_hermitian,
    haar_from_ginibre,
    haar_unitary,
    index_to_letters,
    is_hermitian,
    is_unitary,
    kron,
    letters_to_index,
    partial_trace,
    pauli_sum,
    pauli_traces,
    pauli_word_basis,
    swap_permutation,
    unitary_to_generator,
)
from reupsim.states import DensityMatrix, pauli_coeffs

RNG = np.random.default_rng(11)


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_density(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m @ m.conj().T
    return m / np.trace(m)


def test_kron_matches_block_structure():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert np.allclose(k[:2, :2], 1 * b)
    assert np.allclose(k[:2, 2:], 2 * b)
    assert np.allclose(k[2:, :2], 3 * b)


def test_kron_associative():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def _operands(draw, lead: tuple):
    """A real or complex float64 array of shape lead + (1..4, 1..4), signed
    zeros included."""
    shape = lead + (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    return draw(arrays(np.complex128, shape, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_kron_is_numpy_kron_bit_for_bit(data):
    a = _operands(data.draw, ())
    b = _operands(data.draw, ())
    got, want = kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), t=st.integers(1, 4), b_stacked=st.booleans())
def test_kron_of_stacks_is_kron_of_their_items(data, t, b_stacked):
    a = _operands(data.draw, (t,))
    b = _operands(data.draw, (t,) if b_stacked else ())
    got = kron(a, b)
    assert got.shape == (t, a.shape[1] * b.shape[-2], a.shape[2] * b.shape[-1])
    for k in range(t):
        assert got[k].tobytes() == np.kron(a[k], b[k] if b_stacked else b).tobytes()


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(1)
    a = random_density(2, rng)
    b = random_density(4, rng)
    m = kron(a, b)
    assert np.max(np.abs(partial_trace(m, 2, 4) - a)) < 1e-12


def test_partial_trace_preserves_trace_and_is_linear():
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        ta = partial_trace(m, 2, 4)
        assert abs(np.trace(ta) - np.trace(m)) < 1e-12
        combo = partial_trace(2.5 * m - 1j * n, 2, 4)
        assert np.max(np.abs(combo - (2.5 * ta - 1j * partial_trace(n, 2, 4)))) < 1e-12


def test_partial_trace_rejects_bad_shape():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), 2, 4)


def test_exp_i_hermitian_known_values():
    # H = 0 -> identity
    assert np.max(np.abs(exp_i_hermitian(np.zeros((4, 4))) - np.eye(4))) < 1e-12
    # H = (pi/2) X -> exp(i pi X / 2) = i X
    u = exp_i_hermitian((np.pi / 2) * PAULIS[1])
    assert np.max(np.abs(u - 1j * PAULIS[1])) < 1e-12
    # z-rotation convention: exp(-i theta Z / 2)
    theta = 0.7
    u = exp_i_hermitian(-(theta / 2) * PAULIS[3])
    assert np.max(np.abs(u - np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))) < 1e-12


def test_exp_i_hermitian_unitary_and_inverse():
    rng = np.random.default_rng(4)
    for _ in range(5):
        h = random_hermitian(8, rng)
        u = exp_i_hermitian(h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10
        assert np.max(np.abs(exp_i_hermitian(-h) @ u - np.eye(8))) < 1e-10


def test_pauli_word_indexing_roundtrip():
    for alpha in range(16):
        letters = index_to_letters(alpha, 2)
        assert letters_to_index(letters) == alpha
    # first qubit is the most significant base-4 digit
    assert index_to_letters(4, 2) == (1, 0)
    assert index_to_letters(3, 2) == (0, 3)


def test_pauli_word_basis_matches_explicit_kron():
    words = pauli_word_basis(2)
    assert words.shape == (16, 4, 4)
    for alpha in range(16):
        a, b = index_to_letters(alpha, 2)
        assert np.array_equal(words[alpha], np.kron(PAULIS[a], PAULIS[b]))


STACKS = st.sampled_from([(), (1,), (3,), (2, 3)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 3), stack=STACKS, seed=st.integers(0, 2**32 - 1))
def test_pauli_traces_are_per_word_traces(n, stack, seed):
    rng = np.random.default_rng(seed)
    d = 2**n
    m = rng.normal(size=(*stack, d, d)) + 1j * rng.normal(size=(*stack, d, d))
    got = pauli_traces(m)
    assert got.shape == (*stack, 4**n)
    words = pauli_word_basis(n)
    for idx in np.ndindex(*stack):
        want = [np.trace(m[idx] @ w) for w in words]
        np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 3), stack=STACKS, seed=st.integers(0, 2**32 - 1))
def test_pauli_traces_invert_pauli_sum(n, stack, seed):
    c = np.random.default_rng(seed).normal(size=(*stack, 4**n))
    m = pauli_sum(c)
    assert m.shape == (*stack, 2**n, 2**n)
    np.testing.assert_allclose(pauli_traces(m), 2**n * c, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stack=st.sampled_from([(), (1,), (5,)]), seed=st.integers(0, 2**32 - 1))
def test_single_qubit_pauli_coeffs_are_the_einsum_bit_for_bit(stack, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(*stack, 2, 2)) + 1j * rng.normal(size=(*stack, 2, 2))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    want = np.einsum("aij,...ji->...a", pauli_word_basis(1)[1:], rho).real
    got = pauli_coeffs(DensityMatrix(rho) if rho.ndim == 2 else rho).lam
    assert np.array_equal(got, want)


def test_pauli_sum_rejects_a_count_that_is_not_a_power_of_four():
    with pytest.raises(ValueError, match="8 coefficients is not a power of four"):
        pauli_sum(np.zeros(8))


def test_hermitian_generator_matrix_and_projection():
    gen = HermitianGenerator(1, [0.0, 0.0, np.pi / 2])
    assert np.max(np.abs(gen.matrix() - (np.pi / 2) * PAULIS[3])) < 1e-12
    h = random_hermitian(8, np.random.default_rng(5))
    h -= np.trace(h) / 8 * np.eye(8)
    back = HermitianGenerator.from_matrix(h)
    assert back.n_qubits == 3
    assert np.max(np.abs(back.matrix() - h)) < 1e-10


def test_hermitian_generator_rejects_bad_length():
    with pytest.raises(ValueError):
        HermitianGenerator(2, np.zeros(7))


def _unitaries_with_hard_spectra(d, rng):
    """A Haar unitary, and unitaries whose eigenphases defeat a naive log."""

    def turned(phases):
        q = haar_unitary(d, rng)
        return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T

    # the swap of the first two qubits; at d = 2, of the two basis states
    swap = PAULIS[1] if d == 2 else kron(swap_permutation(2), np.eye(d // 4))
    phi = rng.uniform(-np.pi, np.pi, d)
    pairs = rng.uniform(-np.pi, np.pi, d // 2)
    yield haar_unitary(d, rng)
    yield np.eye(d)
    yield -np.eye(d)
    yield swap
    # eigenvalue -1 with multiplicity d/2
    yield turned(np.r_[[np.pi] * (d // 2), phi[d // 2:]])
    # phi and 2 atan(sqrt 2) - phi share an eigenvalue of (u + u^dag)/2 + sqrt(2) (u - u^dag)/2i
    yield turned(np.r_[pairs, 2 * np.arctan(np.sqrt(2)) - pairs])
    # clusters 1e-9 apart
    yield turned(phi[0] + 1e-9 * np.arange(d))
    yield turned(np.r_[[phi[0]] * (d // 2), [phi[1] + 1e-9] * (d // 2)])
    # evenly spaced phases, one of them at -1: no gap is wide
    yield turned(np.pi * (2 * np.arange(d) / d - 1))


def test_unitary_to_generator_conjugates_identically():
    rng = np.random.default_rng(6)
    for d in (2, 4, 8):
        for u in _unitaries_with_hard_spectra(d, rng):
            h = unitary_to_generator(u).matrix()
            assert abs(np.trace(h)) < 1e-12
            v = exp_i_hermitian(h)
            # equal up to global phase, hence also in conjugation action
            phase = np.trace(v.conj().T @ u)
            assert np.max(np.abs(v * phase / abs(phase) - u)) < 1e-12
            m = random_hermitian(d, rng)
            assert np.max(np.abs(u @ m @ u.conj().T - v @ m @ v.conj().T)) < 1e-9


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, np.random.default_rng(7))
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_stacked_predicates_and_exp_match_per_matrix_loop():
    rng = np.random.default_rng(8)
    hs = np.array([random_hermitian(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    us = exp_i_hermitian(hs)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(us[idx], exp_i_hermitian(hs[idx]))
    assert is_hermitian(hs) and is_unitary(us)
    for idx in np.ndindex(2, 3):
        bad_h, bad_u = hs.copy(), us.copy()
        bad_h[idx][0, 1] += 1e-6
        bad_u[idx] *= 1.0 + 1e-6
        assert not is_hermitian(bad_h) and not is_unitary(bad_u)
        assert [is_hermitian(h) for h in bad_h.reshape(6, 4, 4)].count(False) == 1
        assert [is_unitary(u) for u in bad_u.reshape(6, 4, 4)].count(False) == 1


def test_haar_stack_matches_per_matrix_draws():
    rng = np.random.default_rng(9)
    want = [haar_unitary(4, rng) for _ in range(5)]
    g = np.random.default_rng(9).normal(size=(5, 2, 4, 4))
    np.testing.assert_array_equal(haar_from_ginibre(g[:, 0] + 1j * g[:, 1]), want)
