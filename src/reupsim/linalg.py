"""Dense complex linear algebra kernel: Kronecker products, partial traces,
the Pauli-word basis and the one transform between matrices and their
Pauli coefficients (pauli_traces and its inverse pauli_sum), Hermitian
eigendecompositions, exp(iH) unitaries and their principal logarithms.

Everything works on plain complex128 ndarrays with numpy alone.  Matrices
are small (the simulator never exceeds a handful of qubits) so dense
routines are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10

# single-qubit Pauli basis, indexed 0..3 = I, X, Y, Z
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument on the most significant axis.

    a (..., m, n) and b (..., p, q) give (..., m p, n q): matrices, or stacks
    whose leading axes broadcast.  It is one broadcast product and a reshape:
    numpy's own kron applies the same np.multiply to matrices, so the two
    agree bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    m, p, n, q = out.shape[-4:]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """tr_B(m) of a square matrix on the product space A (x) B, A first."""
    m = np.asarray(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {m.shape}")
    return np.einsum("abcb->ac", m.reshape(dim_a, dim_b, dim_a, dim_b))


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    """True when m, or every matrix of a (..., d, d) stack, is Hermitian within atol."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= atol)


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """True when m, or every matrix of a (..., d, d) stack, is unitary within atol."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]))) <= atol)


def _int_log2(d: int) -> int:
    n = int(d).bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"dimension {d} is not a power of two")
    return n


@lru_cache(maxsize=8)
def swap_permutation(dim_a: int, dim_b: int = 1) -> np.ndarray:
    """Read-only permutation on (A1 B1 A2 B2) swapping A1 <-> A2.

    With dim_b = 1 it is the full swap of two dim_a-dimensional copies.
    """
    d = dim_a * dim_b
    s = np.eye(d * d).reshape(dim_a, dim_b, dim_a, dim_b, d * d)
    s = s.transpose(2, 1, 0, 3, 4).reshape(d * d, d * d)
    s.flags.writeable = False
    return s


def fd_jacobian(fn, p: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian of fn at p, shape fn(p).shape + (p.size,)."""
    cols = []
    for k in range(p.size):
        up, dn = p.copy(), p.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fn(up) - fn(dn)) / (2 * h))
    return np.stack(cols, axis=-1)


@lru_cache(maxsize=8)
def pauli_word_basis(n_qubits: int) -> np.ndarray:
    """All 4**n n-qubit Pauli words as an array of shape (4**n, 2**n, 2**n).

    Index alpha is the base-4 encoding of the letters, first qubit most
    significant; alpha = 0 is the identity.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    basis = PAULIS
    words = np.array(basis, dtype=complex)
    for _ in range(n_qubits - 1):
        words = np.einsum("aij,bkl->abikjl", words, np.array(basis)).reshape(
            -1, words.shape[1] * 2, words.shape[1] * 2
        )
    return words


@lru_cache(maxsize=8)
def _pauli_trace_matrix(n_qubits: int) -> np.ndarray:
    """Read-only (4**n * 4**n, 4**n) matrix of the conjugated, flattened
    words: tr[a W] = vec(a) . vec(W^T), and W^T = conj(W) as W is Hermitian."""
    words = pauli_word_basis(n_qubits)
    x = np.ascontiguousarray(words.reshape(len(words), -1).conj().T)
    x.flags.writeable = False
    return x


def pauli_traces(m) -> np.ndarray:
    """tr[m W_alpha] for every word alpha, (..., 4**n), of a 2**n x 2**n
    matrix or a (..., 2**n, 2**n) stack: 2**n times its Pauli coefficients."""
    m = np.asarray(m)
    n = _int_log2(m.shape[-1])
    traces = m.reshape(-1, m.shape[-1] ** 2) @ _pauli_trace_matrix(n)
    return traces.reshape(*m.shape[:-2], 4**n)


def pauli_sum(c) -> np.ndarray:
    """sum_alpha c[..., alpha] W_alpha, (..., 2**n, 2**n), of (..., 4**n)
    Pauli coefficients: the inverse of pauli_traces up to the factor 2**n."""
    c = np.asarray(c)
    words = pauli_word_basis(_int_log2(c.shape[-1]) // 2)
    if len(words) != c.shape[-1]:
        raise ValueError(f"{c.shape[-1]} coefficients is not a power of four")
    out = c.reshape(-1, len(words)) @ words.reshape(len(words), -1)
    return out.reshape(*c.shape[:-1], *words.shape[1:])


def index_to_letters(alpha: int, n_qubits: int) -> tuple[int, ...]:
    """Base-4 digits of alpha, most significant digit = first qubit."""
    if not 0 <= alpha < 4**n_qubits:
        raise ValueError(f"index {alpha} out of range for {n_qubits} qubits")
    letters = []
    for _ in range(n_qubits):
        letters.append(alpha % 4)
        alpha //= 4
    return tuple(reversed(letters))


def letters_to_index(letters) -> int:
    alpha = 0
    for c in letters:
        alpha = 4 * alpha + int(c)
    return alpha


@dataclass(slots=True)
class HermitianGenerator:
    """Hermitian operator on n qubits expanded in the Pauli-word basis.

    coeffs[alpha - 1] is the real coefficient of the word with base-4 index
    alpha; the identity component is fixed to zero (it only contributes a
    global phase under exponentiation).
    """

    n_qubits: int
    coeffs: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        m = 4**self.n_qubits - 1
        if self.coeffs is None:
            self.coeffs = np.zeros(m)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (m,):
            raise ValueError(f"expected {m} coefficients, got {self.coeffs.shape}")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("generator coefficients must be finite")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def matrix(self) -> np.ndarray:
        return generator_matrices([self])[0]

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "HermitianGenerator":
        """Project a Hermitian matrix onto the traceless Pauli-word basis."""
        h = np.asarray(h, dtype=complex)
        if not is_hermitian(h):
            raise ValueError("matrix is not Hermitian within 1e-12")
        return cls(_int_log2(h.shape[0]), pauli_traces(h)[1:].real / h.shape[0])


def generator_matrices(generators) -> np.ndarray:
    """The (G, d, d) stack of the matrices of HermitianGenerators on one
    qubit count, from one pauli_sum with a zero identity coefficient."""
    coeffs = np.stack([g.coeffs for g in generators])
    return pauli_sum(np.pad(coeffs, ((0, 0), (1, 0))))


def exp_i_hermitian(h) -> np.ndarray:
    """exp(i*H) for a Hermitian matrix or a (..., d, d) stack of them, via eig.

    exp(iH) = sum_k exp(i vals_k) |v_k><v_k|; the result is unitary to 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("generator is not Hermitian within 1e-12")
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def unitary_to_generator(u: np.ndarray) -> HermitianGenerator:
    """Hermitian H with exp(iH) equal to u up to global phase.

    Takes the principal matrix logarithm on an orthonormal eigenbasis of u
    and removes the trace, so the result conjugates identically to u.  The
    eigenbasis is the eigh basis of the Cayley transform
    K = i(v + I)^-1 (v - I) of v = e^(i c) u, where the global phase c puts
    -1 mid-way across the widest gap between u's eigenphases.  K is a
    Hermitian function of u that maps the unit circle without -1 one-to-one
    onto the real line, so distinct eigenvalues of u stay distinct in K.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if not is_unitary(u):
        raise ValueError("input is not unitary within 1e-10")
    phi = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phi, append=phi[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    v = u * np.exp(1j * (np.pi - phi[k] - gaps[k] / 2))
    eye = np.eye(d)
    cayley = 1j * np.linalg.solve(v + eye, v - eye)
    _, z = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    phases = np.angle(np.einsum("ji,jk,ki->i", z.conj(), u, z))
    h = (z * phases) @ z.conj().T
    h = (h + h.conj().T) / 2
    h = h - (np.trace(h).real / d) * eye
    return HermitianGenerator.from_matrix(h)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a (..., d, d) stack of complex Ginibre
    matrices: the Q of their QR with the phases of R's diagonal moved into it.
    """
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return haar_from_ginibre(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
