"""Reset-and-entangle layers acting on a single signal qubit.

Each layer rotates the signal about z, couples it unitarily to a fresh copy
of an n-qubit input state and traces the copy out.  The signal qubit is
always the first tensor factor.  Each layer is a CPTP collision map on the
signal and affine on its Bloch vector; `layer_transfer_tensor` is its Pauli
transfer over the Pauli coefficients of the input, and the stack of them for
a sequence of layers, whose General layers share one stacked exp(iH); and
`layer_affine_map` is its value at one input, the plain pair (m, d) of
r -> m r + d.  A restricted coupling is one Pauli pair (i, alpha), and its
transfer is the evolution formula (sigma_i kept, the other two signal Paulis
scaled by lam_alpha) built with no unitary; only General couplings evolve
the signal Paulis back through exp(iH).
`affine_chain` pushes a batch of inputs through a chain of transfer tensors,
one matmul per layer; it is the one batched kernel in sample space.
`readout_chain` pushes the same tensors through coefficient space instead:
the readout of a stack of restricted layers is a polynomial in the lam_alpha
its couplings read, and the chain carries its coefficients and their exact
derivatives in the layer angles; `readout_system` reads the readout's
coefficients and Jacobian off it.  The compiler fits on it, and training
uses it for restricted models.
`hadamard_test` gives the exact ancilla value of the interference circuit,
from the circuit's fixed factors built once per (dimension, imag) and
cached read-only; shot sampling belongs to training alone (`sample_shots`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    PAULIS,
    HermitianGenerator,
    exp_i_hermitian,
    generator_matrices,
    is_unitary,
    kron,
    partial_trace,
    pauli_trace_matrix,
    pauli_word_basis,
)
from .states import (
    DensityMatrix,
    PauliWord,
    bloch_vector,
    density_from_bloch,
    json_int,
    json_list,
    json_number,
    json_object,
    pauli_coeffs,
)

COUPLING_VARIANTS = ("CNOT_BtoA", "CU_ij", "CU_alpha", "General")


@dataclass(slots=True)
class CouplingSpec:
    """Which unitary couples the signal qubit to the uploaded state.

    CNOT_BtoA: CNOT controlled by a single environment qubit, target signal.
    CU_ij: applies signal Pauli sigma_i on the -1 eigenspace of environment
        Pauli sigma_j (single environment qubit, i and j in 1..3).
    CU_alpha: applies signal X on the -1 eigenspace of the environment Pauli
        word W_alpha (any non-identity word).
    General: exp(i H) for an arbitrary Hermitian generator on signal plus
        environment.
    """

    variant: str
    i: int = 0
    j: int = 0
    word: PauliWord = None
    generator: HermitianGenerator = None

    def __post_init__(self):
        if self.variant not in COUPLING_VARIANTS:
            raise ValueError(f"unknown coupling variant {self.variant!r}")
        if self.variant == "CU_ij":
            if self.i not in (1, 2, 3) or self.j not in (1, 2, 3):
                raise ValueError(f"CU_ij needs i, j in 1..3, got ({self.i}, {self.j})")
        if self.variant == "CU_alpha":
            if self.word is None or self.word.is_identity:
                raise ValueError("CU_alpha needs a non-identity Pauli word")
        if self.variant == "General":
            if self.generator is None or self.generator.n_qubits < 2:
                raise ValueError("General needs a generator on signal plus environment")

    @classmethod
    def cnot(cls) -> "CouplingSpec":
        return cls("CNOT_BtoA")

    @classmethod
    def cu_ij(cls, i: int, j: int) -> "CouplingSpec":
        return cls("CU_ij", i=i, j=j)

    @classmethod
    def cu_alpha(cls, word: PauliWord) -> "CouplingSpec":
        return cls("CU_alpha", word=word)

    @classmethod
    def general(cls, generator: HermitianGenerator) -> "CouplingSpec":
        return cls("General", generator=generator)

    @property
    def pauli_pair(self) -> tuple:
        """(i, alpha) of a restricted coupling: it applies signal sigma_i on
        the -1 eigenspace of the environment word W_alpha."""
        if self.variant == "CNOT_BtoA":
            return 1, 3
        if self.variant == "CU_ij":
            return self.i, self.j
        if self.variant == "CU_alpha":
            return 1, self.word.index
        raise ValueError("General couplings have no Pauli pair")

    @property
    def n_env(self) -> int:
        """Number of environment qubits the coupling acts on."""
        if self.variant in ("CNOT_BtoA", "CU_ij"):
            return 1
        if self.variant == "CU_alpha":
            return self.word.n_qubits
        return self.generator.n_qubits - 1


@dataclass(slots=True)
class LayerSpec:
    """One layer: z-rotation of the signal by theta, then the coupling."""

    theta: float
    coupling: CouplingSpec


@dataclass(slots=True)
class ReuploadModel:
    """Layer stack with linear Bloch readout f = w . r + b.

    initial_signal selects the signal start state: "plus" is |+><+| (Bloch
    (1,0,0)), "zero" is |0><0| (Bloch (0,0,1)).
    """

    n_qubits: int
    layers: list
    readout_w: np.ndarray
    readout_b: float
    initial_signal: str = "plus"

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("model needs at least one layer")
        self.readout_w = np.asarray(self.readout_w, dtype=float)
        if self.readout_w.shape != (3,):
            raise ValueError("readout_w must be a 3-vector")
        self.readout_b = float(self.readout_b)
        if not (np.isfinite(self.readout_w).all() and math.isfinite(self.readout_b)):
            raise ValueError("readout weights must be finite")
        if self.initial_signal not in ("plus", "zero"):
            raise ValueError(f"initial_signal must be 'plus' or 'zero', got {self.initial_signal!r}")
        for layer in self.layers:
            if layer.coupling.n_env != self.n_qubits:
                raise ValueError("coupling size does not match n_qubits")
            if not math.isfinite(layer.theta):
                raise ValueError("layer angles must be finite")


def build_coupling(coupling: CouplingSpec, n_qubits: int) -> np.ndarray:
    """Dense coupling unitary on signal (x) environment, signal first."""
    if coupling.n_env != n_qubits:
        raise ValueError(f"coupling acts on {coupling.n_env} environment qubits, not {n_qubits}")
    if coupling.variant == "General":
        return exp_i_hermitian(coupling.generator)
    i, alpha = coupling.pauli_pair
    w = pauli_word_basis(n_qubits)[alpha]
    eye = np.eye(2**n_qubits)
    return kron(PAULIS[0], (eye + w) / 2) + kron(PAULIS[i], (eye - w) / 2)


def rz_bloch(theta: float) -> np.ndarray:
    """Bloch rotation of the signal z-rotation: x -> (cos, sin, 0)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def layer_unitary(layer: LayerSpec, n_qubits: int) -> np.ndarray:
    """Full layer unitary: coupling after the signal z-rotation."""
    c = build_coupling(layer.coupling, n_qubits)
    rz = np.diag(np.exp([-0.5j * layer.theta, 0.5j * layer.theta]))
    return c @ kron(rz, np.eye(2**n_qubits))


def apply_layer(tau: DensityMatrix, rho: DensityMatrix, layer: LayerSpec) -> DensityMatrix:
    """Send the signal state tau through one layer fed with input rho."""
    if tau.n_qubits != 1:
        raise ValueError("signal must be a single qubit")
    u = layer_unitary(layer, rho.n_qubits)
    joint = u @ kron(tau.matrix, rho.matrix) @ u.conj().T
    out = partial_trace(joint, 2, rho.dim)
    return DensityMatrix(out, 1)


def layer_transfer_tensor(layers, n_qubits: int) -> np.ndarray:
    """Layer action resolved over Pauli components: shape (3, 4, 4**n) for
    one LayerSpec, and the (L, 3, 4, 4**n) stack of them for a sequence.

    The coupling's tensor t_C[i, j, alpha] = tr[C^dag (sigma_i (x) I) C
    (sigma_j (x) W_alpha)] / 2d, d = 2**n, turned by the signal z-rotation
    on the j axis: t[i, j, alpha] = sum_k t_C[i, k, alpha] (1 (+) R(theta))[k, j].
    A restricted coupling (i, alpha) gives the evolution formula, three unit
    entries and no unitary: sigma_i is kept and the other two signal Paulis
    pick up W_alpha.  A General coupling evolves the signal Paulis back
    through its layer unitary exp(iH) (Rz(theta) (x) I), which carries the
    rotation, and reads them off over the (n+1)-qubit Pauli words.  A
    sequence builds its General layers together: one stacked exp_i_hermitian,
    one batched conjugation and one matmul with pauli_trace_matrix.
    The output Bloch vector is t contracted with (1, r) and (1, lam), where
    lam are the Pauli coefficients of the uploaded state.
    """
    stack = [layers] if isinstance(layers, LayerSpec) else layers
    out = np.zeros((len(stack), 3, 4, 4**n_qubits))
    general = []
    for l, layer in enumerate(stack):
        coupling = layer.coupling
        if coupling.n_env != n_qubits:
            raise ValueError(f"coupling acts on {coupling.n_env} environment qubits, not {n_qubits}")
        if coupling.variant == "General":
            general.append(l)
            continue
        i, alpha = coupling.pauli_pair
        t = out[l]
        for k in (1, 2, 3):
            t[k - 1, k, 0 if k == i else alpha] = 1.0
        t[:, 1:] = np.einsum("ika,kj->ija", t[:, 1:], rz_bloch(layer.theta))
    if general:
        out[general] = _general_tensors([stack[l] for l in general], n_qubits)
    return out if stack is layers else out[0]


def _general_tensors(layers, n_qubits: int) -> np.ndarray:
    """The (G, 3, 4, 4**n) transfer tensors of General layers, built together."""
    h = generator_matrices([layer.coupling.generator for layer in layers])
    # Rz(theta) (x) I is diagonal, so it scales the columns of exp(iH)
    half = np.repeat([-0.5j, 0.5j], 2**n_qubits)
    rz = np.exp(np.multiply.outer([layer.theta for layer in layers], half))
    u = exp_i_hermitian(h) * rz[:, None]
    # sigma_i (x) I for i = 1..3 are the words 4**n * i
    signal = pauli_word_basis(n_qubits + 1)[4**n_qubits :: 4**n_qubits]
    heis = u.conj().swapaxes(-1, -2)[:, None] @ signal @ u[:, None]
    t = (heis.reshape(3 * len(layers), -1) @ pauli_trace_matrix(n_qubits + 1)).real
    return t.reshape(len(layers), 3, 4, 4**n_qubits) / 2 ** (n_qubits + 1)


def initial_bloch(which: str) -> np.ndarray:
    """Bloch vector of the signal start state "plus" (1,0,0) or "zero" (0,0,1)."""
    if which == "plus":
        return np.array([1.0, 0.0, 0.0])
    return np.array([0.0, 0.0, 1.0])


def affine_chain(tensors, lam_ext: np.ndarray, r0: np.ndarray):
    """Push a batch of uploaded states through a chain of transfer tensors.

    tensors are layer_transfer_tensor outputs (a list, or the (L, 3, 4, 4**n)
    stack of a sequence), lam_ext the stacked (1, lam) rows of the inputs,
    shape (N, 4**n), and r0 the Bloch vector entering the first layer, shape
    (3,) or (N, 3).  Returns (maps, states): the per-layer
    linear parts (N, 3, 3), and the Bloch vectors entering each layer
    followed by the final ones (N, 3).
    """
    r = np.broadcast_to(r0, (lam_ext.shape[0], 3))
    maps, states = [], [r]
    for t in tensors:
        v = (lam_ext @ t.reshape(12, -1).T).reshape(-1, 3, 4)
        m, d = v[:, :, 1:], v[:, :, 0]
        maps.append(m)
        r = np.einsum("nij,nj->ni", m, r) + d
        states.append(r)
    return maps, states


def push_layer(t: np.ndarray, c: np.ndarray, variables) -> np.ndarray:
    """The (r1, r2, r3) coefficient tensors after the layer with transfer
    tensor t, from the (1, r1, r2, r3) tensors c before it.

    c has shape (4, *batch, *shape), the polynomial axes last.  One product
    applies t's alpha = 0 slice and each alpha = variables[k] slice to c's
    first axis; the latter multiplies by lam_alpha, a shift along the k-th
    polynomial axis, and degrees past shape are dropped.
    """
    K = len(variables)
    parts = t[:, :, [0, *variables]].transpose(2, 0, 1).reshape(-1, 4) @ c.reshape(4, -1)
    parts = parts.reshape(K + 1, 3, *c.shape[1:])
    r = parts[0]
    lead = (slice(None),) * (c.ndim - K)
    for k in range(K):
        up = lead + (slice(None),) * k
        r[up + (slice(1, None),)] += parts[k + 1][up + (slice(None, -1),)]
    return r


def readout_chain(model: ReuploadModel, variables, shape) -> np.ndarray:
    """Coefficient tensors of (1, r1, r2, r3) as polynomials in the lam at
    variables, with their derivatives in the layer angles: shape
    (4, L+1, *shape), slot 0 the tensors and slot l their derivative in
    theta_l.

    c[:, 0, e_1, .., e_K] is the coefficient of prod lam_{variables[k]}^e_k.
    Each layer's transfer tensor acts on every slot as on (1, r)
    (push_layer); other words count as zero, and degrees past shape are
    dropped.  Every transfer tensor is t = t_C (1 (+) R(theta)) on the j
    axis, so dt/dtheta = t Omega with Omega[x, y] = -1, Omega[y, x] = 1: the
    tangent of theta_l enters layer l as Omega (1, r), that is (0, -r2, r1,
    0) of the coefficients before it, and each layer pushes every slot so far
    at once.
    """
    L = len(model.layers)
    c = np.zeros((4, L + 1, *shape))
    c[(slice(None), 0) + (0,) * len(shape)] = [1.0, *initial_bloch(model.initial_signal)]
    for l, layer in enumerate(model.layers, start=1):
        c[1, l] = -c[2, 0]
        c[2, l] = c[1, 0]
        c[1:, : l + 1] = push_layer(layer_transfer_tensor(layer, model.n_qubits),
                                    c[:, : l + 1], variables)
    return c


def readout_system(model: ReuploadModel, variables, shape):
    """(a, jacobian) off one readout_chain: a has columns r1, r2, r3, 1, so
    a @ (w, b) are the readout's coefficients, flattened, and jacobian is
    their exact Jacobian in p = (theta_1 .. theta_L, w1, w2, w3, b).  The
    theta columns are the tangents contracted with w, the (w, b) columns
    are a itself."""
    L = len(model.layers)
    c = readout_chain(model, variables, shape).reshape(4, L + 1, -1)
    a = c[[1, 2, 3, 0], 0].T
    # the product np.tensordot(w, c[1:, 1:], axes=1) forms, without its overhead
    thetas = np.dot(model.readout_w.reshape(1, 3), c[1:, 1:].reshape(3, -1)).reshape(L, -1).T
    return a, np.concatenate([thetas, a], axis=1)


def layer_affine_map(layer: LayerSpec, rho: DensityMatrix):
    """Exact affine Bloch action r -> m @ r + d of a layer for a fixed
    uploaded state, as the pair (m, d) that affine_chain applies."""
    t = layer_transfer_tensor(layer, rho.n_qubits)
    lam_ext = np.concatenate(([1.0], pauli_coeffs(rho).lam))
    v = np.einsum("ija,a->ij", t, lam_ext)
    return v[:, 1:], v[:, 0]


def run_model(model: ReuploadModel, rho: DensityMatrix):
    """Run the full layer stack on input rho.

    Returns (r_final, f): the signal Bloch vector after the last layer and
    the readout value f = w . r_final + b.
    """
    if rho.n_qubits != model.n_qubits:
        raise ValueError(f"model expects {model.n_qubits}-qubit inputs")
    tau = density_from_bloch(initial_bloch(model.initial_signal))
    for layer in model.layers:
        tau = apply_layer(tau, rho, layer)
    r = bloch_vector(tau)
    return r, float(model.readout_w @ r + model.readout_b)


def sample_shots(expect, shots: int, rng):
    """Shot estimate of +/-1-valued observables with expectations expect,
    each averaged over shots single-shot outcomes."""
    p = np.clip((1.0 + expect) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def hadamard_test(rho: DensityMatrix, u: np.ndarray, imag: bool = False) -> float:
    """Ancilla interference value of Re tr(rho u), or Im with imag=True.

    The ancilla is the first factor: H, controlled-u, an S^dag phase for the
    imaginary part, H again, then <Z> on the ancilla.
    """
    u = np.asarray(u, dtype=complex)
    d = rho.dim
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match state dimension {d}")
    if not is_unitary(u):
        raise ValueError("operator is not unitary within 1e-10")
    return hadamard_test_unchecked(rho.matrix, u, imag)


@lru_cache(maxsize=8)
def _hadamard_frame(d: int, imag: bool):
    """Read-only fixed factors of the d-dimensional Hadamard circuit:
    (H (x) I) phase, H (x) I and the ancilla readout Z (x) I."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    eye = np.eye(d)
    phase = kron(np.diag([1.0, -1j]), eye) if imag else np.eye(2 * d)
    h_eye = kron(h, eye)
    frame = (h_eye @ phase, h_eye, kron(PAULIS[3], eye))
    for m in frame:
        m.flags.writeable = False
    return frame


def hadamard_test_unchecked(rho: np.ndarray, u: np.ndarray, imag: bool = False) -> float:
    """hadamard_test on a d x d density matrix and a d x d unitary that the
    caller has already validated."""
    d = rho.shape[0]
    left, h_eye, z_eye = _hadamard_frame(d, bool(imag))
    cu = np.eye(2 * d, dtype=np.result_type(u, float))
    cu[d:, d:] = u
    full = left @ cu @ h_eye
    joint = np.zeros((2 * d, 2 * d), dtype=complex)
    joint[:d, :d] = rho
    out = full @ joint @ full.conj().T
    return float(np.trace(z_eye @ out).real)


# ---------------------------------------------------------------------------
# JSON serialization


def _coupling_to_dict(c: CouplingSpec) -> dict:
    if c.variant == "CNOT_BtoA":
        return {"variant": "CNOT_BtoA"}
    if c.variant == "CU_ij":
        return {"variant": "CU_ij", "i": c.i, "j": c.j}
    if c.variant == "CU_alpha":
        return {"variant": "CU_alpha", "word": list(c.word.letters)}
    return {
        "variant": "General",
        "n_qubits": c.generator.n_qubits,
        "coeffs": [float(x) for x in c.generator.coeffs],
    }


def _coupling_from_dict(d: dict) -> CouplingSpec:
    variant = d["variant"]
    if variant == "CNOT_BtoA":
        return CouplingSpec.cnot()
    if variant == "CU_ij":
        return CouplingSpec.cu_ij(json_int(d["i"], "i"), json_int(d["j"], "j"))
    if variant == "CU_alpha":
        return CouplingSpec.cu_alpha(PauliWord(tuple(json_int(c, "word", 0) for c in d["word"])))
    if variant != "General":
        raise ValueError(f"unknown coupling variant {variant!r}")
    coeffs = np.array([json_number(x, "coeffs") for x in d["coeffs"]])
    return CouplingSpec.general(HermitianGenerator(json_int(d["n_qubits"], "n_qubits"), coeffs))


def model_to_json(model: ReuploadModel) -> str:
    """Serialize a model; floats round-trip bit-exactly through repr."""
    rec = {
        "n": model.n_qubits,
        "layers": [
            {"theta": float(l.theta), "coupling": _coupling_to_dict(l.coupling)}
            for l in model.layers
        ],
        "w": [float(x) for x in model.readout_w],
        "b": float(model.readout_b),
        "initial_signal": model.initial_signal,
    }
    return json.dumps(rec)


def model_from_json(text: str) -> ReuploadModel:
    """Parse model_to_json output.  A missing field, or one of the wrong JSON
    type, raises a ValueError that names it, as in `b: missing`,
    `layers: expected a JSON list, got "x"` or `theta must be a JSON number,
    got true`."""
    rec = json_object(json.loads(text), "model")
    try:
        layers = []
        for l in json_list(rec["layers"], "layers"):
            l = json_object(l, "layer")
            coupling = json_object(l["coupling"], "coupling")
            for key in ("word", "coeffs"):  # the list fields of a coupling
                if key in coupling:
                    json_list(coupling[key], key)
            theta = json_number(l["theta"], "theta")
            layers.append(LayerSpec(theta, _coupling_from_dict(coupling)))
        n = json_int(rec["n"], "n")
        w = np.array([json_number(x, "w") for x in json_list(rec["w"], "w")])
        b = json_number(rec["b"], "b")
        initial_signal = rec["initial_signal"]
    except KeyError as exc:  # a field the record lacks
        raise ValueError(f"{exc.args[0]}: missing") from exc
    return ReuploadModel(n_qubits=n, layers=layers, readout_w=w, readout_b=b,
                         initial_signal=initial_signal)
