"""Gradient training of re-uploading models on labeled state datasets.

train runs one of two exact paths, chosen from the model and the dataset
alone.  A model of restricted layers only, whose readout polynomial has
fewer coefficients than there are training samples, trains on those
coefficients: one channel.readout_system per step gives them and their
Jacobian in the parameters, the outputs are the samples' monomials V times
the coefficients, and the gradient is (V^T dloss/df) times the Jacobian.
Its steps read the angles and the readout (w, b) straight off the flat
parameter vector, so such a train calls unpack_params once, at the end.
Every other model (General or mixed couplings, or as many coefficients as
samples) trains on the samples: each forward pass builds the stack of
transfer tensors in one layer_transfer_tensor call and batches the whole
dataset through it, and one adjoint contraction over the samples per layer
gives the loss derivative with respect to the layer's transfer tensor.  That
is pulled back to a restricted coupling's angle through the signal
z-rotation, and to the General generators' coefficients through the
analytic derivative of exp(iH), all of a step's General layers in one call;
the readout (w, b) is differentiated directly.  This path still unpacks a
model at every point.  On either path a full-batch epoch reuses the point
of its recorded loss for the gradient, and evaluate runs on the samples.
Updates are Adam, and a step that leaves a parameter non-finite stops
training with an error that names the epoch; loss_history is one float64
array; gradient_fd is the central-difference oracle the tests compare
against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HermitianGenerator,
    fd_jacobian,
    generator_matrices,
    pauli_sum,
    pauli_traces,
    pauli_word_basis,
)
from .channel import (
    CouplingSpec,
    LayerSpec,
    ReuploadModel,
    affine_chain,
    coefficient_grid,
    initial_bloch,
    layer_transfer_tensor,
    model_from_json,
    model_to_json,
    readout_system,
    run_model,
    rz_bloch,
    sample_shots,
)
from .states import META_KEYS, pauli_coeffs

HISTOGRAM_BINS = 30
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# central-difference step of the gradient_fd oracle; training takes none
FD_STEP = 1e-6
# f at or above the threshold predicts class 1; the logistic loss is
# sigmoid(LOGISTIC_SCALE * (f - CLASSIFICATION_THRESHOLD))
CLASSIFICATION_THRESHOLD = 0.5
LOGISTIC_SCALE = 10.0
# Most layers `reupsim train --layers` builds.  A step on the samples keeps,
# per layer and training state, the forward pass's (3, 3) linear part and
# Bloch vector and the gradient's pulled-back readout vector: 15 float64,
# 120 bytes, so 120 MB at this cap on the default 1,000 training states.  A
# restricted model on the coefficient chain keeps a (4, L+1, L+1) stack
# instead, 32 MB here.
MAX_LAYERS = 1000
# Most epochs `reupsim train --epochs` runs.  Each epoch keeps one float64
# loss, and the report writes it as a Python float and a JSON number: about
# 150 bytes an epoch under tracemalloc, so about 150 MB at this cap.
MAX_EPOCHS = 1_000_000
# each readout axis draws shots // 3 from Generator.binomial, whose counts are int64
MAX_SHOTS = 3 * (2**63 - 1) + 2


@dataclass(slots=True)
class TrainConfig:
    """Knobs for train / evaluate.

    loss "mse" regresses f onto the labels; "logistic" classifies with the
    surrogate sigmoid(LOGISTIC_SCALE * (f - CLASSIFICATION_THRESHOLD)).
    shots = 0 evaluates expectations exactly; a positive count samples the
    three readout axes with shots // 3 repetitions each.  Gradients always
    use exact expectations; shot noise only enters reported losses and
    metrics.
    """

    loss: str = "mse"
    learning_rate: float = 0.05
    max_epochs: int = 300
    batch_size: int = 0
    seed: int = 0
    shots: int = 0

    def __post_init__(self):
        if self.loss not in ("mse", "logistic"):
            raise ValueError(f"loss must be 'mse' or 'logistic', got {self.loss!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be 0 (full batch) or positive")
        if self.shots != 0 and not 3 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be 0 (exact) or from 3 to {MAX_SHOTS}, got {self.shots}")


@dataclass(slots=True)
class TrainReport:
    """loss_history has the loss before each epoch plus the final loss, as
    one float64 array."""

    loss_history: np.ndarray
    final_params: ReuploadModel
    test_accuracy: float
    histogram: list


def _lam_ext(dataset, n_qubits: int) -> np.ndarray:
    """Stacked (1, lam) rows for every uploaded state, shape (N, 4**n): one
    pauli_coeffs contraction of the stacked matrices."""
    for k, item in enumerate(dataset):
        if item.state.n_qubits != n_qubits:
            raise ValueError(
                f"dataset state {k} has {item.state.n_qubits} qubits, model expects {n_qubits}"
            )
    out = np.ones((len(dataset), 4**n_qubits))
    out[:, 1:] = pauli_coeffs(np.stack([item.state.matrix for item in dataset])).lam
    return out


def _labels(dataset) -> np.ndarray:
    return np.array([item.label for item in dataset], dtype=float)


def _forward_states(model: ReuploadModel, lam: np.ndarray):
    """The (L, 3, 4, 4**n) transfer tensors from one layer_transfer_tensor
    call, their linear parts (N, 3, 3) and the Bloch vectors entering each
    layer, followed by the final ones (see affine_chain).
    """
    tensors = layer_transfer_tensor(model.layers, model.n_qubits)
    return (tensors, *affine_chain(tensors, lam, initial_bloch(model.initial_signal)))


def _forward(model: ReuploadModel, lam_ext: np.ndarray) -> np.ndarray:
    return _forward_states(model, lam_ext)[2][-1]


def _readout(r: np.ndarray, w: np.ndarray, b: float, shots: int, rng) -> np.ndarray:
    if shots == 0:
        return r @ w + b
    return sample_shots(r, shots // 3, rng) @ w + b


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss_terms(f: np.ndarray, y: np.ndarray, config: TrainConfig):
    """Returns (loss, dloss/df)."""
    if config.loss == "mse":
        resid = f - y
        return float(np.mean(resid**2)), 2.0 * resid / f.size
    z = LOGISTIC_SCALE * (f - CLASSIFICATION_THRESHOLD)
    # q = 1 - p without the cancellation of 1.0 - p when p nears 1
    p, q = _sigmoid(z), _sigmoid(-z)
    tiny = 1e-12
    loss = -float(np.mean(y * np.log(p + tiny) + (1.0 - y) * np.log(q + tiny)))
    # exact derivative of the guarded loss, so it matches gradient_fd of it
    dldp = y / (p + tiny) - (1.0 - y) / (q + tiny)
    return loss, -LOGISTIC_SCALE * p * q * dldp / f.size


# ---------------------------------------------------------------------------
# parameter vector layout

def pack_params(model: ReuploadModel) -> np.ndarray:
    """Flatten trainable parameters: per layer the angle (restricted) or
    the generator coefficients (General, angle held fixed), then w, then b.
    """
    parts = []
    for layer in model.layers:
        if layer.coupling.variant == "General":
            parts.append(np.asarray(layer.coupling.generator.coeffs, dtype=float))
        else:
            parts.append(np.array([layer.theta]))
    parts.append(np.asarray(model.readout_w, dtype=float))
    parts.append(np.array([model.readout_b]))
    return np.concatenate(parts)


def unpack_params(model: ReuploadModel, p: np.ndarray) -> ReuploadModel:
    """Rebuild a model from the flat vector, preserving coupling structure."""
    layers = []
    k = 0
    for layer in model.layers:
        if layer.coupling.variant == "General":
            size = layer.coupling.generator.coeffs.size
            gen = HermitianGenerator(layer.coupling.generator.n_qubits, p[k : k + size].copy())
            layers.append(LayerSpec(layer.theta, CouplingSpec.general(gen)))
            k += size
        else:
            layers.append(LayerSpec(float(p[k]), layer.coupling))
            k += 1
    w = np.array(p[k : k + 3])
    b = float(p[k + 3])
    if k + 4 != p.size:
        raise ValueError(f"parameter vector has {p.size} entries, expected {k + 4}")
    return ReuploadModel(model.n_qubits, layers, w, b, model.initial_signal)


# ---------------------------------------------------------------------------
# gradients

def gradient_param_shift(model: ReuploadModel, rho, layer_index: int) -> float:
    """df/dtheta of layer layer_index (counted from 1) via the shift rule.

    Valid because f depends on a restricted layer's angle only through
    cos theta and sin theta, so [f(+pi/2 shift) - f(-pi/2 shift)] / 2 is the
    exact derivative.  General couplings carry multi-parameter generators
    for which the two-point rule does not hold.
    """
    if not 1 <= layer_index <= len(model.layers):
        raise ValueError(f"layer_index {layer_index} outside 1..{len(model.layers)}")
    layer = model.layers[layer_index - 1]
    if layer.coupling.variant == "General":
        raise ValueError("shift rule applies to restricted couplings only; use gradient_fd")

    def value(theta: float) -> float:
        layers = list(model.layers)
        layers[layer_index - 1] = LayerSpec(theta, layer.coupling)
        shifted = ReuploadModel(
            model.n_qubits, layers, model.readout_w, model.readout_b, model.initial_signal
        )
        return run_model(shifted, rho)[1]

    return (value(layer.theta + np.pi / 2) - value(layer.theta - np.pi / 2)) / 2.0


def gradient_fd(model: ReuploadModel, batch, config: TrainConfig = None) -> np.ndarray:
    """Central-difference loss gradient over the full parameter vector.

    Ordering matches pack_params.  Shot sampling, when enabled, reuses one
    seed per evaluation so the differences stay deterministic.
    """
    config = config or TrainConfig()
    lam = _lam_ext(batch, model.n_qubits)
    y = _labels(batch)
    p0 = pack_params(model)

    def loss_at(p: np.ndarray) -> float:
        m = unpack_params(model, p)
        rng = np.random.default_rng(config.seed)
        f = _readout(_forward(m, lam), m.readout_w, m.readout_b, config.shots, rng)
        return _loss_terms(f, y, config)[0]

    return fd_jacobian(loss_at, p0, FD_STEP)


def _generator_gradient(generators, g: np.ndarray) -> np.ndarray:
    """Pull dloss/dt_C back to the Pauli coefficients of General generators,
    all at once: row k of the (G, 4**(n+1) - 1) result is generators[k]'s.

    g[k, i, j, alpha] is dloss/dt_C[i, j, alpha] for the k-th coupling's
    transfer tensor t_C (the layer's tensor before the signal z-rotation),
    flattened over (j, alpha), shape (G, 3, 4**(n+1)).  With U = exp(iH) and
    d = 2**n, dloss = Re tr(dU M) / d for M = sum g[i, m] P_m U^dag (sigma_i
    (x) I).  The derivative of exp(iH) along dH is V (Phi o V^dag dH V) V^dag
    for H = V diag(lam) V^dag, with Phi the symmetric matrix of divided
    differences of exp(i .) (Daleckii-Krein), so dloss/dc_k =
    Re tr(P_k Q) / d with Q = V (Phi o V^dag M V) V^dag.  One stacked eigh
    serves every generator; the sums over the words are one pauli_sum and
    one pauli_traces.
    """
    n_qubits = generators[0].n_qubits - 1
    words = pauli_word_basis(n_qubits + 1)
    vals, vecs = np.linalg.eigh(generator_matrices(generators))
    vecs_dag = vecs.conj().swapaxes(-1, -2)
    u_dag = vecs @ (np.exp(-1j * vals)[..., None] * vecs_dag)
    b = pauli_sum(g)
    # sigma_i (x) I for i = 1..3 are the words 4**n * i
    m = np.sum(b @ u_dag[:, None] @ words[4**n_qubits :: 4**n_qubits], axis=1)
    m_eig = vecs_dag @ m @ vecs
    # (e^{ia} - e^{ib}) / (a - b) in a form that stays exact as a -> b
    gap = vals[:, :, None] - vals[:, None, :]
    phi = 1j * np.exp(0.5j * (vals[:, :, None] + vals[:, None, :])) * np.sinc(gap / (2 * np.pi))
    q = vecs @ (phi * m_eig) @ vecs_dag
    return pauli_traces(q)[:, 1:].real / 2**n_qubits


def _loss_gradient(model: ReuploadModel, lam, forward, dldf: np.ndarray) -> np.ndarray:
    """Loss gradient in pack_params order from forward = _forward_states(model,
    lam) and the loss's derivative dldf in the exact outputs.

    Per layer, one adjoint contraction over the samples gives
    G[i, j, alpha] = dloss/dt[i, j, alpha] for the layer's transfer tensor t.
    Every tensor is its coupling's tensor t_C turned by the signal z-rotation
    on the j axis, t = t_C (1 (+) R(theta)).  A General layer's G_C =
    G (1 (+) R(theta))^T is collected, and after the sweep one
    _generator_gradient call pulls every General layer's back through
    exp(iH) together.  A restricted angle only turns the rotation, so
    dt/dtheta = t Omega on the j axis with Omega[x, y] = -1, Omega[y, x] = 1.
    """
    n = lam.shape[0]
    tensors, maps, prefixes = forward

    # readout vector pulled back to just after each layer
    u = np.broadcast_to(model.readout_w, (n, 3))
    suffixes = [None] * len(model.layers)
    for li in range(len(model.layers) - 1, -1, -1):
        suffixes[li] = u
        u = np.einsum("nij,ni->nj", maps[li], u)

    grads, general = [], []
    for li, layer in enumerate(model.layers):
        # G[i, j, alpha] = sum_n dldf_n u_n[i] (1, r_prev)_n[j] lam_n[alpha]
        r_ext = np.concatenate([np.ones((n, 1)), prefixes[li]], axis=1)
        left = (dldf[:, None] * suffixes[li])[:, :, None] * r_ext[:, None, :]
        g = (left.reshape(n, 12).T @ lam).reshape(3, 4, -1)
        if layer.coupling.variant == "General":
            g[:, 1:] = rz_bloch(layer.theta) @ g[:, 1:]
            general.append((len(grads), layer.coupling.generator, g.reshape(3, -1)))
            grads.append(None)
        else:
            t = tensors[li]
            grads.append(np.array([np.sum(g[:, 1] * t[:, 2]) - np.sum(g[:, 2] * t[:, 1])]))
    if general:
        slots, generators, pulled = zip(*general)
        for slot, row in zip(slots, _generator_gradient(generators, np.stack(pulled))):
            grads[slot] = row
    grads.append(dldf @ prefixes[-1])
    grads.append(np.array([np.sum(dldf)]))
    return np.concatenate(grads)


def _batch_gradient(model: ReuploadModel, lam, y, config: TrainConfig) -> np.ndarray:
    """Exact-expectation loss gradient on one batch, from its own forward pass."""
    forward = _forward_states(model, lam)
    f = _readout(forward[2][-1], model.readout_w, model.readout_b, 0, None)
    return _loss_gradient(model, lam, forward, _loss_terms(f, y, config)[1])


# ---------------------------------------------------------------------------
# training loop

def _coefficient_axes(model: ReuploadModel):
    """The coefficient grid of a restricted model's readout polynomial, or
    None when a layer is General."""
    if any(layer.coupling.variant == "General" for layer in model.layers):
        return None
    return coefficient_grid([layer.coupling.pauli_pair[1] for layer in model.layers])


def _monomials(lam: np.ndarray, variables, shape) -> np.ndarray:
    """(N, C) monomials prod_k lam_{variables[k]}^e_k of the (1, lam) rows,
    in the flattened order of readout_chain's coefficient grid."""
    v = np.ones((lam.shape[0], 1))
    for a, size in zip(variables, shape):
        v = (v[:, :, None] * lam[:, a, None, None] ** np.arange(size)).reshape(lam.shape[0], -1)
    return v


def _sample_path(work: ReuploadModel, lam, y, config: TrainConfig):
    """(point, batch_gradient) of the adjoint path, which pushes every sample
    through every layer.  point(p) returns the exact outputs at p, their
    final Bloch vectors as a thunk, and the full-batch gradient as a
    function of dloss/df, all off one forward pass; batch_gradient(p, idx)
    is the gradient on the samples idx from their own forward pass."""

    def point(p):
        current = unpack_params(work, p)
        forward = _forward_states(current, lam)
        r = forward[2][-1]
        return (_readout(r, current.readout_w, current.readout_b, 0, None), lambda: r,
                lambda dldf: _loss_gradient(current, lam, forward, dldf))

    def batch_gradient(p, idx):
        return _batch_gradient(unpack_params(work, p), lam[idx], y[idx], config)

    return point, batch_gradient


def _coefficient_path(work: ReuploadModel, lam, y, config: TrainConfig, variables, shape):
    """(point, batch_gradient) as in _sample_path, on the coefficient chain of
    a restricted model: with V the samples' monomials and (a, J) one
    readout_system, the outputs are V a (w, b), the Bloch vectors V a[:, :3]
    and the gradient (V^T dloss/df) J.  In pack_params order p holds the L
    angles, then (w, b); readout_system reads them straight off p, with the
    couplings, n and the start state taken from work once, so no step
    builds a model."""
    v = _monomials(lam, variables, shape)
    couplings = [layer.coupling for layer in work.layers]
    L = len(couplings)

    def system(p):
        return readout_system(couplings, p[:L], p[L : L + 3], work.n_qubits,
                              work.initial_signal, variables, shape)

    def point(p):
        a, jac = system(p)
        return v @ (a @ p[-4:]), lambda: v @ a[:, :3], lambda dldf: (dldf @ v) @ jac

    def batch_gradient(p, idx):
        a, jac = system(p)
        vb = v[idx]
        return (_loss_terms(vb @ (a @ p[-4:]), y[idx], config)[1] @ vb) @ jac

    return point, batch_gradient


def train(model: ReuploadModel, train_set, test_set, config: TrainConfig = None) -> TrainReport:
    """Adam training; returns history, the trained model, and test metrics.

    loss_history[k] is the (possibly shot-sampled) full-train loss after k
    epochs, so it has max_epochs + 1 entries.  batch_size 0 uses the whole
    training set per update; otherwise epochs shuffle into minibatches.
    A model whose layers are all restricted trains on its readout
    polynomial's coefficients (_coefficient_path) when it has fewer of them
    than training samples; every other model on the samples (_sample_path).
    """
    config = config or TrainConfig()
    if not train_set or not test_set:
        raise ValueError("train and test sets must be non-empty")
    work = model_from_json(model_to_json(model))
    lam = _lam_ext(train_set, work.n_qubits)
    y = _labels(train_set)
    rng = np.random.default_rng(config.seed)
    n = len(train_set)
    axes = _coefficient_axes(work)
    if axes is not None and np.prod(axes[1]) < n:
        point, batch_gradient = _coefficient_path(work, lam, y, config, *axes)
    else:
        point, batch_gradient = _sample_path(work, lam, y, config)

    p = pack_params(work)
    m_adam = np.zeros(p.size)
    v_adam = np.zeros(p.size)
    steps = 0
    bs = config.batch_size if 0 < config.batch_size < n else n

    history = np.empty(config.max_epochs + 1)
    # An overflow anywhere in an epoch ends in a non-finite loss or
    # parameters, and the loop checks both and names the epoch, so numpy's
    # own overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs + 1):
            f, bloch, full_gradient = point(p)
            # gradients use the exact outputs; shots only sample the reported loss
            seen = _readout(bloch(), p[-4:-1], p[-1], config.shots, rng) if config.shots else f
            history[epoch], dldf = _loss_terms(seen, y, config)
            if not np.isfinite(history[epoch]):
                raise RuntimeError(f"training loss became non-finite after {epoch} epochs")
            if epoch == config.max_epochs:
                break
            order = rng.permutation(n) if bs < n else None
            for start in range(0, n, bs):
                if order is None:
                    # full batch: the recorded loss's point serves the gradient
                    if config.shots:
                        dldf = _loss_terms(f, y, config)[1]
                    g = full_gradient(dldf)
                else:
                    g = batch_gradient(p, order[start : start + bs])
                steps += 1
                m_adam = ADAM_BETA1 * m_adam + (1.0 - ADAM_BETA1) * g
                v_adam = ADAM_BETA2 * v_adam + (1.0 - ADAM_BETA2) * g * g
                m_hat = m_adam / (1.0 - ADAM_BETA1**steps)
                v_hat = v_adam / (1.0 - ADAM_BETA2**steps)
                p = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if not np.isfinite(p).all():
                    raise RuntimeError(f"parameters became non-finite in epoch {epoch + 1} "
                                       f"(learning rate {config.learning_rate:g})")

    trained = unpack_params(work, p)
    metric, histogram = evaluate(trained, test_set, config)
    return TrainReport(history, trained, metric, histogram)


def evaluate(model: ReuploadModel, dataset, config: TrainConfig = None):
    """Metric plus a 30-bin prediction histogram over the meta scalar.

    Returns (accuracy, histogram) under logistic loss and (mse, histogram)
    under mse loss; predicted class is f >= CLASSIFICATION_THRESHOLD either
    way.  Histogram rows are (bin_low, bin_high, count_class0, count_class1)
    over the first meta key among purity / entropy / r3 / lambda, or an
    empty list when none is present.
    """
    config = config or TrainConfig()
    if not dataset:
        raise ValueError("dataset must be non-empty")
    lam = _lam_ext(dataset, model.n_qubits)
    y = _labels(dataset)
    rng = np.random.default_rng(config.seed)
    f = _readout(_forward(model, lam), model.readout_w, model.readout_b, config.shots, rng)
    if config.loss == "mse":
        metric = float(np.mean((f - y) ** 2))
    else:
        pred = (f >= CLASSIFICATION_THRESHOLD).astype(float)
        metric = float(np.mean(pred == y))
    return metric, prediction_histogram(dataset, f)


def prediction_histogram(dataset, f: np.ndarray) -> list:
    key = next((k for k in META_KEYS if k in dataset[0].meta), None)
    if key is None:
        return []
    missing = next((k for k, item in enumerate(dataset) if key not in item.meta), None)
    if missing is not None:
        raise ValueError(f"dataset item {missing} has no {key!r} in its meta, as item 0 has")
    x = np.array([item.meta[key] for item in dataset], dtype=float)
    lo, hi = float(np.min(x)), float(np.max(x))
    if not math.isfinite(hi - lo):
        raise ValueError(f"{key!r} meta spans [{lo:g}, {hi:g}], too wide for "
                         f"histogram edges in float64")
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    pred = np.asarray(f) >= CLASSIFICATION_THRESHOLD
    # array bins are half-open, the last one closed
    c0, _ = np.histogram(x[~pred], edges)
    c1, _ = np.histogram(x[pred], edges)
    return [(float(a), float(b), int(n0), int(n1))
            for a, b, n0, n1 in zip(edges[:-1], edges[1:], c0, c1)]


def random_model(n_qubits: int, n_layers: int, seed: int = 0,
                 restricted: bool = False) -> ReuploadModel:
    """Fresh starting point: General couplings with small random generators
    (or CNOT layers with small random angles), w ~ N(0, 0.5), b = 0.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(n_layers):
        if restricted:
            if n_qubits != 1:
                raise ValueError("restricted starting models use single-qubit CNOT couplings")
            layers.append(LayerSpec(rng.normal(scale=0.1), CouplingSpec.cnot()))
        else:
            gen = HermitianGenerator(
                n_qubits + 1, rng.normal(scale=0.1, size=4 ** (n_qubits + 1) - 1)
            )
            layers.append(LayerSpec(0.0, CouplingSpec.general(gen)))
    return ReuploadModel(n_qubits, layers, rng.normal(scale=0.5, size=3), 0.0)


# ---------------------------------------------------------------------------
# serialization

def report_to_json(report: TrainReport) -> str:
    rec = {
        "loss_history": [float(x) for x in report.loss_history],
        "final_params": json.loads(model_to_json(report.final_params)),
        "test_accuracy": float(report.test_accuracy),
        "histogram": [list(row) for row in report.histogram],
    }
    return json.dumps(rec)


def histogram_to_csv(histogram) -> str:
    lines = ["bin_low,bin_high,count_class0,count_class1"]
    for lo, hi, c0, c1 in histogram:
        lines.append(f"{lo!r},{hi!r},{c0},{c1}")
    return "\n".join(lines) + "\n"
