"""Compile target polynomials in the input Pauli coefficients into circuit
parameters.

A scheduled layer stack realizes the readout as a polynomial in the uploaded
state's Pauli coefficients: each layer multiplies the in-plane signal
components by one coefficient lam_alpha, and z-rotations move weight between
the fixed x component and the scaled plane.  Every route reads the
readout's coefficients and their exact Jacobian in the layer angles off
`channel.readout_system`, the one coefficient chain, which training uses
too; the Gauss-Newton fit hands it the slices of its parameter vector, so
a fit builds one model, the circuit it returns.  `extract_coefficients`
reads a circuit back independently, from probe inputs.  `schedule_layers`
lays out one block of couplings per target monomial,
`compile_univariate_delta` realizes a univariate coefficient ladder to
second order in a small angle scale, and `fit_coefficients` drives the
residual down with one damped Gauss-Newton fit over every angle and the
readout, or uses an exact one-hot, two-squares or near-singular kick
construction for the targets those cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, kron, unitary_to_generator
from .states import PauliWord
from .channel import (
    CouplingSpec,
    LayerSpec,
    ReuploadModel,
    affine_chain,
    build_coupling,
    coefficient_grid,
    initial_bloch,
    layer_affine_map,  # noqa: F401  unused; bench/workloads.py PATCHES wraps it in traced runs
    layer_transfer_tensor,
    readout_chain,
    readout_system,
)

CHECK_ROW_ATOL = 1e-8

# knob for the diagonal-quadratic construction; the unmatched cross terms it
# leaves behind scale linearly with this, the readout weights inversely
KICK_EPS = 3e-7

# Gauss-Newton search of the univariate and general routes: steps per start,
# the residual fit_coefficients accepts, and the seed of the random starts
FIT_MAX_ITER = 100
FIT_TOL = 1e-6
FIT_SEED = 0


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(slots=True)
class MonomialSpec:
    """One monomial: coeff * prod_alpha lam_alpha ** exps[alpha]."""

    coeff: float
    exps: dict

    def __post_init__(self):
        self.coeff = float(self.coeff)
        if not np.isfinite(self.coeff):
            raise ValueError(f"coeff must be finite, got {self.coeff}")
        if not isinstance(self.exps, dict) or not self.exps:
            raise ValueError(f"exps: a monomial needs a dict of at least one variable, got {self.exps!r}")
        if not all(map(_is_int, [*self.exps, *self.exps.values()])):
            raise ValueError(f"exps: variables and exponents must be ints, got {self.exps!r}")
        self.exps = {int(a): int(e) for a, e in self.exps.items()}
        if any(a < 1 for a in self.exps) or any(e < 1 for e in self.exps.values()):
            raise ValueError("variables are indexed from 1 and exponents from 1")

    @property
    def degree(self) -> int:
        return sum(self.exps.values())

    def evaluate(self, lam: np.ndarray) -> float:
        out = self.coeff
        for a, e in self.exps.items():
            out *= lam[a - 1] ** e
        return out


@dataclass(slots=True)
class PolynomialSpec:
    """Target polynomial c0 + sum of monomials over lam_1 .. lam_{4^n - 1}."""

    n_qubits: int
    c0: float
    monomials: list

    def __post_init__(self):
        if not _is_int(self.n_qubits) or self.n_qubits < 1:
            raise ValueError(f"n_qubits must be an int of at least 1, got {self.n_qubits!r}")
        self.c0 = float(self.c0)
        if not np.isfinite(self.c0):
            raise ValueError(f"c0 must be finite, got {self.c0}")
        top = 4**self.n_qubits - 1
        for m in self.monomials:
            if not isinstance(m, MonomialSpec):
                raise ValueError(f"monomials: expected MonomialSpec entries, got {m!r}")
            if max(m.exps) > top:
                raise ValueError(f"variable {max(m.exps)} out of range for {self.n_qubits} qubits")

    @property
    def variables(self) -> tuple:
        out = set()
        for m in self.monomials:
            out.update(m.exps)
        return tuple(sorted(out))

    @property
    def schedule_length(self) -> int:
        return sum(m.degree for m in self.monomials)

    def evaluate(self, lam) -> float:
        lam = np.asarray(lam, dtype=float)
        return self.c0 + sum(m.evaluate(lam) for m in self.monomials)


@dataclass(slots=True)
class CompiledCircuit:
    """A model realizing a target polynomial.

    active_layers are the 1-based indices that carry compiled angles or
    couplings with free parameters; residual is the sup-norm coefficient
    error of the realized polynomial, measured over every monomial the
    circuit can produce (unwanted cross terms included).
    """

    model: ReuploadModel
    active_layers: list
    delta: float = None
    residual: float = None


class CompileError(RuntimeError):
    """Fit did not reach tolerance; carries the best circuit found."""

    def __init__(self, message: str, circuit: CompiledCircuit = None):
        super().__init__(message)
        self.circuit = circuit
        self.residual = None if circuit is None else circuit.residual


def _coupling_for_variable(alpha: int, n_qubits: int) -> CouplingSpec:
    if n_qubits == 1:
        return CouplingSpec.cu_ij(1, alpha)
    return CouplingSpec.cu_alpha(PauliWord.from_index(alpha, n_qubits))


def schedule_layers(poly: PolynomialSpec) -> list:
    """Coupling schedule: one block per monomial, variables ascending.

    A monomial of degree e in lam_alpha contributes e copies of the coupling
    that scales by lam_alpha.  Zero-degree targets have no layers to schedule.
    """
    if poly.schedule_length == 0:
        raise ValueError("constant target has no layers to schedule")
    return [_coupling_for_variable(alpha, poly.n_qubits) for alpha in _schedule_variables(poly)]


def _schedule_variables(poly: PolynomialSpec) -> list:
    seq = []
    for m in poly.monomials:
        for alpha in sorted(m.exps):
            seq.extend([alpha] * m.exps[alpha])
    return seq


# ---------------------------------------------------------------------------
# exact univariate polynomial bookkeeping

def _small_angle_start(v: np.ndarray, delta: float):
    """Angles theta_l = v[L+1-l] * delta, l = 1..L, readout w = (0, 1/delta,
    0) and b = v[0] of the small-angle circuit of the ladder v (degree 0..L)."""
    return v[:0:-1] * delta, np.array([0.0, 1.0 / delta, 0.0]), v[0]


def compile_univariate_delta(target, delta: float) -> CompiledCircuit:
    """Small-angle compilation of a coefficient ladder v (degree 0..L) on L
    CNOT layers, error O(delta^2).

    theta_l = v[L+1-l] * delta puts each target coefficient into its own
    readout degree through the one-hot identity; w = (0, 1/delta, 0) undoes
    the scale and b carries the constant term exactly.
    """
    if not 0.0 < delta <= 0.1:
        raise ValueError(f"delta must lie in (0, 0.1], got {delta}")
    v = np.array(target, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1d coefficient vector")
    L = v.size - 1
    if L == 0:
        model = ReuploadModel(1, [LayerSpec(0.0, CouplingSpec.cnot())], np.zeros(3), v[0])
        return CompiledCircuit(model, [], delta=delta, residual=0.0)
    thetas, w, b = _small_angle_start(v, delta)
    model = ReuploadModel(1, [LayerSpec(th, CouplingSpec.cnot()) for th in thetas], w, b)
    c = readout_chain([CouplingSpec.cnot()] * L, thetas, 1, "plus", [3], [L + 1])[:, 0]
    realized = w @ c[1:] + b * c[0]
    return CompiledCircuit(
        model, list(range(1, L + 1)), delta=delta, residual=float(np.max(np.abs(realized - v)))
    )


# ---------------------------------------------------------------------------
# coefficient extraction from a circuit

def _chebyshev_nodes(count: int) -> np.ndarray:
    k = np.arange(count)
    return 0.9 * np.cos((2 * k + 1) * np.pi / (2 * count))


def _final_bloch(model: ReuploadModel, lam_ext: np.ndarray) -> np.ndarray:
    """Final signal Bloch vectors for stacked (1, lam) rows, shape (P, 3)."""
    tensors = layer_transfer_tensor(model.layers, model.n_qubits)
    return affine_chain(tensors, lam_ext, initial_bloch(model.initial_signal))[1][-1]


def _solve_probe_system(a: np.ndarray, y: np.ndarray):
    if np.linalg.matrix_rank(a, tol=1e-10 * max(1.0, np.max(np.abs(a)))) < a.shape[1]:
        raise ValueError("singular probe system; monomials are not distinguishable")
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.max(np.abs(a @ sol - y)))
    if resid > CHECK_ROW_ATOL:
        raise ValueError(
            f"probe check row residual {resid:.3e} exceeds 1e-8; "
            "the basis does not span the circuit's readout"
        )
    return sol


def extract_coefficients(circuit, basis: PolynomialSpec = None) -> np.ndarray:
    """Read the polynomial coefficients back off a circuit.

    Without a basis the schedule must scale by a single variable; the full
    degree ladder 0..L is recovered from L+2 Chebyshev probes (the spare one
    acts as a consistency row).  With a basis, one probe per monomial plus a
    zero and a half-scale check probe are used; every probe activates only
    the variables of its monomial, so cross terms the basis omits do not
    contaminate the solve.  Returns (c0, coefficients...) in basis order.
    """
    model = circuit.model if isinstance(circuit, CompiledCircuit) else circuit
    if basis is None:
        return _extract_univariate(model)
    if basis.n_qubits != model.n_qubits:
        raise ValueError(f"basis is over {basis.n_qubits} qubits, the circuit over {model.n_qubits}")
    monomials = basis.monomials
    probes = [dict()]
    seen = {}
    for m in monomials:
        key = tuple(sorted(m.exps))
        bump = seen.get(key, 0)
        seen[key] = bump + 1
        scale = 0.9 * 0.75**bump
        if model.n_qubits == 1:
            val = scale / np.sqrt(len(m.exps))
        else:
            val = scale / len(m.exps)
        probes.append({a: val for a in m.exps})
    if monomials:
        probes.append({a: 0.5 * x for a, x in probes[1].items()})
    lam_ext = np.zeros((len(probes), 4**model.n_qubits))
    lam_ext[:, 0] = 1.0
    for row, lam_sparse in zip(lam_ext, probes):
        for a, x in lam_sparse.items():
            row[a] = x
    rows = [[1.0] + [MonomialSpec(1.0, m.exps).evaluate(lam[1:]) for m in monomials]
            for lam in lam_ext]
    values = _final_bloch(model, lam_ext) @ model.readout_w + model.readout_b
    return _solve_probe_system(np.array(rows), values)


def _extract_univariate(model: ReuploadModel) -> np.ndarray:
    if any(l.coupling.variant == "General" for l in model.layers):
        raise ValueError("general couplings need an explicit monomial basis")
    variables = {l.coupling.pauli_pair[1] for l in model.layers}
    if len(variables) != 1:
        raise ValueError("schedule is not univariate; pass an explicit basis")
    var = variables.pop()
    L = len(model.layers)
    nodes = _chebyshev_nodes(L + 2)
    lam_ext = np.zeros((nodes.size, 4**model.n_qubits))
    lam_ext[:, 0] = 1.0
    lam_ext[:, var] = nodes
    values = _final_bloch(model, lam_ext) @ model.readout_w + model.readout_b
    a = np.vander(nodes, L + 1, increasing=True)
    return _solve_probe_system(a, values)


# ---------------------------------------------------------------------------
# Jacobian of the coefficient map at the zero-angle point

def jacobian_theta0(n_layers: int) -> np.ndarray:
    """Exact Jacobian of the coefficient ladder at theta = 0.

    Parameters are ordered (theta_1 .. theta_L, w1, w2, w3, b) around the
    point theta = 0, w = (0, 1, 0), b = 0 of an L-layer single-variable
    stack; rows are coefficient degrees 0..L.  The nonzero pattern is one
    1 per angle at degree L+1-l plus the (constant, w1) and (constant, b)
    entries, which is why dropping the w columns leaves an invertible map.
    """
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return readout_system([CouplingSpec.cnot()] * n_layers, np.zeros(n_layers),
                          np.array([0.0, 1.0, 0.0]), 1, "plus", [3], [n_layers + 1])[1]


# ---------------------------------------------------------------------------
# fitting

def _su2(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    gen = axis[0] * PAULIS[1] + axis[1] * PAULIS[2] + axis[2] * PAULIS[3]
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * gen


def _target_tensor(poly: PolynomialSpec, variables, shape) -> np.ndarray:
    """The target's coefficients on the grid; like monomials add up, and a
    sum past float64 is refused, since no fit reaches it."""
    t = np.zeros(shape)
    t[(0,) * len(shape)] = poly.c0
    pos = {v: k for k, v in enumerate(variables)}
    with np.errstate(over="ignore"):
        for m in poly.monomials:
            idx = [0] * len(shape)
            for a, e in m.exps.items():
                idx[pos[a]] = e
            t[tuple(idx)] += m.coeff
    if not np.isfinite(t).all():
        raise ValueError("target coefficients overflow float64 once like monomials are summed")
    return t


def _system_axes(poly: PolynomialSpec):
    """The coefficient grid of the schedule's layers."""
    return coefficient_grid(_schedule_variables(poly))


def _coefficient_system(model: ReuploadModel, poly: PolynomialSpec):
    """Readout coefficients of model against those of the target polynomial.

    Each scheduled variable's degree runs up to its count in the schedule,
    which covers every monomial the circuit can produce.  Returns
    (a, target): a as in channel.readout_system, target flattened the same way.
    """
    variables, shape = _system_axes(poly)
    a, _ = readout_system([l.coupling for l in model.layers], [l.theta for l in model.layers],
                          model.readout_w, model.n_qubits, model.initial_signal, variables, shape)
    return a, _target_tensor(poly, variables, shape).ravel()


def _circuit_residual(model: ReuploadModel, poly: PolynomialSpec) -> float:
    """Sup-norm coefficient error including every cross term."""
    a, target = _coefficient_system(model, poly)
    wb = np.concatenate([model.readout_w, [model.readout_b]])
    return float(np.max(np.abs(a @ wb - target)))


def _damped_gauss_newton(system, p: np.ndarray, max_iter: int, stop: float):
    """Drive the sup norm of the residual down; returns (p, sup norm).

    system(p) returns the residual at p and its exact Jacobian.  Each step
    solves the damped normal equations of the Jacobian at the current point
    and halves the step up to 20 times until the sup norm drops; the
    accepted candidate's Jacobian serves the next step, so no point is
    evaluated twice.
    Stops below stop, after max_iter steps, or when no halving helps.
    """
    r, jac = system(p)
    best = float(np.max(np.abs(r)))
    for _ in range(max_iter):
        if best < stop:
            break
        step, *_ = np.linalg.lstsq(jac.T @ jac + 1e-6 * np.eye(p.size), -jac.T @ r, rcond=None)
        scale = 1.0
        for _ in range(20):
            cand = p + scale * step
            cand_r, cand_jac = system(cand)
            cand_best = float(np.max(np.abs(cand_r)))
            if cand_best < best:
                p, r, jac, best = cand, cand_r, cand_jac, cand_best
                break
            scale /= 2
        else:
            break
    return p, best


def _fit_gauss_newton(poly: PolynomialSpec, starts) -> CompiledCircuit:
    """Damped Gauss-Newton over p = (theta_1 .. theta_L, w1, w2, w3, b).

    Each start runs until the sup-norm coefficient error drops below 1e-12;
    the search keeps the best run and stops at the first under FIT_TOL.
    Each point's residual and Jacobian come from one readout_system on the
    slices of p; the fit builds one model, the circuit it returns.
    """
    couplings = schedule_layers(poly)
    L = len(couplings)
    variables, shape = _system_axes(poly)
    target = _target_tensor(poly, variables, shape).ravel()

    def system(p):
        a, jac = readout_system(couplings, p[:L], p[L : L + 3], poly.n_qubits, "plus",
                                variables, shape)
        return a @ p[L:] - target, jac

    best_p, best_res = None, np.inf
    for p in starts:
        p, res = _damped_gauss_newton(system, p, FIT_MAX_ITER, 1e-12)
        if res < best_res:
            best_p, best_res = p, res
        if best_res < FIT_TOL:
            break
    layers = [LayerSpec(float(th), c) for th, c in zip(best_p[:L], couplings)]
    model = ReuploadModel(poly.n_qubits, layers, best_p[L : L + 3], float(best_p[L + 3]))
    return CompiledCircuit(model, list(range(1, L + 1)), residual=best_res)


def _fit_univariate(poly: PolynomialSpec) -> CompiledCircuit:
    """Starts at the small-angle circuit of the target's ladder, then at
    random angles with its readout."""
    thetas, w, b = _small_angle_start(_target_tensor(poly, *_system_axes(poly)), 1e-2)
    readout = np.concatenate([w, [b]])
    rng = np.random.default_rng(FIT_SEED)
    starts = [np.concatenate([thetas, readout])]
    starts += [np.concatenate([rng.normal(scale=0.3, size=thetas.size), readout])
               for _ in range(4)]
    return _fit_gauss_newton(poly, starts)


def _fit_single_monomial(poly: PolynomialSpec) -> CompiledCircuit:
    """One-hot exact realization of c0 + c * prod lam^e."""
    couplings = schedule_layers(poly)
    m = poly.monomials[0]
    layers = [LayerSpec(np.pi / 2 if k == 0 else 0.0, c) for k, c in enumerate(couplings)]
    model = ReuploadModel(poly.n_qubits, layers, np.array([0.0, m.coeff, 0.0]), poly.c0)
    return CompiledCircuit(model, [1], residual=_circuit_residual(model, poly))


def _is_diag_quadratic(poly: PolynomialSpec) -> bool:
    vs = []
    for m in poly.monomials:
        if len(m.exps) != 1:
            return False
        (a, e), = m.exps.items()
        if e != 2:
            return False
        vs.append(a)
    return len(set(vs)) == len(vs)


def _fit_two_squares(poly: PolynomialSpec) -> CompiledCircuit:
    """Exact four-layer realization of c0 + ca lam_a^2 + cb lam_b^2.

    With interior angles zero, a pi/4 kick at layer 1 and a quarter turn at
    layer 3, the x readout carries -sin(t1) lam_a^2 and the y readout
    cos(t1) lam_b^2 with no cross terms at all.
    """
    ca, cb = (m.coeff for m in poly.monomials)
    couplings = schedule_layers(poly)
    layers = [
        LayerSpec(np.pi / 4, couplings[0]),
        LayerSpec(0.0, couplings[1]),
        LayerSpec(np.pi / 2, couplings[2]),
        LayerSpec(0.0, couplings[3]),
    ]
    s1 = c1 = np.sqrt(0.5)
    w = np.array([-ca / s1, cb / c1, 0.0])
    model = ReuploadModel(poly.n_qubits, layers, w, poly.c0)
    return CompiledCircuit(model, [1, 3], residual=_circuit_residual(model, poly))


def _fit_kick_family(poly: PolynomialSpec) -> CompiledCircuit:
    """Three single-variable squares via first-order kicks and a quarter turn.

    Tiny y-kicks at layers 1 and 3 imprint lam_1^2 and lam_2^2 on the x
    component at second order; a quarter turn about y at layer 5 dumps the
    order-one x amplitude into the plane where it picks up lam_3^2.  The
    readout weight on x grows like 1/eps while the unmatched cross terms
    shrink like eps, so the family approaches the target without ever
    reaching it exactly.
    """
    cs = [m.coeff for m in poly.monomials]
    scale = max(abs(cs[0]), abs(cs[1]))
    eps = KICK_EPS
    if scale == 0.0:
        s1 = alpha = beta = 0.0
    else:
        g1, g2 = cs[0] / scale, cs[1] / scale
        s1 = np.sqrt(eps * abs(g1))
        alpha = -np.sign(g1) * s1 if s1 > 0 else 0.0
        beta = eps * g2
    couplings = schedule_layers(poly)

    def build(gamma_sign, beta_sign):
        beta_eff = beta_sign * beta
        gamma = gamma_sign * np.pi / 4
        layers = [LayerSpec(float(np.arcsin(s1)), couplings[0]), LayerSpec(0.0, couplings[1])]
        norm3 = np.hypot(alpha, beta_eff)
        if norm3 > 0:
            u3 = build_coupling(couplings[2], poly.n_qubits) @ kron(
                _su2((0.0, -beta_eff, alpha), np.arcsin(norm3)), np.eye(2**poly.n_qubits)
            )
            layers.append(LayerSpec(0.0, CouplingSpec.general(unitary_to_generator(u3))))
        else:
            layers.append(LayerSpec(0.0, couplings[2]))
        layers.append(LayerSpec(0.0, couplings[3]))
        u5 = build_coupling(couplings[4], poly.n_qubits) @ kron(
            _su2((0.0, 1.0, 0.0), gamma), np.eye(2**poly.n_qubits)
        )
        layers.append(LayerSpec(0.0, CouplingSpec.general(unitary_to_generator(u5))))
        layers.append(LayerSpec(0.0, couplings[5]))
        model = ReuploadModel(poly.n_qubits, layers, np.zeros(3), 0.0)
        a, target = _coefficient_system(model, poly)
        sol, *_ = np.linalg.lstsq(a, target, rcond=None)
        res = float(np.max(np.abs(a @ sol - target)))
        model.readout_w = sol[:3]
        model.readout_b = float(sol[3])
        return model, res

    best_model, best_res = None, np.inf
    for gs, bs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        model, res = build(gs, bs)
        if res < best_res:
            best_model, best_res = model, res
        if best_res <= 2 * eps:
            break
    return CompiledCircuit(best_model, [1, 3, 5], residual=best_res)


def _fit_general(poly: PolynomialSpec) -> CompiledCircuit:
    """Five random starts over all angles and the readout."""
    if int(np.prod(_system_axes(poly)[1])) > 4096:
        raise CompileError("target spans too many coefficients to certify")
    rng = np.random.default_rng(FIT_SEED)
    starts = [np.concatenate([rng.normal(scale=0.4, size=poly.schedule_length),
                              rng.normal(scale=0.5, size=3), [poly.c0]]) for _ in range(5)]
    return _fit_gauss_newton(poly, starts)


def fit_coefficients(poly: PolynomialSpec) -> CompiledCircuit:
    """Fit circuit parameters so the readout matches the target polynomial.

    Dispatch: a single monomial in several variables is realized exactly
    one-hot and two or three single-variable squares use dedicated
    constructions.  Every other target goes to the one Gauss-Newton fit
    (_fit_gauss_newton): univariate targets start from the small-angle
    circuit, the rest from random points.  Raises CompileError carrying the
    best circuit if the residual stays above FIT_TOL.
    """
    nvars = len(poly.variables)
    if nvars == 0:
        model = ReuploadModel(poly.n_qubits, [LayerSpec(0.0, _coupling_for_variable(3, poly.n_qubits))],
                              np.zeros(3), poly.c0)
        return CompiledCircuit(model, [], residual=0.0)
    if nvars == 1:
        circ = _fit_univariate(poly)
    elif len(poly.monomials) == 1:
        circ = _fit_single_monomial(poly)
    elif _is_diag_quadratic(poly) and len(poly.monomials) == 2:
        circ = _fit_two_squares(poly)
    elif _is_diag_quadratic(poly) and len(poly.monomials) == 3:
        circ = _fit_kick_family(poly)
    else:
        circ = _fit_general(poly)
    if circ.residual > FIT_TOL:
        raise CompileError(
            f"fit stopped at residual {circ.residual:.3e} > tol {FIT_TOL:.1e}", circ
        )
    return circ
