"""End-to-end acceptance runs.

Each test exercises one headline guarantee at its stated tolerance and
prints a single pass/fail line (visible with pytest -s).  The training
criteria rerun full ladders, so this module takes most of the suite's time,
about 25 s on a 2-vCPU machine with numpy 2.4.
"""

import time

import numpy as np
import pytest

from reupsim.channel import (
    CouplingSpec,
    LayerSpec,
    ReuploadModel,
    apply_layer,
    hadamard_test,
    layer_affine_map,
    run_model,
)
from reupsim.compiler import (
    MonomialSpec,
    PolynomialSpec,
    compile_univariate_delta,
    extract_coefficients,
    fit_coefficients,
    jacobian_theta0,
)
from reupsim.linalg import HermitianGenerator, haar_unitary
from reupsim.states import (
    DensityMatrix,
    LabeledState,
    PauliWord,
    PURITY_LABEL_THRESHOLD,
    bloch_vector,
    generate_dataset,
    psi_t,
    purity,
    sample_bloch_ball,
)
from reupsim.trainer import TrainConfig, random_model, train
from reupsim.verify import (
    evolution_formula_check,
    observation1_check,
    purity_observable_det,
    swap_test_check,
)

DATASET_SEED = 7
MODEL_SEED = 11


def report(num: int, name: str, detail: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    return ok


def _random_density(n: int, rng) -> DensityMatrix:
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, n)


def _grid_items(fn, count: int = 101) -> list:
    out = []
    for k in range(count):
        lam = -1.0 + 2.0 * (k + 1) / (count + 1)
        out.append(LabeledState(psi_t(np.sqrt((1 + lam) / 2)), fn(lam), {"lambda": lam}))
    return out


def _ladder(task: str, n_env: int, bands) -> list:
    train_set, test_set = generate_dataset(task, 1000, 500, DATASET_SEED)
    config = TrainConfig(loss="logistic", max_epochs=300, seed=0)
    rows = []
    for layers, op, bound in bands:
        rep = train(random_model(n_env, layers, seed=MODEL_SEED), train_set, test_set, config)
        acc = rep.test_accuracy
        ok = acc <= bound if op == "<=" else acc >= bound
        rows.append((layers, acc, op, bound, ok))
    return rows


def _ladder_report(num: int, name: str, rows, elapsed: float, budget: float):
    detail = ", ".join(f"L={l} acc {a:.3f} ({op} {b})" for l, a, op, b, _ in rows)
    ok = all(r[4] for r in rows) and elapsed < budget
    assert report(num, name, f"{detail}; {elapsed:.0f}s < {budget:.0f}s", ok)


def test_criterion_01_evolution_formula():
    t0 = time.perf_counter()
    rep = evolution_formula_check(trials=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep["max_violation"] <= 1e-10 and elapsed < 5.0
    assert report(1, "evolution formula",
                  f"max deviation {rep['max_violation']:.3g} <= 1e-10, {elapsed:.2f}s < 5s", ok)


def test_criterion_02_affine_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        gen = HermitianGenerator(n + 1, rng.normal(scale=0.7, size=4 ** (n + 1) - 1))
        layer = LayerSpec(float(rng.uniform(-np.pi, np.pi)), CouplingSpec.general(gen))
        rho = _random_density(n, rng)
        tau = sample_bloch_ball(rng)
        direct = bloch_vector(apply_layer(tau, rho, layer))
        via_map = layer_affine_map(layer, rho).apply(bloch_vector(tau))
        worst = max(worst, float(np.max(np.abs(direct - via_map))))
    assert report(2, "affine map equivalence",
                  f"max deviation {worst:.3g} <= 1e-10 over 200 layers", worst <= 1e-10)


def test_criterion_03_delta_limit():
    rng = np.random.default_rng(2)
    worst_err = 0.0
    ratios = []
    for _ in range(50):
        L = int(rng.integers(1, 7))
        v = rng.normal(size=L + 1)
        errs = []
        for delta in (1e-3, 5e-4):
            circ = compile_univariate_delta(v, delta)
            errs.append(float(np.max(np.abs(extract_coefficients(circ) - v))))
        worst_err = max(worst_err, errs[0])
        ratios.append(errs[0] / errs[1])
    ratios = np.array(ratios)
    ok = worst_err <= 1e-4 and np.all(ratios >= 4 / 1.15) and np.all(ratios <= 4 * 1.15)
    assert report(3, "delta parameterization limit",
                  f"max coeff error {worst_err:.3g} <= 1e-4, halving ratio in "
                  f"[{ratios.min():.2f}, {ratios.max():.2f}] vs 4 +/- 15%", ok)


def test_criterion_04_jacobian_pattern():
    ok = True
    worst = 0.0
    for L in range(1, 7):
        jac = jacobian_theta0(L)
        want = np.zeros((L + 1, L + 4))
        want[0, L] = 1.0
        want[0, L + 3] = 1.0
        for l in range(1, L + 1):
            want[L + 1 - l, l - 1] = 1.0
        worst = max(worst, float(np.max(np.abs(jac - want))))
        reduced = np.delete(jac, [L, L + 1, L + 2], axis=1)
        if abs(np.linalg.det(reduced)) < 0.5:
            ok = False
    ok = ok and worst <= 1e-6
    assert report(4, "jacobian pattern",
                  f"max pattern deviation {worst:.3g} <= 1e-6, reduced block invertible "
                  f"for L=1..6", ok)


def test_criterion_05_polynomial_fitting():
    results = []
    for name, fn, layers, epochs in (
        ("lambda", lambda lam: lam, 1, 300),
        ("quartic", lambda lam: 3 * (lam + 0.8) * lam * (lam - 0.5) ** 2 + 0.3, 4, 2000),
    ):
        t0 = time.perf_counter()
        items = _grid_items(fn)
        config = TrainConfig(loss="mse", max_epochs=epochs, seed=0)
        rep = train(random_model(1, layers, seed=MODEL_SEED, restricted=True),
                    items, items, config)
        worst = max(abs(run_model(rep.final_params, it.state)[1] - it.label) for it in items)
        elapsed = time.perf_counter() - t0
        results.append((name, worst, elapsed))
    ok = all(w <= 0.05 and e < 120 for _, w, e in results)
    detail = ", ".join(f"{n} max-abs {w:.2g} ({e:.0f}s)" for n, w, e in results)
    assert report(5, "trained polynomial fits", f"{detail}; <= 0.05, < 2 min each", ok)


def test_criterion_06_purity_classification():
    t0 = time.perf_counter()
    rows = _ladder("purity", 1, [(1, "<=", 0.65), (2, "<=", 0.75),
                                 (3, ">=", 0.88), (4, ">=", 0.93)])
    _ladder_report(6, "purity classification", rows, time.perf_counter() - t0, 600)


def test_criterion_07_entropy_classification():
    t0 = time.perf_counter()
    rows = _ladder("entropy", 2, [(1, "<=", 0.60), (2, ">=", 0.78),
                                  (3, ">=", 0.85), (4, ">=", 0.87)])
    _ladder_report(7, "entropy classification", rows, time.perf_counter() - t0, 600)


def test_criterion_08_band_classification():
    t0 = time.perf_counter()
    rows = _ladder("band", 1, [(1, "<=", 0.60), (2, ">=", 0.95)])
    rows += _ladder("double-band", 1, [(2, "<=", 0.65), (3, ">=", 0.95)])
    _ladder_report(8, "band classification", rows, time.perf_counter() - t0, 600)


def test_criterion_09_purity_expressibility():
    target = PolynomialSpec(1, 0.5, [MonomialSpec(0.5, {1: 2}),
                                     MonomialSpec(0.5, {2: 2}),
                                     MonomialSpec(0.5, {3: 2})])
    circ = fit_coefficients(target)
    _, fresh = generate_dataset("purity", 1, 500, seed=99)
    correct = 0
    for item in fresh:
        f = run_model(circ.model, item.state)[1]
        correct += float(f >= PURITY_LABEL_THRESHOLD) == item.label
    acc = correct / len(fresh)
    ok = circ.residual <= 1e-6 and acc >= 0.999
    assert report(9, "six-layer purity circuit",
                  f"fit residual {circ.residual:.3g} <= 1e-6, fresh accuracy {acc:.4f} >= 0.999",
                  ok)


def test_criterion_10_observation1():
    rep = observation1_check(trials=1000, seed=0)
    rng = np.random.default_rng(3)
    worst_det = 0.0
    for _ in range(200):
        c = rng.uniform(-2.0, 2.0, size=6)
        det = purity_observable_det(c)
        closed = 1.0 + c[0] ** 2 + (c[2] + c[4]) ** 2 + (c[3] + c[5]) ** 2
        worst_det = max(worst_det, abs(det - closed))
    ok = rep["max_violation"] <= 1e-9 and worst_det <= 1e-10
    assert report(10, "observation 1 certificate",
                  f"max |det T| {rep['max_violation']:.3g} <= 1e-9 over 1000 trials, "
                  f"observable det error {worst_det:.3g} <= 1e-10 over 200 draws", ok)


def test_criterion_11_swap_and_hadamard_tests():
    swap = swap_test_check(trials=100, seed=0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        rho = _random_density(n, rng)
        u = haar_unitary(2**n, rng)
        direct = complex(np.trace(rho.matrix @ u))
        worst = max(worst, abs(hadamard_test(rho, u) - direct.real),
                    abs(hadamard_test(rho, u, imag=True) - direct.imag))
    ok = swap["max_violation"] <= 1e-10 and worst <= 1e-10
    assert report(11, "swap and hadamard tests",
                  f"swap max deviation {swap['max_violation']:.3g}, hadamard max deviation "
                  f"{worst:.3g}; both <= 1e-10 over 100 trials", ok)


def test_criterion_12_gradient_suite():
    rng = np.random.default_rng(6)
    from reupsim.trainer import gradient_param_shift

    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 6))
        layers = []
        for _ in range(L):
            kind = rng.integers(0, 3)
            if kind == 0:
                coupling = CouplingSpec.cnot()
            elif kind == 1:
                coupling = CouplingSpec.cu_ij(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            else:
                coupling = CouplingSpec.cu_alpha(PauliWord.from_index(int(rng.integers(1, 4)), 1))
            layers.append(LayerSpec(float(rng.uniform(-np.pi, np.pi)), coupling))
        model = ReuploadModel(1, layers, rng.normal(size=3), float(rng.normal()))
        rho = _random_density(1, rng)
        idx = int(rng.integers(1, L + 1))
        shifted = gradient_param_shift(model, rho, idx)
        h = 1e-6

        def f_at(th):
            ls = list(model.layers)
            ls[idx - 1] = LayerSpec(th, ls[idx - 1].coupling)
            return run_model(ReuploadModel(1, ls, model.readout_w, model.readout_b), rho)[1]

        theta = model.layers[idx - 1].theta
        fd = (f_at(theta + h) - f_at(theta - h)) / (2 * h)
        worst = max(worst, abs(shifted - fd))
    assert report(12, "parameter shift gradients",
                  f"max |shift - fd| {worst:.3g} <= 1e-7 over 100 models", worst <= 1e-7)
