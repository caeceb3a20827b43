"""Each output check passes a correct output and rejects a corrupted one."""

import copy
import json

import numpy as np
import pytest

import checks
import workloads
from reupsim import channel, compiler, states, trainer, verify


def _with_bias(model, shift):
    return channel.ReuploadModel(model.n_qubits, model.layers, model.readout_w,
                                 model.readout_b + shift, model.initial_signal)


# ---------------------------------------------------------------------------
# entropy-train

@pytest.fixture(scope="module")
def entropy_run():
    train_set, test_set = states.generate_dataset("entropy", 40, 20, 3)
    model = trainer.random_model(2, 1, seed=11)
    report = trainer.train(model, train_set, test_set,
                           trainer.TrainConfig(loss="logistic", max_epochs=5))
    rec = json.loads(trainer.report_to_json(report))
    train = ([it.state.matrix for it in train_set], np.array([it.label for it in train_set]))
    test = ([it.state.matrix for it in test_set], np.array([it.label for it in test_set]))
    return rec, train, test


def _oracle(rec, mats):
    return checks.oracle_outputs(channel.model_from_json(json.dumps(rec["final_params"])), mats)


def test_entropy_labels_reject_a_flipped_label(entropy_run):
    _, (mats, y), _ = entropy_run
    assert checks.check_entropy_labels(mats, y) == []
    flipped = y.copy()
    flipped[7] = 1.0 - flipped[7]
    assert checks.check_entropy_labels(mats, flipped)


def test_test_accuracy_rejects_an_edited_value(entropy_run):
    rec, _, (mats, y) = entropy_run
    _, f = _oracle(rec, mats)
    assert checks.check_test_accuracy(rec["test_accuracy"], f, y) == []
    assert checks.check_test_accuracy(rec["test_accuracy"] + 1.0 / len(y), f, y)


def test_final_loss_rejects_a_shifted_bias(entropy_run):
    rec, (mats, y), _ = entropy_run
    _, f = _oracle(rec, mats)
    assert checks.check_final_logistic_loss(rec["loss_history"], f, y) == []
    shifted = copy.deepcopy(rec)
    shifted["final_params"]["b"] += 1e-3
    _, f = _oracle(shifted, mats)
    assert checks.check_final_logistic_loss(rec["loss_history"], f, y)


def test_loss_decrease_rejects_a_flat_history(entropy_run):
    rec, _, _ = entropy_run
    history = rec["loss_history"]
    assert checks.check_loss_decreased(history) == []
    assert checks.check_loss_decreased(history[:-1] + [history[0]])


def test_bloch_norms_reject_a_vector_outside_the_ball(entropy_run):
    rec, (mats, _), _ = entropy_run
    r, _ = _oracle(rec, mats)
    assert checks.check_bloch_norms(r) == []
    r[3] *= (1.0 + 1e-6) / np.linalg.norm(r[3])
    assert checks.check_bloch_norms(r)


# ---------------------------------------------------------------------------
# quartic-fit: an exact compiled quartic stands in for the trained model

@pytest.fixture(scope="module")
def quartic_fit():
    # 3 (l + 0.8) l (l - 0.5)^2 + 0.3 = 0.3 + 0.6 l - 1.65 l^2 - 0.6 l^3 + 3 l^4, l = lam_3
    terms = [(0.6, {3: 1}), (-1.65, {3: 2}), (-0.6, {3: 3}), (3.0, {3: 4})]
    poly = compiler.PolynomialSpec(1, 0.3, [compiler.MonomialSpec(c, e) for c, e in terms])
    model = compiler.fit_coefficients(poly).model
    grid, _ = states.generate_dataset("psi-grid", 101, 1, 0)
    items = [states.LabeledState(it.state, checks.quartic(it.meta["lambda"]), it.meta)
             for it in grid]
    recorded, _ = trainer.evaluate(model, items, trainer.TrainConfig(loss="mse"))
    return model, [it.state.matrix for it in items], recorded


def test_quartic_fit_rejects_a_model_off_by_more_than_the_tolerance(quartic_fit):
    model, mats, _ = quartic_fit
    _, f = checks.oracle_outputs(model, mats)
    assert checks.check_quartic_fit(mats, f) == []
    _, f = checks.oracle_outputs(_with_bias(model, 0.06), mats)
    assert checks.check_quartic_fit(mats, f)


def test_recorded_mse_rejects_a_shifted_bias(quartic_fit):
    model, mats, recorded = quartic_fit
    _, f = checks.oracle_outputs(model, mats)
    assert checks.check_recorded_mse(recorded, mats, f) == []
    _, f = checks.oracle_outputs(_with_bias(model, 1e-3), mats)
    assert checks.check_recorded_mse(recorded, mats, f)


# ---------------------------------------------------------------------------
# compile-certify

def _nudged(model, layer, d_theta):
    layers = list(model.layers)
    layers[layer] = channel.LayerSpec(layers[layer].theta + d_theta, layers[layer].coupling)
    return channel.ReuploadModel(model.n_qubits, layers, model.readout_w, model.readout_b,
                                 model.initial_signal)


@pytest.fixture(scope="module")
def compiled():
    out = {}
    rng = np.random.default_rng(5)
    for target in workloads.COMPILE_TARGETS:
        poly = workloads.polynomial(target)
        circuit = compiler.fit_coefficients(poly)
        basis = poly if len(poly.variables) > 1 else None
        mats = [workloads.random_density(target.n, rng, pure=k % 2 == 0) for k in range(16)]
        out[target.route] = (target, circuit, basis, mats)
    return out


@pytest.mark.parametrize("route", [t.route for t in workloads.COMPILE_TARGETS])
def test_compiled_values_reject_a_nudged_circuit(compiled, route):
    target, circuit, _, mats = compiled[route]
    _, f = checks.oracle_outputs(circuit.model, mats)
    assert checks.check_compiled_values(target, circuit.residual, mats, f) == []
    if route == "monomial":
        # the one-hot circuit sits at an extremum in its angles, so a small
        # angle nudge moves it at second order only; nudge the readout
        model = channel.ReuploadModel(circuit.model.n_qubits, circuit.model.layers,
                                      circuit.model.readout_w * (1 + 1e-4), circuit.model.readout_b)
    else:
        model = _nudged(circuit.model, 0, 1e-4)
    _, f = checks.oracle_outputs(model, mats)
    assert checks.check_compiled_values(target, circuit.residual, mats, f)


@pytest.mark.parametrize("route", [t.route for t in workloads.COMPILE_TARGETS])
def test_extracted_rejects_an_edited_coefficient(compiled, route):
    target, circuit, basis, _ = compiled[route]
    extracted = compiler.extract_coefficients(circuit, basis)
    assert checks.check_extracted(target, circuit.residual, extracted) == []
    edited = np.array(extracted, dtype=float)
    edited[-1] += 1e-5
    assert checks.check_extracted(target, circuit.residual, edited)


def test_extracted_rejects_a_nudged_univariate_circuit(compiled):
    target, circuit, basis, _ = compiled["univariate"]
    nudged = compiler.CompiledCircuit(_nudged(circuit.model, 0, 1e-4), circuit.active_layers)
    extracted = compiler.extract_coefficients(nudged, basis)
    assert checks.check_extracted(target, circuit.residual, extracted)


def test_compile_targets_take_their_declared_routes(monkeypatch):
    routes = {"univariate": "_fit_univariate", "monomial": "_fit_single_monomial",
              "two_squares": "_fit_two_squares", "kick": "_fit_kick_family",
              "general": "_fit_general"}
    taken = []
    for route, fn in routes.items():
        original = getattr(compiler, fn)
        monkeypatch.setattr(compiler, fn, lambda *a, _o=original, _r=route, **k:
                            taken.append(_r) or _o(*a, **k))
    for target in workloads.COMPILE_TARGETS:
        taken.clear()
        compiler.fit_coefficients(workloads.polynomial(target))
        assert taken == [target.route]


@pytest.fixture(scope="module")
def certificate_reports():
    return [verify.run_check(name, seed=2) for name in sorted(checks.CERTIFICATES)]


def test_certificates_reject_a_violation_above_tolerance(certificate_reports):
    assert checks.check_certificates(certificate_reports) == []
    edited = copy.deepcopy(certificate_reports)
    edited[1]["max_violation"] = 2e-9
    assert checks.check_certificates(edited)


def test_certificates_reject_a_failed_certificate(certificate_reports):
    edited = copy.deepcopy(certificate_reports)
    edited[3]["pass"] = False
    assert checks.check_certificates(edited)


def test_certificates_reject_a_missing_check_or_short_trials(certificate_reports):
    assert checks.check_certificates(certificate_reports[1:])
    edited = copy.deepcopy(certificate_reports)
    edited[0]["trials"] = 10
    assert checks.check_certificates(edited)


def test_swap_test_rejects_a_shifted_value():
    rng = np.random.default_rng(9)
    mats = [workloads.random_density(1 + k % 2, rng, pure=k % 3 == 0) for k in range(8)]
    values = [verify.swap_test_purity(states.DensityMatrix(m)) for m in mats]
    assert checks.check_swap_test(mats, values) == []
    values[2] += 1e-9
    assert checks.check_swap_test(mats, values)


def test_own_pauli_coefficients_match_a_known_state():
    # |0><0| (x) |+><+| has <Z (x) I> = <I (x) X> = <Z (x) X> = 1, all else 0
    m = np.kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5)).astype(complex)
    lam = checks.pauli_coefficients(m)
    ones = {1, 12, 13}  # base-4 indices of IX, ZI, ZX
    assert np.allclose(lam, [1.0 if a in ones else 0.0 for a in range(1, 16)])
