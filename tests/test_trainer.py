import numpy as np
import pytest
from numpy.testing import assert_array_equal

from reupsim import trainer
from reupsim.channel import CouplingSpec, LayerSpec, ReuploadModel, model_to_json, run_model
from reupsim.compiler import MonomialSpec, PolynomialSpec, fit_coefficients
from reupsim.linalg import HermitianGenerator, letters_to_index, pauli_word_basis
from reupsim.states import LabeledState, density_from_bloch, generate_dataset, pauli_coeffs, psi_t
from reupsim.trainer import (
    TrainConfig,
    TrainReport,
    evaluate,
    gradient_fd,
    gradient_param_shift,
    histogram_to_csv,
    pack_params,
    prediction_histogram,
    random_model,
    report_to_json,
    train,
    unpack_params,
)
from reupsim.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _batch_gradient,
    _forward,
    _generator_gradient,
    _lam_ext,
    _labels,
    _loss_terms,
    _readout,
)


def onehot_model(n_layers: int, hot: int, theta: float) -> ReuploadModel:
    layers = [
        LayerSpec(theta if l == hot else 0.0, CouplingSpec.cnot())
        for l in range(1, n_layers + 1)
    ]
    return ReuploadModel(1, layers, np.array([0.0, 1.0, 0.0]), 0.0)


def grid_dataset(count: int = 101) -> list:
    out = []
    for k in range(count):
        lam = -1.0 + 2.0 * (k + 1) / (count + 1)
        out.append(LabeledState(psi_t(np.sqrt((1 + lam) / 2)), lam, {"lambda": lam}))
    return out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"learning_rate must be positive and finite, got {lr}"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError):
            TrainConfig(shots=2)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-1)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.loss == "mse"
        assert cfg.shots == 0


class TestParamVector:
    def test_round_trip_mixed(self):
        gen = HermitianGenerator(2, np.linspace(-0.3, 0.4, 15))
        model = ReuploadModel(
            1,
            [LayerSpec(0.7, CouplingSpec.cnot()), LayerSpec(0.0, CouplingSpec.general(gen))],
            np.array([0.1, -0.2, 0.3]),
            0.05,
        )
        p = pack_params(model)
        assert p.size == 1 + 15 + 3 + 1
        rebuilt = unpack_params(model, p)
        assert model_to_json(rebuilt) == model_to_json(model)

    def test_wrong_length(self):
        model = onehot_model(2, 1, 0.3)
        with pytest.raises(ValueError):
            unpack_params(model, np.zeros(99))


class TestParamShift:
    def test_one_hot_analytic(self):
        # f = lam^(L+1-l) sin(theta), so df/dtheta = lam^(L+1-l) cos(theta)
        for L, hot, theta in [(1, 1, 0.3), (3, 2, -0.9), (4, 4, 1.2)]:
            model = onehot_model(L, hot, theta)
            for lam in (-0.6, 0.2, 0.8):
                rho = psi_t(np.sqrt((1 + lam) / 2))
                got = gradient_param_shift(model, rho, hot)
                assert got == pytest.approx(lam ** (L + 1 - hot) * np.cos(theta), abs=1e-12)

    def test_theta_independent_output(self):
        # z-rotations fix a signal that starts on the z axis, and the x
        # readout of the coupled state stays zero
        layers = [LayerSpec(0.4, CouplingSpec.cnot()), LayerSpec(-1.1, CouplingSpec.cnot())]
        model = ReuploadModel(1, layers, np.array([1.0, 0.0, 0.0]), 0.0, initial_signal="zero")
        rho = psi_t(0.8)
        for l in (1, 2):
            assert gradient_param_shift(model, rho, l) == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(30):
            L = int(rng.integers(1, 5))
            layers = [LayerSpec(rng.uniform(-np.pi, np.pi), CouplingSpec.cnot()) for _ in range(L)]
            model = ReuploadModel(1, layers, rng.normal(size=3), rng.normal())
            rho = density_from_bloch(0.8 * rng.uniform() * _unit(rng))
            l = int(rng.integers(1, L + 1))
            h = 1e-6
            shifted = gradient_param_shift(model, rho, l)

            def f_at(th):
                ls = list(model.layers)
                ls[l - 1] = LayerSpec(th, ls[l - 1].coupling)
                m = ReuploadModel(1, ls, model.readout_w, model.readout_b)
                return run_model(m, rho)[1]

            fd = (f_at(model.layers[l - 1].theta + h) - f_at(model.layers[l - 1].theta - h)) / (2 * h)
            worst = max(worst, abs(shifted - fd))
        assert worst <= 1e-7

    def test_general_layer_rejected(self):
        model = random_model(1, 2, seed=0)
        rho = density_from_bloch(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            gradient_param_shift(model, rho, 1)

    def test_index_range(self):
        model = onehot_model(2, 1, 0.3)
        rho = psi_t(0.5)
        with pytest.raises(ValueError):
            gradient_param_shift(model, rho, 0)
        with pytest.raises(ValueError):
            gradient_param_shift(model, rho, 3)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestGradientFD:
    def test_bias_gradient_single_sample(self):
        model = onehot_model(2, 1, 0.7)
        item = LabeledState(psi_t(0.6), 0.9, {})
        _, f = run_model(model, item.state)
        g = gradient_fd(model, [item], TrainConfig(loss="mse"))
        assert g[-1] == pytest.approx(2 * (f - 0.9), abs=1e-8)

    def test_w_gradient_single_sample(self):
        model = onehot_model(2, 1, 0.7)
        item = LabeledState(psi_t(0.6), 0.9, {})
        r, f = run_model(model, item.state)
        g = gradient_fd(model, [item], TrainConfig(loss="mse"))
        np.testing.assert_allclose(g[-4:-1], 2 * (f - 0.9) * r, atol=1e-8)

    def test_zero_at_exact_interpolant(self):
        circ = fit_coefficients(PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {3: 1})]))
        g = gradient_fd(circ.model, grid_dataset(21), TrainConfig(loss="mse"))
        assert np.max(np.abs(g)) <= 1e-8

    def test_matches_internal_engine(self):
        for n_qubits, task in ((1, "purity"), (2, "entropy")):
            dataset, _ = generate_dataset(task, 10, 2, seed=3)
            lam, y = _lam_ext(dataset, n_qubits), _labels(dataset)
            for n_layers in (1, 2, 3):
                model = random_model(n_qubits, n_layers, seed=4)
                for loss in ("mse", "logistic"):
                    cfg = TrainConfig(loss=loss)
                    g_engine = _batch_gradient(model, lam, y, cfg)
                    np.testing.assert_allclose(g_engine, gradient_fd(model, dataset, cfg),
                                               rtol=0, atol=1e-6,
                                               err_msg=f"n={n_qubits} L={n_layers} {loss}")

    def test_engine_saturated_logistic(self):
        # some outputs sit near p = 1e-6, where the loss's 1e-12 guard shows
        dataset, _ = generate_dataset("purity", 10, 2, seed=3)
        model = random_model(1, 1, seed=5)
        cfg = TrainConfig(loss="logistic")
        g_engine = _batch_gradient(model, _lam_ext(dataset, 1), _labels(dataset), cfg)
        np.testing.assert_allclose(g_engine, gradient_fd(model, dataset, cfg), rtol=0, atol=1e-6)

    def test_engine_logistic_near_one(self):
        # the kept x component gives f = 2, p = 1 - 3e-7, on every state; on
        # class-0 states the loss must not take 1 - p by subtraction
        dataset, _ = generate_dataset("purity", 10, 2, seed=3)
        model = ReuploadModel(1, [LayerSpec(0.0, CouplingSpec.cnot())], np.array([1.0, 0.0, 0.0]), 1.0)
        cfg = TrainConfig(loss="logistic")
        g_engine = _batch_gradient(model, _lam_ext(dataset, 1), _labels(dataset), cfg)
        np.testing.assert_allclose(g_engine, gradient_fd(model, dataset, cfg), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("loss", ["mse", "logistic"])
    def test_engine_mixed_cnot_and_general(self, loss):
        rng = np.random.default_rng(12)

        def general(theta: float) -> LayerSpec:
            gen = HermitianGenerator(2, rng.normal(scale=0.3, size=15))
            return LayerSpec(theta, CouplingSpec.general(gen))

        layers = [LayerSpec(0.4, CouplingSpec.cnot()), general(-0.7),
                  LayerSpec(1.1, CouplingSpec.cnot()), general(0.0)]
        model = ReuploadModel(1, layers, rng.normal(size=3), 0.2)
        dataset, _ = generate_dataset("band", 12, 2, seed=6)
        cfg = TrainConfig(loss=loss)
        g_engine = _batch_gradient(model, _lam_ext(dataset, 1), _labels(dataset), cfg)
        np.testing.assert_allclose(g_engine, gradient_fd(model, dataset, cfg), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_qubits, word", [(1, None), (1, (3, 3)), (2, None), (2, (3, 3, 0))])
    def test_engine_degenerate_spectra(self, n_qubits, word):
        # an all-zero generator has one eigenvalue; a single Pauli word has two
        coeffs = np.zeros(4 ** (n_qubits + 1) - 1)
        if word is not None:
            coeffs[letters_to_index(word) - 1] = 0.8
        gen = HermitianGenerator(n_qubits + 1, coeffs)
        layers = [LayerSpec(0.3, CouplingSpec.general(gen)), LayerSpec(0.0, CouplingSpec.general(gen))]
        model = ReuploadModel(n_qubits, layers, np.array([0.5, -0.4, 0.9]), 0.1)
        task = "purity" if n_qubits == 1 else "entropy"
        dataset, _ = generate_dataset(task, 10, 2, seed=7)
        cfg = TrainConfig(loss="mse")
        g_engine = _batch_gradient(model, _lam_ext(dataset, n_qubits), _labels(dataset), cfg)
        np.testing.assert_allclose(g_engine, gradient_fd(model, dataset, cfg), rtol=0, atol=1e-6)


class TestTrain:
    def test_constant_labels_learned_fast(self):
        rng = np.random.default_rng(9)
        data = [
            LabeledState(density_from_bloch(_unit(rng)), 1.0, {"r3": 0.0}) for _ in range(40)
        ]
        cfg = TrainConfig(loss="logistic", learning_rate=0.2, max_epochs=5, seed=0)
        rep = train(random_model(1, 1, seed=1), data, data, cfg)
        assert rep.test_accuracy == 1.0

    def test_linear_target_regression(self):
        data = grid_dataset(101)
        cfg = TrainConfig(loss="mse", max_epochs=300, seed=0)
        rep = train(random_model(1, 1, seed=2, restricted=True), data, data, cfg)
        worst = 0.0
        for item in data:
            _, f = run_model(rep.final_params, item.state)
            worst = max(worst, abs(f - item.label))
        assert worst <= 0.02

    def test_loss_history_shape(self):
        data = grid_dataset(11)
        cfg = TrainConfig(max_epochs=7, seed=0)
        rep = train(random_model(1, 1, seed=0, restricted=True), data, data, cfg)
        assert isinstance(rep, TrainReport)
        assert len(rep.loss_history) == 8
        assert all(np.isfinite(rep.loss_history))

    def test_determinism(self):
        data, test = generate_dataset("band", 60, 20, seed=5)
        cfg = TrainConfig(loss="logistic", max_epochs=10, seed=3, shots=300)
        rep1 = train(random_model(1, 2, seed=6), data, test, cfg)
        rep2 = train(random_model(1, 2, seed=6), data, test, cfg)
        assert np.array_equal(rep1.loss_history, rep2.loss_history)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts(self):
        data = grid_dataset(11)
        cfg = TrainConfig(loss="mse", learning_rate=1e200, max_epochs=5, seed=0)
        with pytest.raises(RuntimeError):
            train(random_model(1, 1, seed=0, restricted=True), data, data, cfg)

    def test_minibatch_path(self):
        data, test = generate_dataset("band", 90, 30, seed=10)
        cfg = TrainConfig(loss="logistic", max_epochs=40, batch_size=32, seed=1)
        rep = train(random_model(1, 2, seed=2), data, test, cfg)
        assert len(rep.loss_history) == 41
        assert rep.loss_history[-1] < rep.loss_history[0]

    def test_empty_dataset_rejected(self):
        data = grid_dataset(5)
        with pytest.raises(ValueError):
            train(random_model(1, 1, seed=0, restricted=True), [], data, TrainConfig())

    def test_qubit_mismatch_rejected(self):
        data, _ = generate_dataset("entropy", 4, 2, seed=0)
        with pytest.raises(ValueError):
            train(random_model(1, 1, seed=0), data, data, TrainConfig(max_epochs=1))

    def test_shot_loss_matches_exact_limit(self):
        data = grid_dataset(40)
        model = random_model(1, 2, seed=3)
        exact = evaluate(model, data, TrainConfig(loss="mse"))[0]
        # analytic upward bias of the sampled mse: mean per-sample readout variance
        lam = _lam_ext(data, 1)
        r = _forward(model, lam)
        per_axis = 10**5 // 3
        bias = float(np.mean(np.sum(model.readout_w**2 * (1 - r**2), axis=1)) / per_axis)
        draws = [
            evaluate(model, data, TrainConfig(loss="mse", shots=10**5, seed=s))[0]
            for s in range(10)
        ]
        sigma = np.std(draws, ddof=1) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - bias - exact) <= 3 * sigma + 1e-12


def replayed_history(model: ReuploadModel, data, cfg: TrainConfig) -> list:
    """train's loss_history from a plain Adam loop: each epoch records the
    loss from its own forward pass, then draws the minibatch order.
    """
    lam, y = _lam_ext(data, model.n_qubits), _labels(data)
    rng = np.random.default_rng(cfg.seed)
    p = pack_params(model)
    m_adam, v_adam, steps = np.zeros(p.size), np.zeros(p.size), 0
    n = len(data)
    bs = cfg.batch_size or n
    history = []
    for epoch in range(cfg.max_epochs + 1):
        current = unpack_params(model, p)
        f = _readout(_forward(current, lam), current.readout_w, current.readout_b, cfg.shots, rng)
        history.append(_loss_terms(f, y, cfg)[0])
        if epoch == cfg.max_epochs:
            return history
        order = rng.permutation(n) if bs < n else np.arange(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            g = _batch_gradient(unpack_params(model, p), lam[idx], y[idx], cfg)
            steps += 1
            m_adam = ADAM_BETA1 * m_adam + (1.0 - ADAM_BETA1) * g
            v_adam = ADAM_BETA2 * v_adam + (1.0 - ADAM_BETA2) * g * g
            m_hat = m_adam / (1.0 - ADAM_BETA1**steps)
            v_hat = v_adam / (1.0 - ADAM_BETA2**steps)
            p = p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class TestReplay:
    @pytest.mark.parametrize("shots, batch_size", [(0, 0), (30, 0), (0, 16), (30, 16)])
    def test_loss_history_matches_plain_loop(self, shots, batch_size):
        data, test = generate_dataset("band", 40, 10, seed=13)
        gen = HermitianGenerator(2, np.random.default_rng(14).normal(scale=0.2, size=15))
        layers = [LayerSpec(0.2, CouplingSpec.cnot()), LayerSpec(0.0, CouplingSpec.general(gen))]
        model = ReuploadModel(1, layers, np.array([0.3, -0.5, 0.8]), 0.0)
        cfg = TrainConfig(loss="logistic", max_epochs=6, seed=4, shots=shots,
                          batch_size=batch_size)
        assert np.array_equal(train(model, data, test, cfg).loss_history,
                              replayed_history(model, data, cfg))


def restricted_model() -> ReuploadModel:
    # lam_1 once and lam_3 twice: 2 x 3 = 6 readout coefficients
    layers = [LayerSpec(0.2, CouplingSpec.cnot()), LayerSpec(-0.4, CouplingSpec.cu_ij(2, 1)),
              LayerSpec(0.7, CouplingSpec.cnot())]
    return ReuploadModel(1, layers, np.array([0.3, -0.5, 0.8]), 0.1)


class TestCoefficientPath:
    """A model of restricted layers only, with fewer readout coefficients than
    training samples, trains on the coefficients of its readout polynomial."""

    @pytest.mark.parametrize("shots, batch_size", [(0, 0), (30, 0), (0, 16), (30, 16)])
    def test_loss_history_matches_plain_loop(self, shots, batch_size):
        data, test = generate_dataset("band", 40, 10, seed=13)
        cfg = TrainConfig(loss="logistic", max_epochs=6, seed=4, shots=shots,
                          batch_size=batch_size)
        np.testing.assert_allclose(train(restricted_model(), data, test, cfg).loss_history,
                                   replayed_history(restricted_model(), data, cfg),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shots, batch_size", [(0, 0), (30, 8)])
    def test_samples_are_pushed_only_by_evaluate(self, monkeypatch, shots, batch_size):
        calls = []

        def counted(name):
            fn = getattr(trainer, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(trainer, name, wrapper)

        def refuse(*args):
            raise AssertionError("adjoint sweep on the coefficient path")

        counted("affine_chain")
        counted("evaluate")
        monkeypatch.setattr(trainer, "_loss_gradient", refuse)
        data = grid_dataset(30)
        cfg = TrainConfig(max_epochs=20, shots=shots, batch_size=batch_size)
        train(random_model(1, 4, seed=0, restricted=True), data, data, cfg)
        assert calls == ["evaluate", "affine_chain"]

    def test_as_many_coefficients_as_samples_train_on_the_samples(self, monkeypatch):
        # 4 CNOT layers read lam_3 up to degree 4: 5 coefficients >= 3 samples
        def refuse(*args):
            raise AssertionError("coefficient path taken")

        monkeypatch.setattr(trainer, "readout_system", refuse)
        data = grid_dataset(3)
        model = random_model(1, 4, seed=0, restricted=True)
        cfg = TrainConfig(max_epochs=8, seed=0)
        assert np.array_equal(train(model, data, data, cfg).loss_history,
                              replayed_history(model, data, cfg))

    def test_loss_history_is_one_array(self):
        data = grid_dataset(11)
        for model in (restricted_model(), random_model(1, 1, seed=0)):
            rep = train(model, data, data, TrainConfig(max_epochs=7, seed=0))
            assert isinstance(rep.loss_history, np.ndarray)
            assert rep.loss_history.dtype == np.float64 and rep.loss_history.shape == (8,)
            assert report_to_json(rep).startswith(
                '{"loss_history": [' + ", ".join(map(repr, rep.loss_history.tolist())) + "]")


class TestEvaluate:
    def test_accuracy_and_mse(self):
        data, test = generate_dataset("band", 40, 40, seed=2)
        model = random_model(1, 1, seed=1)
        acc, _ = evaluate(model, test, TrainConfig(loss="logistic"))
        assert 0.0 <= acc <= 1.0
        mse, _ = evaluate(model, test, TrainConfig(loss="mse"))
        assert mse >= 0.0

    def test_histogram_structure(self):
        data, test = generate_dataset("purity", 30, 200, seed=4)
        model = random_model(1, 1, seed=1)
        _, hist = evaluate(model, test, TrainConfig(loss="logistic"))
        assert len(hist) == 30
        assert sum(c0 + c1 for _, _, c0, c1 in hist) == len(test)
        lows = [row[0] for row in hist]
        assert lows == sorted(lows)

    def test_perfect_classifier_splits_bins(self):
        items = [LabeledState(psi_t(0.5), float(x >= 0), {"r3": x})
                 for x in np.linspace(-1, 1, 50)]
        f = np.array([item.label for item in items])
        hist = prediction_histogram(items, f)
        for lo, hi, c0, c1 in hist:
            if hi <= 0:
                assert c1 == 0
            if lo > 0:
                assert c0 == 0

    def test_histogram_empty_without_meta(self):
        items = [LabeledState(psi_t(0.5), 1.0, {}) for _ in range(4)]
        _, hist = evaluate(random_model(1, 1, seed=0), items, TrainConfig())
        assert hist == []

    def test_histogram_key_missing_from_later_item(self):
        _, test = generate_dataset("band", 5, 3, 0)
        test[1].meta = {}
        with pytest.raises(ValueError, match="item 1 has no 'r3'"):
            evaluate(random_model(1, 1), test)


class TestLamExt:
    @pytest.mark.parametrize("task, n_qubits", [("purity", 1), ("entropy", 2)])
    def test_rows_equal_per_state_pauli_coeffs(self, task, n_qubits):
        data, _ = generate_dataset(task, 40, 1, seed=3)
        lam = _lam_ext(data, n_qubits)
        assert lam.shape == (40, 4**n_qubits)
        assert_array_equal(lam[:, 0], 1.0)
        assert_array_equal(lam[:, 1:], [pauli_coeffs(item.state).lam for item in data])

    def test_bad_coefficients_raise(self):
        data, _ = generate_dataset("band", 3, 1, seed=0)
        data[1].state.matrix[...] = np.diag([2.0, -1.0])  # tr(rho Z) = 3
        with pytest.raises(ValueError, match="Pauli coefficient exceeds 1 in magnitude"):
            _lam_ext(data, 1)
        data[1].state.matrix[0, 0] = np.nan
        with pytest.raises(ValueError, match="Pauli coefficients must be finite"):
            _lam_ext(data, 1)


class TestHelpers:
    def test_random_model_structure(self):
        model = random_model(2, 3, seed=0)
        assert model.n_qubits == 2
        assert len(model.layers) == 3
        assert all(l.coupling.variant == "General" for l in model.layers)
        assert model.readout_b == 0.0

    def test_random_model_restricted_needs_single_qubit(self):
        with pytest.raises(ValueError):
            random_model(2, 2, seed=0, restricted=True)

    def test_report_json_and_csv(self):
        import json

        data, test = generate_dataset("band", 30, 20, seed=1)
        cfg = TrainConfig(loss="logistic", max_epochs=3, seed=0)
        rep = train(random_model(1, 1, seed=1), data, test, cfg)
        rec = json.loads(report_to_json(rep))
        assert set(rec) == {"loss_history", "final_params", "test_accuracy", "histogram"}
        csv = histogram_to_csv(rep.histogram)
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_low,bin_high,count_class0,count_class1"
        assert len(lines) == 31


def _generator_gradient_by_einsum(generator: HermitianGenerator, g: np.ndarray) -> np.ndarray:
    """One generator's pull-back, contracting over the word basis with einsum."""
    n = generator.n_qubits - 1
    words = pauli_word_basis(generator.n_qubits)
    vals, vecs = np.linalg.eigh(generator.matrix())
    u_dag = vecs @ (np.exp(-1j * vals)[:, None] * vecs.conj().T)
    b = np.einsum("im,mxy->ixy", g, words)
    m = np.sum(b @ u_dag @ words[4**n :: 4**n], axis=0)
    gap = vals[:, None] - vals[None, :]
    phi = 1j * np.exp(0.5j * (vals[:, None] + vals[None, :])) * np.sinc(gap / (2 * np.pi))
    q = vecs @ (phi * (vecs.conj().T @ m @ vecs)) @ vecs.conj().T
    return np.einsum("kab,ba->k", words[1:], q).real / 2**n


class TestStackedPullBack:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_stack_equals_one_call_per_generator(self, n_qubits):
        rng = np.random.default_rng(21 + n_qubits)
        size = 4 ** (n_qubits + 1)
        gens = [HermitianGenerator(n_qubits + 1, rng.normal(scale=0.6, size=size - 1))
                for _ in range(3)]
        # the zero generator has one eigenvalue, a single Pauli word two
        gens.append(HermitianGenerator(n_qubits + 1))
        word = np.zeros(size - 1)
        word[letters_to_index((1,) + (3,) * n_qubits) - 1] = 0.8
        gens.append(HermitianGenerator(n_qubits + 1, word))
        g = rng.normal(size=(len(gens), 3, size))
        stacked = _generator_gradient(gens, g)
        assert stacked.shape == (len(gens), size - 1)
        for k, gen in enumerate(gens):
            np.testing.assert_allclose(stacked[k], _generator_gradient([gen], g[k : k + 1])[0],
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(stacked[k], _generator_gradient_by_einsum(gen, g[k]),
                                       rtol=0, atol=1e-13)

    def test_one_tensor_build_per_forward_pass_and_one_pull_back_per_step(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(trainer, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(trainer, name, wrapper)

        counted("layer_transfer_tensor")
        counted("_generator_gradient")
        data, test = generate_dataset("entropy", 20, 5, seed=3)
        cfg = TrainConfig(loss="logistic", max_epochs=7, seed=0)
        train(random_model(2, 3, seed=0), data, test, cfg)
        # every epoch's forward pass, the final loss's and evaluate's
        assert calls.count("layer_transfer_tensor") == cfg.max_epochs + 2
        assert calls.count("_generator_gradient") == cfg.max_epochs
