import numpy as np
import pytest

from reupsim import channel, compiler, linalg
from reupsim.channel import CouplingSpec, LayerSpec, ReuploadModel, readout_system, run_model
from reupsim.compiler import (
    FIT_TOL,
    CompileError,
    CompiledCircuit,
    MonomialSpec,
    PolynomialSpec,
    _circuit_residual,
    _coefficient_system,
    _damped_gauss_newton,
    _system_axes,
    compile_univariate_delta,
    extract_coefficients,
    fit_coefficients,
    jacobian_theta0,
    schedule_layers,
)
from reupsim.linalg import HermitianGenerator, fd_jacobian
from reupsim.states import density_from_bloch, psi_t

# quartic from the reproduction presets: 3(x+0.8)x(x-0.5)^2 + 0.3 expanded
QUARTIC = np.array([0.3, 0.6, -1.65, -0.6, 3.0])


def quartic_spec() -> PolynomialSpec:
    monos = [MonomialSpec(QUARTIC[k], {3: k}) for k in range(1, 5)]
    return PolynomialSpec(1, QUARTIC[0], monos)


def purity_spec() -> PolynomialSpec:
    return PolynomialSpec(
        1, 0.5,
        [MonomialSpec(0.5, {1: 2}), MonomialSpec(0.5, {2: 2}), MonomialSpec(0.5, {3: 2})],
    )


def onehot_model(n_layers: int, hot: int, theta: float) -> ReuploadModel:
    layers = [
        LayerSpec(theta if l == hot else 0.0, CouplingSpec.cnot())
        for l in range(1, n_layers + 1)
    ]
    return ReuploadModel(1, layers, np.array([0.0, 1.0, 0.0]), 0.0)


class TestSpecs:
    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            MonomialSpec(1.0, {})
        with pytest.raises(ValueError):
            MonomialSpec(1.0, {0: 1})
        with pytest.raises(ValueError):
            MonomialSpec(1.0, {2: 0})

    def test_monomial_degree_and_eval(self):
        m = MonomialSpec(2.0, {1: 1, 3: 2})
        assert m.degree == 3
        assert m.evaluate(np.array([0.5, 0.0, -0.5])) == pytest.approx(2.0 * 0.5 * 0.25)

    @pytest.mark.parametrize("exps", [{3: 2.5}, {3.0: 1}, {True: 1}, {1: True}, {2: np.float64(2)}],
                             ids=["float-exponent", "float-variable", "bool-variable",
                                  "bool-exponent", "numpy-float-exponent"])
    def test_monomial_rejects_a_variable_or_exponent_that_is_not_an_int(self, exps):
        with pytest.raises(ValueError, match="^exps: variables and exponents must be ints"):
            MonomialSpec(1.0, exps)

    def test_monomial_rejects_exps_that_are_not_a_dict(self):
        with pytest.raises(ValueError, match="^exps: a monomial needs a dict"):
            MonomialSpec(1.0, [(3, 1)])

    def test_polynomial_rejects_a_monomial_that_is_not_a_monomial_spec(self):
        with pytest.raises(ValueError, match="^monomials: expected MonomialSpec entries"):
            PolynomialSpec(1, 0.0, [(1.0, {1: 1})])

    def test_monomial_accepts_numpy_ints(self):
        assert MonomialSpec(1.0, {np.int64(3): np.int32(2)}).exps == {3: 2}

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_monomial_rejects_a_coefficient_that_is_not_finite(self, x):
        with pytest.raises(ValueError, match="^coeff must be finite"):
            MonomialSpec(x, {1: 1})

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_polynomial_rejects_a_constant_that_is_not_finite(self, x):
        with pytest.raises(ValueError, match="^c0 must be finite"):
            PolynomialSpec(1, x, [MonomialSpec(1.0, {1: 1})])

    @pytest.mark.parametrize("n", [0, -1, True, 1.0])
    def test_polynomial_rejects_a_qubit_count_that_is_not_a_positive_int(self, n):
        with pytest.raises(ValueError, match="^n_qubits must be an int of at least 1"):
            PolynomialSpec(n, 0.0, [])

    def test_polynomial_variable_range(self):
        with pytest.raises(ValueError):
            PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {4: 1})])
        PolynomialSpec(2, 0.0, [MonomialSpec(1.0, {15: 1})])  # top index for n=2

    def test_polynomial_properties(self):
        p = PolynomialSpec(1, 0.1, [MonomialSpec(1.0, {3: 2}), MonomialSpec(-1.0, {1: 1})])
        assert p.variables == (1, 3)
        assert p.schedule_length == 3
        assert p.evaluate([0.2, 0.0, 0.4]) == pytest.approx(0.1 + 0.16 - 0.2)


class TestSchedule:
    def test_three_squares_blocks(self):
        sched = schedule_layers(purity_spec())
        assert len(sched) == 6
        assert [(c.variant, c.i, c.j) for c in sched] == [
            ("CU_ij", 1, 1), ("CU_ij", 1, 1),
            ("CU_ij", 1, 2), ("CU_ij", 1, 2),
            ("CU_ij", 1, 3), ("CU_ij", 1, 3),
        ]

    def test_ascending_within_block(self):
        p = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {2: 2, 1: 1})])
        sched = schedule_layers(p)
        assert [c.j for c in sched] == [1, 2, 2]

    def test_two_blocks_in_order(self):
        p = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {1: 1}), MonomialSpec(1.0, {3: 1})])
        assert [c.j for c in schedule_layers(p)] == [1, 3]

    def test_multiqubit_uses_pauli_words(self):
        p = PolynomialSpec(2, 0.0, [MonomialSpec(1.0, {5: 1, 11: 1})])
        sched = schedule_layers(p)
        assert [c.variant for c in sched] == ["CU_alpha", "CU_alpha"]
        assert [c.word.index for c in sched] == [5, 11]
        assert all(c.n_env == 2 for c in sched)

    def test_length_matches_total_degree(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            monos = []
            for _ in range(rng.integers(1, 4)):
                nvar = int(rng.integers(1, 3))
                alphas = rng.choice(np.arange(1, 16), size=nvar, replace=False)
                monos.append(MonomialSpec(
                    rng.normal(), {int(a): int(rng.integers(1, 3)) for a in alphas}
                ))
            p = PolynomialSpec(2, 0.0, monos)
            assert len(schedule_layers(p)) == p.schedule_length

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            schedule_layers(PolynomialSpec(1, 0.7, []))


class TestDeltaCompile:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            compile_univariate_delta(np.array([0.0, 1.0]), delta=0.0)
        with pytest.raises(ValueError):
            compile_univariate_delta(np.array([0.0, 1.0]), delta=0.2)

    def test_constant_exact(self):
        circ = compile_univariate_delta(np.array([0.3]), delta=0.01)
        for t in (0.2, 0.5, 0.9):
            _, f = run_model(circ.model, psi_t(t))
            assert f == pytest.approx(0.3, abs=1e-14)

    def test_monic_top_degree(self):
        # a single small angle at layer 1 realizes sin(delta)/delta * lam^L
        for L in (2, 4):
            v = np.zeros(L + 1)
            v[L] = 1.0
            circ = compile_univariate_delta(v, delta=0.01)
            got = extract_coefficients(circ)
            want = np.zeros(L + 1)
            want[L] = np.sin(0.01) / 0.01
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_quartic_coefficient_error(self):
        circ = compile_univariate_delta(QUARTIC, delta=1e-3)
        got = extract_coefficients(circ)
        assert np.max(np.abs(got - QUARTIC)) <= 1e-4

    def test_halving_delta_quarters_error(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            L = int(rng.integers(1, 7))
            v = rng.uniform(-1.0, 1.0, size=L + 1)
            e1 = compile_univariate_delta(v, delta=1e-3).residual
            e2 = compile_univariate_delta(v, delta=5e-4).residual
            assert e1 / e2 >= 3.5

    def test_angles_follow_target(self):
        v = np.array([0.1, 0.2, 0.3])
        circ = compile_univariate_delta(v, delta=0.01)
        thetas = [l.theta for l in circ.model.layers]
        # layer l carries the degree L+1-l coefficient
        np.testing.assert_allclose(thetas, [0.3 * 0.01, 0.2 * 0.01])
        assert circ.model.readout_b == pytest.approx(0.1)
        np.testing.assert_allclose(circ.model.readout_w, [0.0, 100.0, 0.0])


class TestExtract:
    def test_one_hot_single_entry(self):
        for L, hot in [(3, 1), (3, 2), (4, 4)]:
            got = extract_coefficients(onehot_model(L, hot, 0.8))
            want = np.zeros(L + 1)
            want[L + 1 - hot] = np.sin(0.8)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_angles_bias_only(self):
        model = onehot_model(3, 1, 0.0)
        model = ReuploadModel(1, model.layers, model.readout_w, 0.7)
        got = extract_coefficients(model)
        np.testing.assert_allclose(got, [0.7, 0.0, 0.0, 0.0], atol=1e-13)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(3)
        layers = [LayerSpec(rng.uniform(-np.pi, np.pi), CouplingSpec.cnot()) for _ in range(3)]
        model = ReuploadModel(1, layers, rng.normal(size=3), rng.normal())
        v = extract_coefficients(model)
        for lam in np.linspace(-0.98, 0.98, 50):
            _, f = run_model(model, psi_t(np.sqrt((1 + lam) / 2)))
            assert abs(np.polyval(v[::-1], lam) - f) <= 1e-9

    def test_readout_scaling_is_linear(self):
        rng = np.random.default_rng(4)
        layers = [LayerSpec(rng.uniform(-np.pi, np.pi), CouplingSpec.cnot()) for _ in range(3)]
        base = ReuploadModel(1, layers, rng.normal(size=3), rng.normal())
        scaled = ReuploadModel(1, layers, 2.5 * base.readout_w, 2.5 * base.readout_b)
        np.testing.assert_allclose(
            extract_coefficients(scaled), 2.5 * extract_coefficients(base), atol=1e-12
        )

    def test_basis_mode_reads_back_fit(self):
        p = PolynomialSpec(1, -0.2, [MonomialSpec(0.8, {1: 2}), MonomialSpec(-0.4, {3: 2})])
        circ = fit_coefficients(p)
        got = extract_coefficients(circ, basis=p)
        np.testing.assert_allclose(got, [-0.2, 0.8, -0.4], atol=1e-10)

    def test_duplicate_monomials_singular(self):
        circ = fit_coefficients(quartic_spec())
        bad = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {3: 2}), MonomialSpec(1.0, {3: 2})])
        with pytest.raises(ValueError, match="singular"):
            extract_coefficients(circ, basis=bad)

    def test_check_row_catches_wrong_basis(self):
        # cubic readout probed against a linear basis fails the half-scale row
        model = onehot_model(3, 1, np.pi / 2)
        bad = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {3: 1})])
        with pytest.raises(ValueError, match="check row"):
            extract_coefficients(model, basis=bad)

    def test_basis_of_another_qubit_count_rejected(self):
        circ = fit_coefficients(PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {1: 1, 3: 1})]))
        basis = PolynomialSpec(2, 0.0, [MonomialSpec(1.0, {5: 1})])
        with pytest.raises(ValueError, match="^basis is over 2 qubits, the circuit over 1$"):
            extract_coefficients(circ, basis)

    def test_mixed_schedule_needs_basis(self):
        p = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {1: 1}), MonomialSpec(1.0, {3: 1})])
        layers = [LayerSpec(0.3, c) for c in schedule_layers(p)]
        model = ReuploadModel(1, layers, np.array([0.0, 1.0, 0.0]), 0.0)
        with pytest.raises(ValueError, match="univariate"):
            extract_coefficients(model)

    def test_general_layer_needs_basis(self):
        gen = HermitianGenerator(2, np.random.default_rng(3).normal(scale=0.2, size=15))
        layers = [LayerSpec(0.3, CouplingSpec.cnot()), LayerSpec(0.0, CouplingSpec.general(gen))]
        model = ReuploadModel(1, layers, np.array([0.0, 1.0, 0.0]), 0.0)
        with pytest.raises(ValueError, match="basis"):
            extract_coefficients(model)


class TestJacobian:
    def test_l1_rows(self):
        jac = jacobian_theta0(1)
        np.testing.assert_allclose(jac, [[0, 1, 0, 0, 1], [1, 0, 0, 0, 0]], atol=1e-6)

    def test_pattern_all_sizes(self):
        for L in range(1, 7):
            jac = jacobian_theta0(L)
            assert jac.shape == (L + 1, L + 4)
            want = np.zeros((L + 1, L + 4))
            want[0, L] = 1.0      # w1 feeds the constant term
            want[0, L + 3] = 1.0  # so does the bias
            for l in range(1, L + 1):
                want[L + 1 - l, l - 1] = 1.0
            np.testing.assert_allclose(jac, want, atol=1e-6)

    def test_reduced_block_invertible(self):
        for L in range(1, 7):
            jac = jacobian_theta0(L)
            reduced = np.delete(jac, [L, L + 1, L + 2], axis=1)
            assert reduced.shape == (L + 1, L + 1)
            assert abs(np.linalg.det(reduced)) > 0.5

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            jacobian_theta0(0)


# schedules of the Gauss-Newton fit: CU_ij layers on one qubit, CU_alpha
# layers on two, each over two or three variables
FIT_SCHEDULES = {
    "n1-two-vars": PolynomialSpec(1, 0.1, [MonomialSpec(0.3, {1: 1, 3: 2})]),
    "n1-three-vars": PolynomialSpec(1, 0.1, [MonomialSpec(0.3, {1: 1, 2: 1}),
                                             MonomialSpec(0.2, {3: 1}),
                                             MonomialSpec(-0.1, {1: 1})]),
    "n2-two-vars": PolynomialSpec(2, 0.0, [MonomialSpec(0.6, {5: 1, 10: 1}),
                                           MonomialSpec(0.2, {5: 2})]),
    "n2-three-vars": PolynomialSpec(2, 0.0, [MonomialSpec(0.6, {5: 1, 10: 1}),
                                             MonomialSpec(0.2, {7: 1})]),
}


class TestReadoutJacobian:
    @pytest.mark.parametrize("first_layer", ["scheduled", "general"])
    @pytest.mark.parametrize("initial_signal", ["plus", "zero"])
    @pytest.mark.parametrize("name", sorted(FIT_SCHEDULES))
    def test_matches_central_differences(self, name, initial_signal, first_layer):
        poly = FIT_SCHEDULES[name]
        rng = np.random.default_rng(sorted(FIT_SCHEDULES).index(name))
        couplings = schedule_layers(poly)
        if first_layer == "general":
            # restricted layers never move a "zero" start off the z axis, so
            # the angles act only after a General layer has
            m = poly.n_qubits + 1
            couplings[0] = CouplingSpec.general(HermitianGenerator(m, rng.normal(size=4**m - 1)))
        L = len(couplings)
        variables, shape = _system_axes(poly)

        def model(p):
            layers = [LayerSpec(float(th), c) for th, c in zip(p[:L], couplings)]
            return ReuploadModel(poly.n_qubits, layers, p[L : L + 3], float(p[L + 3]),
                                 initial_signal)

        def readout_coeffs(p):
            return _coefficient_system(model(p), poly)[0] @ p[L:]

        for _ in range(3):
            p = rng.normal(size=L + 4)
            jac = readout_system(model(p), variables, shape)[1]
            want = fd_jacobian(readout_coeffs, p, 1e-5)
            assert jac.shape == want.shape
            np.testing.assert_allclose(jac, want, rtol=0, atol=1e-7 * np.max(np.abs(want)))


def _linear_system(p):
    jac = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    return jac @ (p - np.array([0.3, -0.7])), jac


def _nonlinear_system(p):
    r = np.array([p[0] ** 2 - 2.0, p[0] * p[1] - 1.0])
    return r, np.array([[2.0 * p[0], 0.0], [p[1], p[0]]])


class TestDampedGaussNewton:
    @pytest.mark.parametrize("system", [_linear_system, _nonlinear_system],
                             ids=["linear", "nonlinear"])
    def test_each_point_is_evaluated_once(self, system):
        seen = []

        def counting(p):
            seen.append(p.tobytes())
            return system(p)

        p, res = _damped_gauss_newton(counting, np.array([1.0, 1.0]), 100, 1e-12)
        assert res < 1e-12
        assert res == np.max(np.abs(system(p)[0]))
        assert len(seen) > 1
        assert len(seen) == len(set(seen))


# the benchmark's target for each fit_coefficients route
BENCH_ROUTES = [
    PolynomialSpec(1, 0.2, [MonomialSpec(-0.5, {3: 1}), MonomialSpec(0.4, {3: 2}),
                            MonomialSpec(0.3, {3: 3})]),
    PolynomialSpec(2, 0.1, [MonomialSpec(0.6, {5: 1, 10: 1})]),
    PolynomialSpec(1, 0.05, [MonomialSpec(0.4, {1: 2}), MonomialSpec(-0.3, {2: 2})]),
    PolynomialSpec(1, 0.0, [MonomialSpec(0.3, {1: 2}), MonomialSpec(0.2, {2: 2}),
                            MonomialSpec(-0.25, {3: 2})]),
    PolynomialSpec(1, 0.1, [MonomialSpec(0.3, {1: 1, 2: 1}), MonomialSpec(0.2, {3: 1})]),
]
BENCH_ROUTE_IDS = ["univariate", "monomial", "two_squares", "kick", "general"]


class TestFit:
    def test_linear_target_exact(self):
        p = PolynomialSpec(1, 0.0, [MonomialSpec(1.0, {3: 1})])
        circ = fit_coefficients(p)
        assert circ.residual <= 1e-10
        np.testing.assert_allclose(extract_coefficients(circ), [0.0, 1.0], atol=1e-10)

    def test_constant_target(self):
        circ = fit_coefficients(PolynomialSpec(1, 0.4, []))
        assert circ.residual == 0.0
        assert circ.active_layers == []
        _, f = run_model(circ.model, psi_t(0.37))
        assert f == pytest.approx(0.4, abs=1e-14)

    def test_quartic_univariate(self):
        circ = fit_coefficients(quartic_spec())
        assert circ.residual <= 1e-10
        got = extract_coefficients(circ)
        np.testing.assert_allclose(got[:5], QUARTIC, atol=1e-9)
        np.testing.assert_allclose(got[5:], 0.0, atol=1e-9)

    def test_single_monomial_one_hot(self):
        p = PolynomialSpec(2, 0.25, [MonomialSpec(0.6, {5: 1, 11: 2})])
        circ = fit_coefficients(p)
        assert circ.residual <= 1e-12
        rng = np.random.default_rng(0)
        lam = np.zeros(15)
        lam[[4, 10]] = rng.uniform(-0.4, 0.4, size=2)
        got = extract_coefficients(circ, basis=p)
        np.testing.assert_allclose(got, [0.25, 0.6], atol=1e-10)

    def test_two_squares_exact(self):
        p = PolynomialSpec(1, -0.2, [MonomialSpec(0.8, {1: 2}), MonomialSpec(-0.4, {3: 2})])
        circ = fit_coefficients(p)
        assert circ.residual <= 1e-12
        rng = np.random.default_rng(1)
        for _ in range(5):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
            _, f = run_model(circ.model, density_from_bloch(r))
            assert abs(f - p.evaluate(r)) <= 1e-12

    def test_purity_polynomial(self):
        circ = fit_coefficients(purity_spec())
        assert circ.residual <= 1e-6
        got = extract_coefficients(circ, basis=purity_spec())
        np.testing.assert_allclose(got, [0.5, 0.5, 0.5, 0.5], atol=1e-6)

    def test_purity_circuit_evaluates_purity(self):
        circ = fit_coefficients(purity_spec())
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
            _, f = run_model(circ.model, density_from_bloch(r))
            assert abs(f - 0.5 * (1 + r @ r)) <= 1e-6

    def test_general_fallback(self):
        p = PolynomialSpec(1, 0.0, [MonomialSpec(0.7, {1: 1, 2: 1}), MonomialSpec(0.0, {3: 1})])
        circ = fit_coefficients(p)
        assert circ.residual <= 1e-8

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(compiler, "FIT_TOL", 1e-9)
        with pytest.raises(CompileError) as err:
            fit_coefficients(purity_spec())
        assert err.value.circuit is not None
        assert err.value.residual is not None
        assert 1e-9 < err.value.residual <= 1e-6

    def test_unreachable_target_raises_with_its_circuit(self):
        # the general route stops short of tolerance on this target
        poly = PolynomialSpec(1, 0.1, [MonomialSpec(0.3, {1: 1, 2: 1}), MonomialSpec(-0.2, {3: 2}),
                                       MonomialSpec(0.1, {1: 1})])
        with pytest.raises(CompileError) as err:
            fit_coefficients(poly)
        assert err.value.circuit is not None
        assert err.value.residual == _circuit_residual(err.value.circuit.model, poly)
        assert err.value.residual > FIT_TOL

    def test_compiled_circuit_records_schedule(self):
        circ = fit_coefficients(purity_spec())
        assert isinstance(circ, CompiledCircuit)
        assert len(circ.model.layers) == 6
        assert set(circ.active_layers) <= set(range(1, 7))

    @pytest.mark.parametrize("poly", BENCH_ROUTES, ids=BENCH_ROUTE_IDS)
    def test_reported_residual_is_the_models(self, poly):
        circ = fit_coefficients(poly)
        assert circ.residual == _circuit_residual(circ.model, poly)

    @pytest.mark.parametrize("poly", BENCH_ROUTES, ids=BENCH_ROUTE_IDS)
    def test_no_finite_difference_step_in_compiling(self, poly, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("finite-difference Jacobian called while compiling")

        monkeypatch.setattr(linalg, "fd_jacobian", refuse)
        monkeypatch.setattr(compiler, "fd_jacobian", refuse, raising=False)
        assert fit_coefficients(poly).residual <= FIT_TOL

    def test_univariate_start_builds_no_tensor(self, monkeypatch):
        # the small-angle start is read off the target's ladder; only the
        # fit's own points build transfer tensors
        calls = []
        build = channel.layer_transfer_tensor

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(channel, "layer_transfer_tensor", counted)
        circ = fit_coefficients(BENCH_ROUTES[0])
        assert len(circ.model.layers) == 6
        assert len(calls) == 12
