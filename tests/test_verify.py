import json

import numpy as np
import pytest

from reupsim.linalg import PAULIS, haar_unitary, kron
from reupsim.states import DensityMatrix, purity, sample_bloch_ball
from reupsim.verify import (
    CHECKS,
    CorrMatrix,
    PurityObservableParams,
    corr,
    ksigma_corr,
    observation1_certificate,
    purity_observable,
    purity_observable_det,
    run_check,
    swap_test_purity,
)

E = np.eye(3)


def swap4() -> np.ndarray:
    return np.eye(4).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)


class TestCorr:
    def test_identity_profile_vanishes(self):
        np.testing.assert_allclose(corr(np.eye(4)).entries, 0.0, atol=1e-14)

    def test_swap_profile_is_identity(self):
        np.testing.assert_allclose(corr(swap4()).entries, np.eye(3), atol=1e-14)

    def test_zz_profile(self):
        m = kron(PAULIS[3], PAULIS[3])
        np.testing.assert_allclose(corr(m).entries, 2 * np.outer(E[2], E[2]), atol=1e-14)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            corr(np.eye(2))

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            corr(m)

    def test_corr_matrix_shape_enforced(self):
        with pytest.raises(ValueError):
            CorrMatrix(np.eye(2))

    def test_det_property(self):
        assert CorrMatrix(2 * np.eye(3)).det == pytest.approx(8.0)


class TestSwapTest:
    def test_pure_state(self):
        rho = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
        assert swap_test_purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        assert swap_test_purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_matches_purity(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            for _ in range(10):
                d = 2**n
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                m = g @ g.conj().T
                rho = DensityMatrix(m / np.trace(m).real, n)
                assert swap_test_purity(rho) == pytest.approx(purity(rho), abs=1e-10)

    def test_shot_sampling(self):
        rho = sample_bloch_ball(np.random.default_rng(1))
        exact = swap_test_purity(rho)
        a = swap_test_purity(rho, shots=10**6, seed=5)
        b = swap_test_purity(rho, shots=10**6, seed=5)
        assert a == b
        assert abs(a - exact) <= 0.01


class TestObservation1:
    def test_trivial_circuit(self):
        cert, det = observation1_certificate(np.eye(4), np.eye(4), PAULIS[3])
        np.testing.assert_allclose(cert.entries, 0.0, atol=1e-14)
        assert abs(det) <= 1e-12

    def test_random_circuits_singular(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            _, det = observation1_certificate(u, v, (g + g.conj().T) / 2)
            assert abs(det) <= 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            observation1_certificate(np.ones((4, 4)), np.eye(4), PAULIS[3])
        with pytest.raises(ValueError):
            observation1_certificate(np.eye(4), np.ones((4, 4)), PAULIS[3])

    def test_bad_observable_rejected(self):
        with pytest.raises(ValueError):
            observation1_certificate(np.eye(4), np.eye(4), np.eye(3))
        with pytest.raises(ValueError):
            observation1_certificate(np.eye(4), np.eye(4), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPurityObservable:
    def test_zero_coefficients_give_swap(self):
        np.testing.assert_allclose(purity_observable(np.zeros(6)), swap4(), atol=1e-14)
        assert purity_observable_det(np.zeros(6)) == pytest.approx(1.0, abs=1e-12)

    def test_single_coefficient_det(self):
        c = np.zeros(6)
        c[0] = 1.0
        assert purity_observable_det(c) == pytest.approx(2.0, abs=1e-12)

    def test_hermitian(self):
        o = purity_observable(np.array([0.3, 0.7, -0.2, 0.5, 0.4, -0.1]))
        np.testing.assert_allclose(o, o.conj().T, atol=1e-14)

    def test_frozen_profile(self):
        c = np.array([0.3, 0.7, -0.2, 0.5, 0.4, -0.1])
        want = np.array([
            [1.0, 0.3, -0.2],
            [-0.3, 1.0, 0.4],
            [0.2, -0.4, 1.0],
        ])
        np.testing.assert_allclose(corr(purity_observable(c)).entries, want, atol=1e-12)
        assert purity_observable_det(c) == pytest.approx(1.29, abs=1e-12)

    def test_guard_rejects_wrong_observable(self, monkeypatch):
        from reupsim import verify

        # the swap plus a multiple of the identity shifts every purity
        monkeypatch.setattr(verify, "purity_observable", lambda params: swap4() + 1e-9 * np.eye(4))
        with pytest.raises(RuntimeError, match="does not evaluate purity"):
            purity_observable_det(np.zeros(6))

    def test_evaluates_purity(self):
        rng = np.random.default_rng(21)
        o = purity_observable(rng.uniform(-1, 1, size=6))
        for _ in range(10):
            rho = sample_bloch_ball(rng)
            got = np.trace(kron(rho.matrix, rho.matrix) @ o).real
            assert got == pytest.approx(purity(rho), abs=1e-12)

    def test_det_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = rng.uniform(-2, 2, size=6)
            want = 1.0 + c[0] ** 2 + (c[2] + c[4]) ** 2 + (c[3] + c[5]) ** 2
            assert purity_observable_det(c) == pytest.approx(want, abs=1e-10)
            assert want >= 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PurityObservableParams(np.zeros(5))


def ksigma_closed_form(k, i: int) -> np.ndarray:
    c = np.cos(2 * np.asarray(k))
    s = np.sin(2 * np.asarray(k))
    if i == 1:
        return 2 * (c[1] * s[2] * np.outer(E[1], E[2]) - s[1] * c[2] * np.outer(E[2], E[1]))
    if i == 2:
        return -2 * (c[0] * s[2] * np.outer(E[0], E[2]) - s[0] * c[2] * np.outer(E[2], E[0]))
    return 2 * (c[0] * s[1] * np.outer(E[0], E[1]) - s[0] * c[1] * np.outer(E[1], E[0]))


class TestKsigma:
    def test_zero_angles(self):
        for i in (1, 2, 3):
            np.testing.assert_allclose(ksigma_corr(np.zeros(3), i).entries, 0.0, atol=1e-14)

    def test_single_axis_example(self):
        got = ksigma_corr(np.array([np.pi / 8, 0.0, 0.0]), 3)
        want = -np.sqrt(2) * np.outer(E[1], E[0])
        np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_hand_computed_example(self):
        got = ksigma_corr(np.array([0.3, -0.2, 0.5]), 1)
        want = 2 * (
            np.cos(0.4) * np.sin(1.0) * np.outer(E[1], E[2])
            + np.sin(0.4) * np.cos(1.0) * np.outer(E[2], E[1])
        )
        np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, size=3)
            for i in (1, 2, 3):
                np.testing.assert_allclose(
                    ksigma_corr(k, i).entries, ksigma_closed_form(k, i), atol=1e-10
                )

    def test_combinations_singular(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, size=3)
            combo = sum(rng.uniform(-1, 1) * ksigma_corr(k, i).entries for i in (1, 2, 3))
            assert abs(np.linalg.det(combo)) <= 1e-9

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ksigma_corr(np.zeros(3), 0)
        with pytest.raises(ValueError):
            ksigma_corr(np.zeros(3), 4)
        with pytest.raises(ValueError):
            ksigma_corr(np.zeros(2), 1)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_all_checks_pass(self, name):
        report = run_check(name, trials=20)
        assert report["pass"] is True
        assert report["trials"] == 20
        assert set(report) == {"check_name", "trials", "max_violation", "pass"}
        json.dumps(report)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="swap-test"):
            run_check("nonsense")
