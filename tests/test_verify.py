import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim import cli, verify
from reupsim.linalg import PAULIS, haar_unitary, kron
from reupsim.states import DensityMatrix, purity, sample_bloch_ball
from reupsim.verify import (
    CHECKS,
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
        np.testing.assert_allclose(corr(np.eye(4)), 0.0, atol=1e-14)

    def test_swap_profile_is_identity(self):
        np.testing.assert_allclose(corr(swap4()), np.eye(3), atol=1e-14)

    def test_zz_profile(self):
        m = kron(PAULIS[3], PAULIS[3])
        np.testing.assert_allclose(corr(m), 2 * np.outer(E[2], E[2]), atol=1e-14)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            corr(np.eye(2))

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            corr(m)


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


class TestObservation1:
    def test_trivial_circuit(self):
        cert, det = observation1_certificate(np.eye(4), np.eye(4), PAULIS[3])
        np.testing.assert_allclose(cert, 0.0, atol=1e-14)
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
        np.testing.assert_allclose(corr(purity_observable(c)), want, atol=1e-12)
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
        with pytest.raises(ValueError, match="expected six coefficients"):
            purity_observable(np.zeros(5))


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
            np.testing.assert_allclose(ksigma_corr(np.zeros(3))[i - 1], 0.0, atol=1e-14)

    def test_single_axis_example(self):
        got = ksigma_corr(np.array([np.pi / 8, 0.0, 0.0]))[2]
        want = -np.sqrt(2) * np.outer(E[1], E[0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_hand_computed_example(self):
        got = ksigma_corr(np.array([0.3, -0.2, 0.5]))[0]
        want = 2 * (
            np.cos(0.4) * np.sin(1.0) * np.outer(E[1], E[2])
            + np.sin(0.4) * np.cos(1.0) * np.outer(E[2], E[1])
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, size=3)
            for i in (1, 2, 3):
                np.testing.assert_allclose(
                    ksigma_corr(k)[i - 1], ksigma_closed_form(k, i), atol=1e-10
                )

    def test_combinations_singular(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, size=3)
            combo = sum(rng.uniform(-1, 1) * ksigma_corr(k)[i - 1] for i in (1, 2, 3))
            assert abs(np.linalg.det(combo)) <= 1e-9

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="3-vector"):
            ksigma_corr(np.zeros(2))
        with pytest.raises(ValueError, match="3-vector"):
            ksigma_corr(np.zeros((4, 2)))


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_all_checks_pass(self, name):
        report = run_check(name, trials=20)
        assert report["pass"] is True
        assert report["trials"] == 20
        assert set(report) == {"check_name", "trials", "max_violation", "worst_trial", "pass"}
        assert 0 <= report["worst_trial"] < 20
        json.dumps(report)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="swap-test"):
            run_check("nonsense")


def random_hermitian2(rng) -> np.ndarray:
    """observation1's per-trial observable draw from before its trials were stacked."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2


def check_violations(name: str, trials: int, seed: int) -> np.ndarray:
    """Per-trial violations of a registered check, as it hands them to _report."""
    with mock.patch.object(verify, "_report", lambda _, violations: np.asarray(violations)):
        return verify.CHECKS[name](trials=trials, seed=seed)


class TestStackedTrials:
    """The stacked checks draw the trials the per-trial loop drew, and agree
    with the single-instance certificates trial by trial."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300))
    def test_observation1(self, seed, trials):
        rng = np.random.default_rng(seed)
        want = [(haar_unitary(4, rng), haar_unitary(4, rng), random_hermitian2(rng))
                for _ in range(trials)]
        stacks = verify._observation1_draws(np.random.default_rng(seed), trials)
        for got, ref in zip(stacks, zip(*want)):
            np.testing.assert_array_equal(got, np.array(ref))
        dets = [observation1_certificate(u, v, o)[1] for u, v, o in want]
        np.testing.assert_allclose(check_violations("observation1", trials, seed),
                                   np.abs(dets), rtol=0, atol=1e-14)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300))
    def test_ksigma(self, seed, trials):
        rng = np.random.default_rng(seed)
        want = [(rng.uniform(-np.pi, np.pi, size=3), [rng.uniform(-1.0, 1.0) for _ in range(3)])
                for _ in range(trials)]
        np.testing.assert_array_equal(verify._ksigma_draws(np.random.default_rng(seed), trials),
                                      [[*k, *a] for k, a in want])
        dets = [np.linalg.det(sum(a[i - 1] * ksigma_corr(k)[i - 1] for i in (1, 2, 3)))
                for k, a in want]
        np.testing.assert_allclose(check_violations("ksigma", trials, seed),
                                   np.abs(dets), rtol=0, atol=1e-14)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300))
    def test_purity_observable(self, seed, trials):
        rng = np.random.default_rng(seed)
        want = [rng.uniform(-2.0, 2.0, size=6) for _ in range(trials)]
        np.testing.assert_array_equal(
            np.random.default_rng(seed).uniform(-2.0, 2.0, size=(trials, 6)), want)
        gaps = [abs(purity_observable_det(c) - (1.0 + c[0] ** 2 + (c[2] + c[4]) ** 2
                                                + (c[3] + c[5]) ** 2)) for c in want]
        np.testing.assert_allclose(check_violations("purity-observable", trials, seed),
                                   gaps, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_worst_trial_replays(self, name, tmp_path):
        full, last = tmp_path / "full.json", tmp_path / "last.json"
        assert cli.main(["verify", "--check", name, "--seed", "3", "--out", str(full)]) == 0
        report = json.loads(full.read_text())
        k = report["worst_trial"]
        assert cli.main(["verify", "--check", name, "--seed", "3", "--trials", str(k + 1),
                         "--out", str(last)]) == 0
        replay = json.loads(last.read_text())
        assert replay["max_violation"] == report["max_violation"]
        assert replay["worst_trial"] == k

    def test_failing_trial_named_across_blocks(self, monkeypatch):
        bad = verify.TRIAL_BLOCK + 5
        haar_from_ginibre = verify.haar_from_ginibre
        calls = []

        def haar_with_one_bad_u(z):
            out = haar_from_ginibre(z)
            if calls:  # the second block
                out[5, 0] *= 2.0
            calls.append(len(z))
            return out

        monkeypatch.setattr(verify, "haar_from_ginibre", haar_with_one_bad_u)
        with pytest.raises(ValueError, match=f"^trial {bad}: u is not unitary$"):
            verify.observation1_check(trials=2 * verify.TRIAL_BLOCK)
        assert calls == [verify.TRIAL_BLOCK, verify.TRIAL_BLOCK]


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestOneOrAStack:
    """Each certificate function takes one instance or a stack of them, and
    a stack gives bit for bit what its instances give one at a time."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 40))
    def test_stack_equals_single_calls(self, seed, trials):
        rng = np.random.default_rng(seed)
        u, v, o = verify._observation1_draws(rng, trials)
        c = rng.uniform(-2.0, 2.0, size=(trials, 6))
        k = verify._ksigma_draws(rng, trials)[:, :3]
        m = purity_observable(c) + 0.1 * (u + u.conj().swapaxes(-1, -2))
        cases = {
            "corr": (corr, (m,)),
            "observation1_certificate": (observation1_certificate, (u, v, o)),
            "purity_observable_det": (purity_observable_det, (c,)),
            "ksigma_corr": (ksigma_corr, (k,)),
        }
        for name, (fn, args) in cases.items():
            stacked = fn(*args)
            singles = [fn(*(a[t] for a in args)) for t in range(trials)]
            if isinstance(stacked, tuple):
                for got, want in zip(stacked, zip(*singles)):
                    assert got.shape[0] == trials, name
                    assert _bits(got) == _bits(np.array(want)), name
            else:
                assert stacked.shape[0] == trials, name
                assert _bits(stacked) == _bits(np.array(singles)), name

    def test_single_instance_shapes(self):
        assert corr(swap4()).shape == (3, 3)
        t, det = observation1_certificate(np.eye(4), np.eye(4), PAULIS[3])
        assert t.shape == (3, 3) and np.ndim(det) == 0
        assert np.ndim(purity_observable_det(np.zeros(6))) == 0
        assert ksigma_corr(np.zeros(3)).shape == (3, 3, 3)

    def test_failing_trial_named_for_one_and_a_stack(self):
        bad = np.ones((4, 4))
        with pytest.raises(ValueError, match="^trial 0: u is not unitary$"):
            observation1_certificate(bad, np.eye(4), PAULIS[3])
        u = np.stack([np.eye(4), np.eye(4), bad])
        v = np.stack([np.eye(4)] * 3)
        o = np.stack([PAULIS[3]] * 3)
        with pytest.raises(ValueError, match="^trial 2: u is not unitary$"):
            observation1_certificate(u, v, o)
        with pytest.raises(ValueError, match="^trial 12: u is not unitary$"):
            observation1_certificate(u, v, o, first=10)
        m = np.stack([swap4(), swap4()])
        m[1, 0, 1] = 1.0
        with pytest.raises(ValueError, match="^trial 1: corr entries are not real"):
            corr(m)
        with pytest.raises(ValueError, match="^trial 0: corr entries are not real"):
            corr(m[1])

    def test_stack_shapes_checked(self):
        with pytest.raises(ValueError, match="u must be 4x4"):
            observation1_certificate(np.stack([np.eye(3)] * 2), np.eye(4), PAULIS[3])
        with pytest.raises(ValueError, match="o must be 2x2"):
            observation1_certificate(np.eye(4), np.eye(4), np.stack([np.eye(3)] * 2))
        with pytest.raises(ValueError, match="corr input must be 4x4"):
            corr(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="expected six coefficients"):
            purity_observable_det(np.zeros((2, 5)))


class TestBadInputsNamed:
    """Non-finite entries and stacks of unequal length raise a ValueError that
    names the input before any certificate algebra runs."""

    def test_non_finite_purity_coefficients(self):
        with pytest.raises(ValueError, match="^trial 0: coefficients are not finite$"):
            purity_observable_det(np.full(6, np.nan))
        c = np.zeros((3, 6))
        c[2, 4] = np.inf
        with pytest.raises(ValueError, match="^trial 7: coefficients are not finite$"):
            purity_observable_det(c, first=5)

    def test_non_finite_corr_input(self):
        with pytest.raises(ValueError, match="^trial 0: corr input is not finite$"):
            corr(np.full((4, 4), np.nan))
        m = np.stack([swap4(), swap4()])
        m[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="^trial 1: corr input is not finite$"):
            corr(m)

    def test_non_finite_circuit_and_angles(self):
        u = np.eye(4, dtype=complex)
        u[3, 3] = np.nan
        with pytest.raises(ValueError, match="^trial 0: u is not finite$"):
            observation1_certificate(u, np.eye(4), PAULIS[3])
        with pytest.raises(ValueError, match="^trial 1: k is not finite$"):
            ksigma_corr(np.array([[0.1, 0.2, 0.3], [np.inf, 0.0, 0.0]]))

    def test_unequal_stacks_named(self):
        u, v, o = verify._observation1_draws(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match=r"^u, v and o must be stacks of one length, "
                                             r"got leading shapes \(3,\), \(2,\) and \(3,\)$"):
            observation1_certificate(u, v[:2], o)
        with pytest.raises(ValueError, match=r"leading shapes \(\), \(\) and \(1,\)$"):
            observation1_certificate(u[0], v[0], o[:1])
