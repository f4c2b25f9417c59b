import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    UndetectableError,
    check_detectability,
    default_stable_poles,
    eigenvalues,
    place_poles,
    spectral_abscissa,
    stabilizing_gain,
)
from tests.conftest import (
    STRUCT_TOL,
    assert_multiset_close,
    random_detectable_pair,
    random_observable_pair,
    random_stable_poles,
    random_undetectable_pair,
)


def char_coeff_relerr(Acl, poles):
    target = np.real(np.poly(np.asarray(poles, dtype=complex)))
    got = np.real(np.atleast_1d(np.poly(Acl)))
    return np.max(np.abs(got - target)) / np.max(np.abs(target))


class TestPlacePoles:
    def test_scalar(self):
        assert_allclose(place_poles([[0.0]], [[1.0]], [-3.0]), [[-3.0]])

    def test_double_integrator_repeated_pole(self):
        # matching s^2 + 2 s + 1 coefficient-wise forces K = [-2, -1]
        A = [[0.0, 1.0], [0.0, 0.0]]
        C = [[1.0, 0.0]]
        K = place_poles(A, C, [-1.0, -1.0])
        assert_allclose(K, [[-2.0], [-1.0]], atol=1e-8)
        assert_multiset_close(eigenvalues(np.asarray(A) + K @ np.asarray(C)), [-1.0, -1.0])

    def test_spectrum_already_matching(self):
        # contract is on the closed-loop spectrum only
        A = np.diag([-1.0, -2.0])
        K = place_poles(A, np.eye(2), [-1.0, -2.0])
        assert_multiset_close(eigenvalues(A + K @ np.eye(2)), [-1.0, -2.0])

    def test_complex_pair(self):
        rng = np.random.default_rng(20)
        A, C = random_observable_pair(rng, 4, 1)
        poles = [-1 + 2j, -1 - 2j, -2.0, -3.0]
        K = place_poles(A, C, poles)
        assert_multiset_close(eigenvalues(A + K @ C), poles)

    def test_repeated_complex_pair(self):
        rng = np.random.default_rng(21)
        A, C = random_observable_pair(rng, 4, 2)
        poles = [-1 + 1j, -1 - 1j, -1 + 1j, -1 - 1j]
        K = place_poles(A, C, poles)
        assert_multiset_close(eigenvalues(A + K @ C), poles, tol=1e-5)

    def test_unobservable_rejected(self):
        with pytest.raises(ValueError, match="observable"):
            place_poles(np.diag([-1.0, -2.0]), [[1.0, 0.0]], [-1.0, -2.0])

    def test_not_conjugate_closed_rejected(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="conjugation"):
            place_poles(A, [[1.0, 0.0]], [-1 + 1j, -2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="poles"):
            place_poles([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]], [-1.0])

    def test_coefficient_fidelity(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            A, C = random_observable_pair(rng, n, p)
            poles = random_stable_poles(rng, n)
            K = place_poles(A, C, poles)
            assert char_coeff_relerr(A + K @ C, poles) <= 1e-6

    def test_duality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            A, C = random_observable_pair(rng, n, p)
            poles = random_stable_poles(rng, n)
            K = place_poles(A, C, poles)
            assert_multiset_close(
                eigenvalues(A + K @ C), eigenvalues(A.T + C.T @ K.T), tol=1e-8
            )

    def test_triple_real_pole(self):
        rng = np.random.default_rng(60)
        A, C = random_observable_pair(rng, 5, 1)
        poles = [-2.0, -2.0, -2.0, -1 + 1j, -1 - 1j]
        K = place_poles(A, C, poles)
        assert char_coeff_relerr(A + K @ C, poles) <= 1e-10

    def test_keep_existing_spectrum(self):
        rng = np.random.default_rng(61)
        A, C = random_observable_pair(rng, 4, 2)
        eigs = eigenvalues(A)
        K = place_poles(A, C, eigs)
        assert char_coeff_relerr(A + K @ C, eigs) <= 1e-10

    def test_scalar_many_outputs(self):
        rng = np.random.default_rng(62)
        C = rng.standard_normal((3, 1))
        K = place_poles([[2.0]], C, [-4.0])
        assert_multiset_close(eigenvalues(np.array([[2.0]]) + K @ C), [-4.0])

    def test_order_eight_all_complex(self):
        rng = np.random.default_rng(63)
        A, C = random_observable_pair(rng, 8, 1)
        poles = [-1 + 1j, -1 - 1j, -2 + 0.5j, -2 - 0.5j,
                 -0.5 + 3j, -0.5 - 3j, -3 + 2j, -3 - 2j]
        K = place_poles(A, C, poles)
        assert char_coeff_relerr(A + K @ C, poles) <= 1e-10


class TestStabilizingGain:
    def test_hidden_stable_mode_untouched(self):
        A = np.diag([-1.0, -2.0])
        C = np.array([[1.0, 0.0]])
        K = stabilizing_gain(A, C)
        closed = eigenvalues(A + K @ C)
        assert spectral_abscissa(A + K @ C) < 0.0
        assert min(abs(v - (-2.0)) for v in closed) <= 1e-8

    def test_observable_full_placement(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        K = stabilizing_gain(A, C, [-1.0, -2.0])
        assert_multiset_close(eigenvalues(A + K @ C), [-1.0, -2.0])

    def test_undetectable_rejected(self):
        with pytest.raises(UndetectableError):
            stabilizing_gain(np.eye(2), [[1.0, 0.0]])

    def test_default_poles(self):
        assert_allclose(default_stable_poles(3), [-1.0, -1.5, -2.0])

    def test_unstable_target_rejected(self):
        with pytest.raises(ValueError, match="negative real"):
            stabilizing_gain([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]], [1.0, -2.0])

    def test_block_length_mismatch_rejected(self):
        # observable block has dimension 1, so two poles is an error
        with pytest.raises(ValueError, match="observable block"):
            stabilizing_gain(np.diag([-1.0, -2.0]), [[1.0, 0.0]], [-1.0, -2.0])

    def test_stabilizes_every_detectable_pair(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, n + 1))
            A, C, hidden = random_detectable_pair(rng, n, p, n_hidden=None if p < n else 0)
            K = stabilizing_gain(A, C, tol=STRUCT_TOL)
            closed = eigenvalues(A + K @ C)
            assert spectral_abscissa(A + K @ C) < 0.0
            # hidden modes survive in the closed-loop spectrum
            for lam in hidden:
                assert min(abs(v - lam) for v in closed) <= 1e-6 * (1.0 + abs(lam))

    def test_rejects_exactly_undetectable(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            if rng.random() < 0.5:
                A, C, _ = random_detectable_pair(rng, n, p)
            else:
                A, C, _ = random_undetectable_pair(rng, n, p)
            detectable = check_detectability(A, C, STRUCT_TOL).detectable
            if detectable:
                stabilizing_gain(A, C, tol=STRUCT_TOL)
            else:
                with pytest.raises(UndetectableError):
                    stabilizing_gain(A, C, tol=STRUCT_TOL)

    def test_zero_output_map(self):
        # no measurements: stable A gives zero gain, unstable A is hopeless
        K = stabilizing_gain(np.diag([-1.0, -2.0]), np.zeros((1, 2)))
        assert_allclose(K, np.zeros((2, 1)))
        with pytest.raises(UndetectableError) as excinfo:
            stabilizing_gain(np.diag([1.0, -2.0]), np.zeros((1, 2)))
        assert excinfo.value.offending == [1]
