import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    UndetectableError,
    check_detectability,
    default_stable_poles,
    eigenvalues,
    gains,
    obs_decompose,
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


def ackermann_gain(A, C, poles):
    """Single-output injection gain by Ackermann's formula,
    ``K = -phi(A) inv(O) e_n`` with O the observability matrix."""
    n = A.shape[0]
    O = np.vstack([C @ np.linalg.matrix_power(A, j) for j in range(n)])
    phi = np.real(np.poly(np.asarray(poles, dtype=complex)))
    phi_A = sum(c * np.linalg.matrix_power(A, n - j) for j, c in enumerate(phi))
    return -phi_A @ np.linalg.solve(O, np.eye(n)[:, -1:])


class TestStageSplit:
    """Poles are placed stage by stage on the staircase; from a stage that
    cannot take a conjugate-closed share, the pair is placed whole."""

    @staticmethod
    def record_blocks(monkeypatch):
        # orders of the blocks the per-pole routine is handed, deflations included
        orders = []
        place = gains._place_feedback

        def recorded(A, B, items):
            orders.append(A.shape[0])
            return place(A, B, items)

        monkeypatch.setattr(gains, "_place_feedback", recorded)
        return orders

    def test_repeated_complex_pairs_spread_over_stages(self, monkeypatch):
        A, C = random_observable_pair(np.random.default_rng(70), 6, 2)
        assert obs_decompose(A, C).stages == (2, 2, 2)
        poles = [-1 + 1j, -1 - 1j] * 3
        orders = self.record_blocks(monkeypatch)
        K = place_poles(A, C, poles)
        # each stage takes one pair on its own 2 x 2 block
        assert sorted(orders) == [0, 2, 2, 2]
        assert char_coeff_relerr(A + K @ C, poles) <= 1e-10

    def test_odd_stage_without_real_pole_goes_whole(self, monkeypatch):
        A, C = random_observable_pair(np.random.default_rng(71), 6, 3)
        assert obs_decompose(A, C).stages == (3, 3)
        poles = [-1 + 1j, -1 - 1j, -2 + 0.5j, -2 - 0.5j, -0.5 + 2j, -0.5 - 2j]
        orders = self.record_blocks(monkeypatch)
        K = place_poles(A, C, poles)
        # the first stage has three slots and only pairs to fill them
        assert orders[0] == 6
        assert char_coeff_relerr(A + K @ C, poles) <= 1e-10

    @pytest.mark.parametrize(
        "items, r, share, rest",
        [
            # a pair that overflows is passed over for the next real
            ([-1, -2 + 1j, -3], 2, [-1, -3], [-2 + 1j]),
            # only pairs left for the last slot: the last real makes way
            ([-1, -2, -3 + 1j, -4 + 1j], 3, [-1, -3 + 1j], [-2, -4 + 1j]),
            ([-1 + 1j, -2 + 1j], 3, None, [-1 + 1j, -2 + 1j]),
        ],
    )
    def test_share_rule(self, items, r, share, rest):
        items = [complex(v) for v in items]
        assert gains._take_share(items, r) == (share, rest)

    def test_single_output_gain_is_ackermanns(self):
        # with one output the gain is unique, so the stage recursion must
        # reproduce it
        rng = np.random.default_rng(64)
        for n in range(1, 7):
            for _ in range(20):
                A, C = random_observable_pair(rng, n, 1)
                poles = random_stable_poles(rng, n)
                K = place_poles(A, C, poles)
                expected = ackermann_gain(A, C, poles)
                assert np.linalg.norm(K - expected) <= 1e-8 * np.linalg.norm(expected)


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
