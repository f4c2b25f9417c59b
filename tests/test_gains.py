import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    Plant,
    UndetectableError,
    check_detectability,
    default_stable_poles,
    eigenvalues,
    gains,
    obs_decompose,
    place_poles,
    solve_constrained_sylvester,
    spectral_abscissa,
    stabilizing_gain,
    synthesize_observer,
)
from tests.conftest import (
    STRUCT_TOL,
    assert_multiset_close,
    random_detectable_pair,
    random_observable_pair,
    random_stable_poles,
    random_undetectable_pair,
)

# the double integrator, position measured
A_DOUBLE = np.array([[0.0, 1.0], [0.0, 0.0]])
C_DOUBLE = np.array([[1.0, 0.0]])


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
        message = r"^desired must be closed under conjugation; \(-1\+1j\) is unmatched$"
        with pytest.raises(ValueError, match=message):
            place_poles(A, [[1.0, 0.0]], [-1 + 1j, -2.0])

    def test_complex_pair_fallback(self, monkeypatch):
        # a symmetric stage block with an orthogonal input gives both single
        # candidates parallel real and imaginary parts, so the pair is placed
        # from the combination of the two
        drawn = []
        combinations = itertools.combinations

        def recorded(*args):
            for jk in combinations(*args):
                drawn.append(jk)
                yield jk

        monkeypatch.setattr(itertools, "combinations", recorded)
        A = np.diag([1.0, 2.0])
        poles = [-1 + 1j, -1 - 1j]
        K = place_poles(A, np.eye(2), poles)
        monkeypatch.undo()
        # combinations are drawn only once every single candidate is passed
        # over, and the first one drawn was taken
        assert drawn == [(0, 1)]
        assert_multiset_close(eigenvalues(A + K), poles, tol=1e-10)

    def test_perturbed_pair_keeps_its_partner(self):
        # the -imag member sorts first and the real pole is nearer to it than
        # its conjugate is: the pair must still be its two members
        A, C = random_observable_pair(np.random.default_rng(26), 3, 1)
        poles = [-1 + 1e-10 - 1j, -1 + 1j, -1.5]
        assert gains._targets(poles, 3, stable=False)[1] == [-1 + 1e-10 + 1j, -1.5]
        K = place_poles(A, C, poles)
        assert char_coeff_relerr(A + K @ C, poles) <= 1e-10

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: place_poles(np.eye(2), np.ones((1, 3)), [-1.0, -2.0]),
         r"^Co must have 2 columns to match Ao, got 3$"),
        (lambda: stabilizing_gain(np.eye(2), np.ones((1, 3))),
         r"^Co must have 2 columns to match Ao, got 3$"),
        (lambda: place_poles([[0.0]], [[1.0]], ["a"]), r"^desired must be numbers: "),
        (lambda: stabilizing_gain([[1.0]], [[1.0]], [object()]), r"^desired must be numbers: "),
        (lambda: place_poles([[0.0]], [[1.0]], [np.nan]), r"^desired must be finite$"),
        (lambda: stabilizing_gain([[1.0]], [[1.0]], [-np.inf]), r"^desired must be finite$"),
    ],
    ids=["place-columns", "stabilize-columns", "place-text", "stabilize-object",
         "place-nan", "stabilize-inf"],
)
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _pairable(members):
    """Brute-force oracle: whether the complex ``members`` split into pairs,
    each member within ``_PAIR_TOL`` of its partner's conjugate, trying
    every pairing (of either sign)."""
    if not members:
        return True
    a, rest = members[0], members[1:]
    return any(
        abs(b - np.conj(a)) <= gains._PAIR_TOL * (1.0 + max(abs(a), abs(b)))
        and _pairable(rest[:k] + rest[k + 1:])
        for k, b in enumerate(rest)
    )


def _target_list(rng):
    """0-5 conjugate pairs (half of the lists repeat one) and 0-4 reals, 90%
    of the lists perturbed by a log-uniform 1e-12..1e-8 relative amount."""
    k = int(rng.integers(0, 6))
    pairs = list(rng.uniform(-3.0, 0.0, k) + 1j * rng.uniform(0.1, 3.0, k))
    if k and rng.random() < 0.5:
        pairs.append(pairs[int(rng.integers(k))])
    reals = rng.uniform(-3.0, 0.0, int(rng.integers(0, 5)))
    poles = np.array([*pairs, *np.conj(pairs), *reals], dtype=complex)
    if rng.random() < 0.9:
        rel = 10.0 ** rng.uniform(-12.0, -8.0, poles.size)
        poles *= 1.0 + rel * np.exp(2j * np.pi * rng.random(poles.size))
    return rng.permutation(poles)


class TestTargets:
    """``gains._targets``, the one boundary every placement's targets pass."""

    def test_pairing_is_exact(self):
        # the +imag member nearest to the last member's conjugate is the only
        # partner of another member: the list pairs up, but not greedily
        z = -1 + 1j
        poles = [z, z + 2e-9, np.conj(z) - 1.5e-9, np.conj(z) + 0.5e-9]
        assert gains._targets(poles, 4, stable=False)[1] == [z + 2e-9, z]
        A, C = random_observable_pair(np.random.default_rng(5), 4, 2)
        K = place_poles(A, C, poles)
        assert_multiset_close(eigenvalues(A + K @ C), poles, tol=1e-8)

    def test_pairing_matches_brute_force(self):
        rng = np.random.default_rng(93)
        accepted = 0
        for _ in range(2000):
            poles = _target_list(rng)
            snap = np.abs(poles.imag) <= gains._REAL_SNAP * (1.0 + np.abs(poles.real))
            members = [complex(v) for v in poles[~snap]]
            try:
                gains._targets(poles, poles.size, stable=False)
            except ValueError as exc:
                assert "closed under conjugation" in str(exc)
                assert not _pairable(members)
            else:
                assert _pairable(members)
                accepted += 1
        assert 500 < accepted < 1500

    @pytest.mark.parametrize(
        "solve",
        [
            lambda d: solve_constrained_sylvester(A_DOUBLE, C_DOUBLE, d),
            lambda d: synthesize_observer(Plant(A_DOUBLE, [[0.0], [1.0]], C_DOUBLE), d),
            lambda d: stabilizing_gain(A_DOUBLE, C_DOUBLE, [*d, -1.0]),
        ],
        ids=["solve", "observer", "stabilizing"],
    )
    def test_stability_band(self, solve):
        # a target in the band that makes a hidden mode undetectable is no
        # stabilization target; one just outside it is
        assert not check_detectability(np.diag([-1.0, -5e-10]), [[1.0, 0.0]]).detectable
        with pytest.raises(ValueError, match=r"^desired must have real parts below -1e-09$"):
            solve([-5e-10])
        solve([-2e-9])

    def test_place_poles_takes_any_spectrum(self):
        K = place_poles(A_DOUBLE, C_DOUBLE, [1.0, -5e-10])
        assert_multiset_close(eigenvalues(A_DOUBLE + K @ C_DOUBLE), [1.0, -5e-10], tol=1e-9)


class TestGates:
    """Each gate of the placement raises its own error."""

    def test_coefficient_gate(self):
        # s^2 + 3 s + 2 against the target s^2 + 4 s + 3: error 1 / 4
        with pytest.raises(
            np.linalg.LinAlgError,
            match=r"^eigenvalue assignment failed verification \(coefficient error 2\.50e-01\)$",
        ):
            gains._verify_assignment(np.diag([-1.0, -2.0]), np.array([-1.0, -3.0]))

    def test_stabilization_gate(self, monkeypatch):
        # a zero gain on the observable block leaves A's unstable mode in place
        monkeypatch.setattr(
            gains, "_place_output_injection",
            lambda dec, *args: np.zeros((dec.no, dec.C1.shape[0])),
        )
        with pytest.raises(np.linalg.LinAlgError, match="^stabilization failed verification$"):
            stabilizing_gain([[1.0, 1.0], [0.0, -1.0]], [[1.0, 0.0]])


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

        def recorded(A, B, items, directions):
            orders.append(A.shape[0])
            return place(A, B, items, directions)

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


def two_svd_insert(A, B, mu):
    """The per-pole rule from one SVD of the pencil [A - mu I, B] and one of
    the state part of its null space: the rule for any B, written out."""
    n = A.shape[0]
    if mu.imag == 0.0:
        M = np.hstack([A - mu.real * np.eye(n), B])
    else:
        M = np.hstack([A - mu * np.eye(n, dtype=complex), B.astype(complex)])
    _, s, Vh = np.linalg.svd(M)
    N = Vh[int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * s[0])):].conj().T
    X, W = N[:n], N[n:]
    basis = np.linalg.svd(X)[2].conj()
    candidates = iter(basis)
    if mu.imag != 0.0:
        d = basis.shape[0]
        pairs = (
            (basis[j] + 1j * basis[k]) / np.sqrt(2.0) for j in range(d) for k in range(j + 1, d)
        )
        candidates = itertools.chain(candidates, pairs)
    for v in candidates:
        x, w = X @ v, W @ v
        nx = np.linalg.norm(x)
        if nx <= 1e-12:
            continue
        if mu.imag == 0.0:
            x, w = x.real, w.real
            h = x / nx
            h[0] += np.copysign(1.0, h[0])
            return np.outer(w, x) / float(x @ x), np.eye(n)[:, 1:] - np.outer(h, h[1:] / abs(h[0]))
        M2 = np.column_stack([x.real, x.imag])
        s2 = np.linalg.svd(M2, compute_uv=False)
        if s2[-1] <= 1e-8 * s2[0]:
            continue
        F0 = np.column_stack([w.real, w.imag]) @ np.linalg.pinv(M2)
        return F0, np.linalg.qr(M2, mode="complete")[0][:, 2:]
    raise AssertionError("no candidate")


class TestStageRule:
    """Stage blocks have an input of full row rank, and each pole is placed
    from the least-norm input of its null directions."""

    @pytest.mark.parametrize("extra", [0, 1, 3], ids=["square", "wide1", "wide3"])
    @pytest.mark.parametrize("mu", [-1.5, -0.5 + 2.0j], ids=["real", "complex"])
    def test_matches_two_svd_rule(self, extra, mu):
        rng = np.random.default_rng((80, extra, int(np.iscomplex(mu))))
        for r in range(2 if np.iscomplex(mu) else 1, 8):
            D = rng.standard_normal((r, r))
            B1 = rng.standard_normal((r, r + extra))
            F0, U = gains._insert_invariant_block(D, B1, complex(mu), gains._least_norm_directions)
            F0_ref, U_ref = two_svd_insert(D, B1, complex(mu))
            assert np.linalg.norm(F0 - F0_ref) <= 1e-10 * np.linalg.norm(F0_ref)
            assert_allclose(U @ U.T, U_ref @ U_ref.T, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("smallest", [1e-2, 1e-6, 1e-10])
    def test_graded_input(self, smallest):
        # a stage input with orthogonal rows of norms 1 .. smallest; its
        # deflations lose the orthogonality, and the solve with B B.T would
        # square their conditioning
        rng = np.random.default_rng(83)
        items = [complex(-1.0 - 0.3 * j) for j in range(8)]
        for _ in range(20):
            D = rng.standard_normal((8, 8))
            V = np.linalg.qr(rng.standard_normal((8, 8)))[0]
            B1 = np.geomspace(1.0, smallest, 8)[:, None] * V.T
            F = gains._stage_gain(D, B1, np.zeros((8, 0)), items)
            assert_multiset_close(eigenvalues(D + B1 @ F), items, tol=1e-7)

    @pytest.mark.parametrize("spread, rule", [
        (0.99e2, gains._least_norm_directions),
        (1.01e2, gains._pencil_directions),
    ], ids=["least-norm", "pencil"])
    def test_rule_follows_input_conditioning(self, monkeypatch, spread, rule):
        rng = np.random.default_rng(84)
        D = rng.standard_normal((4, 4))
        V = np.linalg.qr(rng.standard_normal((5, 4)))[0]
        B1 = np.geomspace(1.0, 1.0 / spread, 4)[:, None] * V.T
        items = [complex(-1.0 - 0.5 * j) for j in range(4)]
        seen = []
        place = gains._place_feedback

        def recorded(A, B, items, directions):
            seen.append(directions)
            return place(A, B, items, directions)

        monkeypatch.setattr(gains, "_place_feedback", recorded)
        F = gains._stage_gain(D, B1, np.zeros((4, 0)), items)
        assert seen and all(d is rule for d in seen)
        assert_multiset_close(eigenvalues(D + B1 @ F), items, tol=1e-8)

    def test_graded_outputs(self):
        # output rows of norms 1 .. 1e-6 give the first stage, and the
        # stages after it, graded inputs
        rng = np.random.default_rng(85)
        poles = default_stable_poles(16)
        for _ in range(10):
            A = rng.standard_normal((16, 16))
            C = np.geomspace(1.0, 1e-6, 6)[:, None] * rng.standard_normal((6, 16))
            K = place_poles(A, C, poles)
            assert_multiset_close(eigenvalues(A + K @ C), poles, tol=1e-5)

    @pytest.mark.parametrize("r, c", [(1, 1), (4, 4), (5, 7)])
    def test_one_small_svd_per_pole(self, monkeypatch, r, c):
        rng = np.random.default_rng((81, r, c))
        H = rng.standard_normal((r + 2, r + 2))
        B1 = rng.standard_normal((r, c))
        K2 = rng.standard_normal((r, 2))
        items = [complex(-1.0 - 0.5 * j) for j in range(r)]
        widths = []
        svd = np.linalg.svd

        def counted(M, *args, **kwargs):
            widths.append(np.shape(M)[1])
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        F = gains._stage_gain(H, B1, K2, items)
        monkeypatch.undo()
        # one SVD of the r_k x r_k least-norm map per pole, never one of the
        # r_k x (r_k + c) pencil
        assert widths == list(range(r, 0, -1))
        Hcl = H.copy()
        Hcl[:r] += B1 @ F
        lower = H[r:, r:] + H[r:, :r] @ K2
        assert_multiset_close(eigenvalues(Hcl), [*items, *eigenvalues(lower)], tol=1e-8)

    def test_base_case_takes_any_input(self, monkeypatch):
        # the first stage has three slots and only pairs to fill them, so the
        # pair is placed whole; its input has rank 1 in three columns, so a
        # deflation leaves a wide B with B B.T singular
        rng = np.random.default_rng(82)
        A = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 1))
        b[3] = 0.0
        B = b @ np.ones((1, 3))
        poles = [-1 + 1j, -1 - 1j, -2 + 0.5j, -2 - 0.5j]
        seen = []
        place = gains._place_feedback

        def recorded(A, B, items, directions):
            seen.append((B.shape, np.linalg.matrix_rank(B), directions))
            return place(A, B, items, directions)

        monkeypatch.setattr(gains, "_place_feedback", recorded)
        F = gains._stage_feedback(A, B, (3, 1), gains._placement_order(np.array(poles)))
        assert ((2, 3), 1, gains._pencil_directions) in seen
        assert all(rule is gains._pencil_directions for *_, rule in seen)
        assert char_coeff_relerr(A + B @ F, poles) <= 1e-10


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
        with pytest.raises(ValueError, match=r"^desired must have real parts below -1e-09$"):
            stabilizing_gain([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]], [1.0, -2.0])

    def test_block_length_mismatch_rejected(self):
        # observable block has dimension 1, so two poles is an error
        with pytest.raises(ValueError, match=r"^desired must list 1 poles, got 2$"):
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
