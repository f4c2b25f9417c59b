import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    UndetectableError,
    analysis,
    check_detectability,
    eigenvalues,
    obs_decompose,
    solve_constrained_sylvester,
    spectral_abscissa,
    stabilizing_gain,
)
from tests.conftest import (
    STRUCT_TOL,
    assert_multiset_close,
    random_detectable_pair,
    random_undetectable_pair,
)


def pbh_observable(A, C, lam, tol=STRUCT_TOL):
    """Test-local PBH oracle: lam is observable iff [C; lam I - A] has rank n."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    stacked = np.vstack([np.asarray(C, dtype=complex), lam * np.eye(n) - A])
    return np.linalg.matrix_rank(stacked, tol) == n


def observable_row(verdict, lam):
    """The ``observable`` flag of the table row nearest to lam."""
    row = min(verdict.per_eigenvalue, key=lambda e: abs(e.eigenvalue - lam))
    assert abs(row.eigenvalue - lam) <= 1e-8 * (1.0 + abs(lam))
    return row.observable


class TestPBH:
    """Per-eigenvalue observability, read from the ``check_detectability``
    table and the observable dimension of ``obs_decompose``."""

    def test_repeated_unobservable(self):
        # stacked [[1,0],[0,0],[0,0]] has rank 1
        A, C = np.eye(2), [[1.0, 0.0]]
        assert not observable_row(check_detectability(A, C), 1.0)
        assert len(check_detectability(A, C).per_eigenvalue) == 1
        assert obs_decompose(A, C).no == 1

    def test_chain_observable(self):
        # stacked matrix has rank 2 by row reduction
        A, C = [[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]]
        assert observable_row(check_detectability(A, C), 0.0)
        assert obs_decompose(A, C).no == 2

    def test_decoupled_mode(self):
        # stacked [[1,0],[-1,0],[0,0]] has rank 1
        A, C = np.diag([-1.0, -2.0]), [[1.0, 0.0]]
        assert not observable_row(check_detectability(A, C), -2.0)
        assert obs_decompose(A, C).no == 1

    def test_complex_eigenvalue(self):
        A, C = [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0]]
        verdict = check_detectability(A, C)
        assert observable_row(verdict, 1j) and observable_row(verdict, -1j)
        assert obs_decompose(A, C).no == 2

    @pytest.mark.parametrize(
        "modes, offending", [([1.0, -2.0], [1.0]), ([-1.0, -2.0], [])], ids=["unstable", "stable"]
    )
    def test_zero_C_hides_every_mode(self, modes, offending):
        # a zero C measures nothing: the verdict is stabilizing_gain's
        A, C = np.diag(modes), np.zeros((1, 2))
        verdict = check_detectability(A, C)
        assert verdict.detectable is not offending
        assert verdict.offending == offending
        assert [e.observable for e in verdict.per_eigenvalue] == [False, False]
        assert verdict.observability_indices == ()
        if offending:
            with pytest.raises(UndetectableError) as err:
                stabilizing_gain(A, C)
            assert err.value.offending == offending
        else:
            assert not np.any(stabilizing_gain(A, C))


@pytest.mark.parametrize("fn", [check_detectability, obs_decompose])
@pytest.mark.parametrize(
    "A, C, message",
    [
        (np.eye(2), np.ones((1, 3)), r"^C must have 2 columns to match A, got 3$"),
        (np.ones((2, 3)), np.ones((1, 3)), r"^A must be square, got shape \(2, 3\)$"),
    ],
    ids=["columns", "square"],
)
def test_invalid_pair_rejected(fn, A, C, message):
    with pytest.raises(ValueError, match=message):
        fn(A, C)


class TestDetectability:
    def test_unstable_unobservable(self):
        verdict = check_detectability(np.eye(2), [[1.0, 0.0]])
        assert not verdict.detectable
        assert_multiset_close(verdict.offending, [1.0])

    def test_marginal_observable(self):
        # both eigenvalues 0 (marginal, counted unstable) but observable
        verdict = check_detectability([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])
        assert verdict.detectable

    def test_stable_unobservable_ok(self):
        verdict = check_detectability(np.diag([-1.0, -2.0]), [[1.0, 0.0]])
        assert verdict.detectable
        flags = {e.eigenvalue.real: e for e in verdict.per_eigenvalue}
        assert flags[-1.0].observable and flags[-1.0].stable
        assert not flags[-2.0].observable
        assert flags[-2.0].stable

    def test_stability_band(self):
        # eigenvalue inside the band counts as unstable
        A = np.diag([-1e-12, -1.0])
        verdict = check_detectability(A, [[0.0, 1.0]])
        assert not verdict.detectable

    def test_observability_implies_detectability(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            p = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, n))
            if obs_decompose(A, C).no == n:
                assert check_detectability(A, C).detectable

    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            if rng.random() < 0.5:
                A, C, _ = random_detectable_pair(rng, n, p)
            else:
                A, C, _ = random_undetectable_pair(rng, n, p)
            S = np.eye(n) + 0.2 * rng.standard_normal((n, n))
            verdict = check_detectability(A, C, STRUCT_TOL)
            verdict_sim = check_detectability(np.linalg.solve(S, A @ S), C @ S, STRUCT_TOL)
            assert verdict.detectable == verdict_sim.detectable


class TestObservability:
    """Whole-pair observability: ``obs_decompose(A, C).no == n``."""

    def test_chain(self):
        assert obs_decompose([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]]).no == 2

    def test_decoupled(self):
        assert obs_decompose(np.diag([-1.0, -2.0]), [[1.0, 0.0]]).no == 1

    def test_scalar(self):
        assert obs_decompose([[0.0]], [[1.0]]).no == 1
        assert observable_row(check_detectability([[0.0]], [[1.0]]), 0.0)


class TestStaircase:
    def test_observable_pair(self):
        dec = obs_decompose([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])
        assert dec.no == 2
        assert dec.A21.shape == (0, 2) and dec.A22.shape == (0, 0)
        assert_allclose(dec.Tsim, np.eye(2))

    def test_hidden_stable_mode(self):
        dec = obs_decompose(np.diag([-1.0, -2.0]), [[1.0, 0.0]])
        assert dec.no == 1
        assert_allclose(dec.A11, [[-1.0]])
        assert_allclose(dec.A22, [[-2.0]])
        assert_allclose(dec.C1, [[1.0]])
        assert_allclose(dec.Tsim, np.eye(2))

    def test_hidden_unstable_mode(self):
        dec = obs_decompose(np.diag([5.0, -1.0]), [[0.0, 1.0]])
        assert dec.no == 1
        assert_allclose(eigenvalues(dec.A22), [5.0])

    def test_zero_C_has_no_observable_block(self):
        dec = obs_decompose(np.diag([1.0, -2.0]), np.zeros((1, 2)))
        assert dec.no == 0 and dec.stages == ()
        assert dec.C1.shape == (1, 0)
        assert_multiset_close(eigenvalues(dec.A22), [1.0, -2.0])

    @pytest.mark.parametrize(
        "A, C, stages, indices",
        [
            # triple integrator, position measured: one chain of length 3
            (np.diag([1.0, 1.0], 1), [[1.0, 0.0, 0.0]], (1, 1, 1), (3,)),
            # a chain of 3 and a single state, the head of each measured
            (
                np.diag([1.0, 1.0, 0.0], 1),
                [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                (2, 1, 1),
                (3, 1),
            ),
        ],
    )
    def test_stage_ranks_and_observability_indices(self, A, C, stages, indices):
        dec = obs_decompose(A, C)
        assert dec.stages == stages
        assert dec.observability_indices == indices
        assert check_detectability(A, C).observability_indices == indices
        # (A11.T, C1.T) is block upper Hessenberg on the stages, fed only
        # through its first stage
        At, Bt = dec.A11.T, dec.C1.T
        starts = np.cumsum((0, *stages))
        assert np.linalg.matrix_rank(Bt[: stages[0]]) == stages[0]
        assert_allclose(Bt[stages[0]:], 0.0, atol=1e-14)
        for i in range(1, len(stages)):
            below = At[starts[i]:, starts[i - 1]:starts[i]]
            assert np.linalg.matrix_rank(below[: stages[i]]) == stages[i]
            assert_allclose(below[stages[i]:], 0.0, atol=1e-14)

    def test_random_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n))
            A, C, hidden = random_detectable_pair(rng, n, p)
            dec = obs_decompose(A, C, STRUCT_TOL)
            scale_A = 1.0 + np.linalg.norm(A)
            block = np.zeros((n, n))
            block[: dec.no, : dec.no] = dec.A11
            block[dec.no :, : dec.no] = dec.A21
            block[dec.no :, dec.no :] = dec.A22
            assert np.linalg.norm(dec.Tsim.T @ A @ dec.Tsim - block) <= 1e-7 * scale_A
            ct_target = np.hstack([dec.C1, np.zeros((p, n - dec.no))])
            assert np.linalg.norm(C @ dec.Tsim - ct_target) <= 1e-7 * (
                1.0 + np.linalg.norm(C)
            )
            # orthogonal transform
            assert_allclose(dec.Tsim.T @ dec.Tsim, np.eye(n), atol=1e-12)
            # observable block really observable
            for lam in eigenvalues(dec.A11):
                assert pbh_observable(dec.A11, dec.C1, lam)
            # spectrum splits across the blocks
            assert_multiset_close(
                np.concatenate([eigenvalues(dec.A11), eigenvalues(dec.A22)]),
                eigenvalues(A),
                tol=1e-6,
            )
            # unobservable block spectrum = the planted hidden modes
            assert_multiset_close(eigenvalues(dec.A22), hidden, tol=1e-6)

    def test_unobservable_eigs_match_pbh(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            A, C, _ = random_detectable_pair(rng, n, p)
            dec = obs_decompose(A, C, STRUCT_TOL)
            failing = [
                lam
                for lam in eigenvalues(A)
                if not pbh_observable(A, C, lam)
            ]
            assert_multiset_close(eigenvalues(dec.A22), failing, tol=1e-6)


class TestOneVerdict:
    """Every entry point reads observability off the same split."""

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8, 1e10])
    def test_output_scale_invariance(self, c):
        # observable triple integrator: no verdict may depend on C's scale
        A = np.diag([1.0, 1.0], 1)
        C = np.array([[c, 0.0, 0.0]])
        assert obs_decompose(A, C).no == 3
        K = stabilizing_gain(A, C)
        assert spectral_abscissa(A + K @ C) < 0.0
        assert check_detectability(A, C).detectable
        sol = solve_constrained_sylvester(A, C)
        assert sol.report.F_spectral_abscissa < 0.0

    @pytest.mark.parametrize("tol", [0.0, STRUCT_TOL])
    def test_check_and_solve_agree(self, tol):
        # planted undetectable pairs on which PBH once disagreed with the
        # solve at tol 0 (draws 64, 273 and 290 among them)
        for i in range(300):
            A, C, _ = random_undetectable_pair(np.random.default_rng((9, i)), 8, 1 + i % 2)
            verdict = check_detectability(A, C, tol)
            assert not verdict.detectable, i
            with pytest.raises(UndetectableError) as excinfo:
                solve_constrained_sylvester(A, C, tol=tol)
            assert_multiset_close(verdict.offending, excinfo.value.offending, 1e-6)
            for lam in verdict.offending:
                assert not observable_row(verdict, lam), (i, lam)

    @pytest.mark.parametrize("h, detectable", [(-5e-10, False), (-2e-9, True)])
    def test_one_stability_band(self, h, detectable):
        # a hidden mode h beside an observable double integrator: inside the
        # band (Re >= -1e-9) it makes the pair undetectable at every entry
        # point, and each names it; just outside, every entry point accepts
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, h]])
        C = np.array([[1.0, 0.0, 0.0]])
        verdict = check_detectability(A, C)
        assert verdict.detectable == detectable
        if detectable:
            K = stabilizing_gain(A, C)
            assert spectral_abscissa(A + K @ C) < 0.0
            assert solve_constrained_sylvester(A, C).report.F_spectral_abscissa < 0.0
            return
        assert_allclose(verdict.offending, [h], rtol=1e-6)
        for solve in (stabilizing_gain, solve_constrained_sylvester):
            with pytest.raises(UndetectableError) as excinfo:
                solve(A, C)
            assert_allclose(excinfo.value.offending, [h], rtol=1e-6)

    @pytest.mark.parametrize("n, p", [(8, 2), (9, 10)])
    def test_check_computes_split_once(self, monkeypatch, n, p):
        # one SVD of C, one staircase, and no complex SVD
        rng = np.random.default_rng(14)
        A, C = rng.standard_normal((n, n)), rng.standard_normal((p, n))
        calls = {"svd_of_C": 0, "staircase": 0, "complex_svd": 0}
        svd, staircase = np.linalg.svd, analysis._staircase

        def counted_svd(M, *args, **kwargs):
            calls["svd_of_C"] += np.shape(M) == C.shape
            calls["complex_svd"] += np.iscomplexobj(M)
            return svd(M, *args, **kwargs)

        def counted_staircase(*args):
            calls["staircase"] += 1
            return staircase(*args)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(analysis, "_staircase", counted_staircase)
        check_detectability(A, C)
        assert calls == {"svd_of_C": 1, "staircase": 1, "complex_svd": 0}
