import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    DEFAULTS,
    UndetectableError,
    check_detectability,
    default_stable_poles,
    eigenvalues,
    obs_decompose,
    output_normalizing_transform,
    partition_by_output,
    solve_constrained_sylvester,
    spectral_abscissa,
    sylvester,
    verify_solution,
)
from tests.conftest import (
    STRUCT_TOL,
    assert_multiset_close,
    random_detectable_pair,
    random_undetectable_pair,
)

A_CHAIN = np.array([[0.0, 1.0], [0.0, 0.0]])
C_CHAIN = np.array([[1.0, 0.0]])


def partition_detectable(part, tol):
    """Detectability of the partitioned pair, zero-output block included."""
    if part.A22.shape[0] == 0:
        return True
    if not np.any(np.abs(part.A12) > tol):
        return spectral_abscissa(part.A22) < 0.0
    return check_detectability(part.A22, part.A12, tol).detectable


class TestWorkedExample:
    def test_exact_solution(self):
        sol = solve_constrained_sylvester(A_CHAIN, C_CHAIN, [-1.0])
        assert_allclose(sol.T, [[-1.0, 1.0]], atol=1e-12)
        assert_allclose(sol.F, [[-1.0]], atol=1e-12)
        assert_allclose(sol.G, [[-1.0]], atol=1e-12)
        # residual of the defining equation: T A - F T = [-1, 0] = G C
        assert np.linalg.norm(sol.T @ A_CHAIN - sol.F @ sol.T - sol.G @ C_CHAIN) <= 1e-12
        det = np.linalg.det(np.vstack([C_CHAIN, sol.T]))
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_report_values(self):
        sol = solve_constrained_sylvester(A_CHAIN, C_CHAIN, [-1.0])
        rep = verify_solution(A_CHAIN, C_CHAIN, sol.T, sol.F, sol.G)
        assert sol.report == rep  # the solve returns the report it verified
        assert rep.residual_norm <= 1e-12
        # min singular value of [[1,0],[-1,1]]: sqrt((3 - sqrt(5))/2)
        assert rep.stacked_min_singular_value == pytest.approx(
            np.sqrt((3.0 - np.sqrt(5.0)) / 2.0), abs=1e-12
        )
        assert rep.stacked_min_singular_value > 0.3
        assert rep.F_spectral_abscissa == pytest.approx(-1.0, abs=1e-12)
        assert rep.T_rank == 1

    def test_stacked_identity(self):
        sol = solve_constrained_sylvester(A_CHAIN, C_CHAIN, [-1.0])
        block = np.block([[np.eye(1), np.zeros((1, 1))], [sol.K, np.eye(1)]])
        assert_allclose(
            np.vstack([C_CHAIN, sol.T]), block @ np.linalg.inv(sol.L), atol=1e-12
        )


class TestErrors:
    def test_undetectable_rejected(self):
        with pytest.raises(UndetectableError) as exc:
            solve_constrained_sylvester(np.eye(2), C_CHAIN)
        assert_multiset_close(exc.value.offending, [1.0])

    def test_rank_deficient_C_rejected(self):
        with pytest.raises(ValueError, match="full row rank"):
            solve_constrained_sylvester(np.eye(2), [[0.0, 0.0]])

    def test_empty_C_rejected(self):
        with pytest.raises(ValueError):
            solve_constrained_sylvester(np.eye(2), np.zeros((0, 2)))

    def test_stabilization_gate(self, monkeypatch):
        # a zero gain leaves F = N.T A N = [[1]]: the solve raises the
        # placement gate of gains on the spectrum of F in its own report
        monkeypatch.setattr(
            sylvester, "_staircase_gain",
            lambda A, C, dec, desired: np.zeros((A.shape[0], C.shape[0])),
        )
        with pytest.raises(np.linalg.LinAlgError, match="^stabilization failed verification$") as exc:
            solve_constrained_sylvester([[0.0, 1.0], [0.0, 1.0]], C_CHAIN)
        assert exc.traceback[-1].path.name == "gains.py"

    def test_pole_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_constrained_sylvester(A_CHAIN, C_CHAIN, [-1.0, -2.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_constrained_sylvester(np.eye(2), np.ones((1, 3))),
         r"^C must have 2 columns to match A, got 3$"),
        (lambda: partition_by_output(np.eye(2), np.ones((1, 3))),
         r"^C must have 2 columns to match A, got 3$"),
        (lambda: solve_constrained_sylvester(np.eye(2), np.eye(3)[:, :2]),
         r"^C must have at most 2 rows, got 3$"),
        (lambda: verify_solution(A_CHAIN, np.ones((1, 3)), [[1.0, 0.0]], [[-1.0]], [[1.0]]),
         r"^C must have 2 columns to match A, got 3$"),
        (lambda: verify_solution(A_CHAIN, C_CHAIN, [[1.0, 0.0, 0.0]], [[-1.0]], [[1.0]]),
         r"^T must have 2 columns to match A, got 3$"),
    ],
    ids=["solve-columns", "partition-columns", "solve-rows", "verify-C-columns",
         "verify-T-columns"],
)
def test_invalid_system_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestDegenerate:
    def test_full_measurement(self):
        A = np.diag([-1.0, 2.0])
        sol = solve_constrained_sylvester(A, np.eye(2))
        assert sol.T.shape == (0, 2)
        assert sol.F.shape == (0, 0)
        assert sol.G.shape == (0, 2)
        rep = verify_solution(A, np.eye(2), sol.T, sol.F, sol.G)
        assert rep.residual_norm == 0.0
        assert rep.stacked_min_singular_value == pytest.approx(1.0)
        assert rep.T_rank == 0

    def test_full_measurement_general_C(self):
        A = np.array([[0.0, 3.0], [1.0, -1.0]])
        C = np.array([[0.0, 2.0], [1.0, 0.0]])
        sol = solve_constrained_sylvester(A, C)
        assert sol.T.shape == (0, 2)

    def test_scalar_plant(self):
        sol = solve_constrained_sylvester([[-4.0]], [[2.0]])
        assert sol.T.shape == (0, 1)


class TestScale:
    """Detectable pairs whose C is far from the scale of A, or whose A is
    stiff: the solve must agree with check_detectability on them."""

    @pytest.mark.parametrize(
        "A, C",
        [
            # observable double integrator measured through a large C
            ([[0.0, 1e-3], [0.0, 0.0]], [[1e5, 0.0]]),
            # measured integrator beside a fast stable mode
            (np.diag([0.0, -1e8]), [[1.0, 0.0]]),
            # triple integrator: A12 alone would carry C's scale into the
            # staircase that places the poles
            (np.diag([1.0, 1.0], 1), [[1e10, 0.0, 0.0]]),
        ],
    )
    def test_detectable_pair_solved(self, A, C):
        assert check_detectability(A, C).detectable
        sol = solve_constrained_sylvester(A, C)
        assert sol.report.F_spectral_abscissa < 0.0
        assert sol.report.T_rank == np.shape(A)[0] - 1

    @pytest.mark.xfail(
        strict=True,
        raises=np.linalg.LinAlgError,
        reason="the [C; T] gate min_stacked_sv is an absolute 1e-10, and "
        "sigma_min([C; T]) <= ||C||: no construction passes it for a small C",
    )
    def test_small_output_scale(self):
        # an exact solution exists (the same T and F as at C = [[1, 0, 0]])
        A = np.diag([1.0, 1.0], 1)
        C = np.array([[1e-12, 0.0, 0.0]])
        sol = solve_constrained_sylvester(A, C)
        assert sol.report.F_spectral_abscissa < 0.0

    def test_graded_output_rows(self):
        # rows of C of norms 1 .. 1e-6: the solve works with the orthonormal
        # rows Q of C = U diag(s) Q, so the grading reaches no stage input
        rng = np.random.default_rng(86)
        for _ in range(5):
            A = rng.standard_normal((16, 16))
            C = np.geomspace(1.0, 1e-6, 6)[:, None] * rng.standard_normal((6, 16))
            sol = solve_constrained_sylvester(A, C)
            gate = DEFAULTS.residual_rtol * (1.0 + np.linalg.norm(A))
            assert sol.report.residual_norm <= 0.1 * gate
            assert sol.report.F_spectral_abscissa < 0.0

    def test_one_cutoff_decides_verdict_and_placement(self):
        # the coupling 1e-4 is round-off at the scale of A: the verdict calls
        # -3 hidden and stable, so placement must leave it where it is
        A = np.array([[-1e8, 1e-4], [0.0, -3.0]])
        C = np.array([[1.0, 0.0]])
        assert check_detectability(A, C).detectable
        sol = solve_constrained_sylvester(A, C)
        assert np.array_equal(sol.K, [[0.0]])
        assert np.array_equal(sol.F, [[-3.0]])
        assert sol.report.stacked_min_singular_value == pytest.approx(1.0)


class TestOrder64:
    @pytest.mark.parametrize("p, n_hidden", [(16, 0), (8, 4)])
    def test_residual_well_inside_gate(self, p, n_hidden):
        # the gate is 1e-8 (1 + ||A||); a tenth of it leaves room for the
        # rounding of larger gains
        rng = np.random.default_rng((64, p, n_hidden))
        for _ in range(40):
            A, C, _ = random_detectable_pair(rng, 64, p, n_hidden=n_hidden)
            sol = solve_constrained_sylvester(A, C)
            gate = DEFAULTS.residual_rtol * (1.0 + np.linalg.norm(A))
            assert sol.report.residual_norm <= 0.1 * gate
            assert sol.report.F_spectral_abscissa < 0.0


class TestOrder256:
    def test_probe_draw_well_inside_gate(self):
        # every stage of the staircase is as wide as the output, so every
        # pole of the observer is placed on a stage block
        rng = np.random.default_rng((5, 256, 64, 0))
        A = rng.standard_normal((256, 256))
        C = rng.standard_normal((64, 256))
        assert obs_decompose(A, C).stages == (64, 64, 64, 64)
        sol = solve_constrained_sylvester(A, C)
        gate = DEFAULTS.residual_rtol * (1.0 + np.linalg.norm(A))
        assert sol.report.residual_norm <= 0.1 * gate
        assert sol.report.F_spectral_abscissa < 0.0


class TestVerifyReport:
    def test_zero_T_flagged(self):
        rep = verify_solution(A_CHAIN, C_CHAIN, np.zeros((1, 2)), [[-1.0]], [[0.0]])
        assert rep.residual_norm == 0.0
        assert rep.T_rank == 0
        assert rep.stacked_min_singular_value == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_G_residual(self):
        sol = solve_constrained_sylvester(A_CHAIN, C_CHAIN, [-1.0])
        G_bad = sol.G + 0.1
        rep = verify_solution(A_CHAIN, C_CHAIN, sol.T, sol.F, G_bad)
        # residual = |delta G| * ||C|| with C a unit row
        assert rep.residual_norm == pytest.approx(0.1, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_solution(A_CHAIN, C_CHAIN, [[1.0, 0.0]], [[-1.0]], [[1.0, 2.0]])


class TestRandomRoundTrip:
    def test_solve_then_verify(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n))
            A, C, _ = random_detectable_pair(rng, n, p)
            sol = solve_constrained_sylvester(A, C)
            rep = verify_solution(A, C, sol.T, sol.F, sol.G)
            assert rep.residual_norm <= 1e-8 * (1.0 + np.linalg.norm(A))
            assert rep.stacked_min_singular_value > 1e-10
            assert rep.F_spectral_abscissa < 0.0
            assert rep.T_rank == n - p

    def test_necessity_matches_detectability(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n))
            if rng.random() < 0.5:
                A, C, _ = random_detectable_pair(rng, n, p)
                bad = []
            else:
                A, C, bad = random_undetectable_pair(rng, n, p)
            if check_detectability(A, C, STRUCT_TOL).detectable:
                solve_constrained_sylvester(A, C, tol=STRUCT_TOL)
            else:
                with pytest.raises(UndetectableError) as excinfo:
                    solve_constrained_sylvester(A, C, tol=STRUCT_TOL)
                for lam in bad:
                    assert min(abs(v - lam) for v in excinfo.value.offending) <= 1e-6

    @pytest.mark.parametrize("draw, p", [(9547, 2), (14936, 1), (18101, 2)])
    def test_planted_mode_named_at_default_tol(self, draw, p):
        # draws on which PBH on (A, C) and the staircase on (A22, A12) once
        # disagreed, so the solve ended in a failed stabilization instead
        A, C, bad = random_undetectable_pair(np.random.default_rng((9, draw)), 8, p)
        with pytest.raises(UndetectableError) as excinfo:
            solve_constrained_sylvester(A, C)
        assert min(abs(v - bad[0]) for v in excinfo.value.offending) <= 1e-6

    @pytest.mark.parametrize("draw", [704, 1692, 3766])
    def test_every_unstable_hidden_mode_named(self, draw):
        # zeroing S's first row and column leaves a second unstable hidden
        # mode on these draws; PBH at the default eps rule names only it
        A, C, bad = random_undetectable_pair(np.random.default_rng((9, draw)), 8, 1)
        expected = check_detectability(A, C, STRUCT_TOL).offending
        assert len(expected) == 2
        assert min(abs(v - bad[0]) for v in expected) <= 1e-6
        with pytest.raises(UndetectableError) as excinfo:
            solve_constrained_sylvester(A, C)
        assert_multiset_close(excinfo.value.offending, expected, 1e-6)

    def test_verdict_independent_of_output_basis(self):
        # C -> M C leaves the unobservable modes unchanged, whatever M's scale
        A, C, _ = random_undetectable_pair(np.random.default_rng((9, 704)), 8, 1)
        with pytest.raises(UndetectableError) as excinfo:
            solve_constrained_sylvester(A, C)
        for scale in (1e-8, 1e8):
            with pytest.raises(UndetectableError) as scaled:
                solve_constrained_sylvester(A, scale * C)
            assert_multiset_close(scaled.value.offending, excinfo.value.offending, 1e-6)

    def test_partition_equivalence(self):
        rng = np.random.default_rng(32)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n))
            kind = trial % 3
            if kind == 0:
                A = rng.standard_normal((n, n))
                C = rng.standard_normal((p, n))
            elif kind == 1:
                A, C, _ = random_detectable_pair(rng, n, p)
            else:
                A, C, _ = random_undetectable_pair(rng, n, p)
            part = partition_by_output(A, C, STRUCT_TOL)
            full = check_detectability(A, C, STRUCT_TOL).detectable
            assert full == partition_detectable(part, STRUCT_TOL)

    def test_F_spectrum_structure(self):
        # spectrum of F = placed poles on the observable part of
        # (A22, A12) plus that pair's own (stable) unobservable modes
        rng = np.random.default_rng(33)
        count_with_hidden = 0
        for _ in range(40):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(1, n - 1))
            A, C, hidden = random_detectable_pair(rng, n, p)
            sol = solve_constrained_sylvester(A, C, tol=STRUCT_TOL)
            part = partition_by_output(A, C, STRUCT_TOL)
            if np.any(np.abs(part.A12) > STRUCT_TOL):
                dec = obs_decompose(part.A22, part.A12, STRUCT_TOL)
                expected = np.concatenate(
                    [default_stable_poles(dec.no), eigenvalues(dec.A22)]
                )
            else:
                expected = eigenvalues(part.A22)
            assert_multiset_close(eigenvalues(sol.F), expected, tol=1e-6)
            if hidden.size:
                count_with_hidden += 1
                for lam in hidden:
                    assert min(abs(v - lam) for v in eigenvalues(sol.F)) <= 1e-6 * (
                        1.0 + abs(lam)
                    )
        assert count_with_hidden > 5

    def test_stacked_identity_random(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            A, C, _ = random_detectable_pair(rng, n, p)
            sol = solve_constrained_sylvester(A, C)
            block = np.block(
                [[np.eye(p), np.zeros((p, n - p))], [sol.K, np.eye(n - p)]]
            )
            assert np.array_equal(sol.L, output_normalizing_transform(C))
            lhs = np.vstack([C, sol.T])
            rhs = block @ np.linalg.inv(sol.L)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(lhs))

    def test_T_against_kronecker_solve(self):
        # independent route: with F and G fixed, T solves the linear
        # system (I kron A.T - F kron I) vec(T) = vec(G C), which has a
        # unique solution when the spectra of F and A are disjoint
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 15:
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            A, C, _ = random_detectable_pair(rng, n, p)
            sol = solve_constrained_sylvester(A, C)
            q = n - p
            gap = min(
                abs(fv - av)
                for fv in np.linalg.eigvals(sol.F)
                for av in np.linalg.eigvals(A)
            )
            if gap < 1e-3:
                continue
            op = np.kron(np.eye(q), A.T) - np.kron(sol.F, np.eye(n))
            vec_T = np.linalg.solve(op, (sol.G @ C).reshape(-1))
            scale = 1.0 + np.linalg.norm(sol.T)
            assert np.linalg.norm(vec_T - sol.T.reshape(-1)) <= 1e-7 * scale / min(gap, 1.0)
            checked += 1
