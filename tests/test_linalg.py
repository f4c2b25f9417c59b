import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    eigenvalues,
    output_normalizing_transform,
    rank_tol,
    spectral_abscissa,
)
from sylvobs.linalg import _canonical_signs, as_matrix, as_vector
from tests.conftest import assert_multiset_close


class TestAsMatrix:
    def test_valid_float64_kept_by_reference(self):
        M = np.arange(6.0).reshape(2, 3)
        assert np.shares_memory(as_matrix(M), M)

    @pytest.mark.parametrize(
        "M",
        [
            [[1, 2], [3, 4]],
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            np.arange(4, dtype=np.float32).reshape(2, 2),
        ],
        ids=["int-list", "fortran", "float32"],
    )
    def test_other_input_converted(self, M):
        A = as_matrix(M)
        assert A.dtype == np.float64 and A.flags.c_contiguous
        assert not np.shares_memory(A, M)
        assert_allclose(A, np.asarray(M, dtype=float))

    def test_checks_kept(self):
        for M, match in (
            ([[1.0, np.nan]], "finite"),
            (np.zeros((2, 2, 2)), "2-D"),
            (np.zeros((0, 3)), "non-empty"),
            ([["a"]], "real matrix"),
        ):
            with pytest.raises(ValueError, match=match):
                as_matrix(M)

    @pytest.mark.parametrize(
        "M, shape", [(2.5, (1, 1)), ([1.0, 2.0, 3.0], (1, 3))], ids=["scalar", "1-D"]
    )
    def test_scalar_and_vector_are_rows(self, M, shape):
        A = as_matrix(M)
        assert A.shape == shape
        assert_allclose(A.ravel(), np.ravel(M))


class TestAsVector:
    @pytest.mark.parametrize(
        "v", [[1.0, 2.0], [[1.0, 2.0]], [[1.0], [2.0]], np.array([1, 2])],
        ids=["list", "row", "column", "int-array"],
    )
    def test_rows_and_columns_flattened(self, v):
        a = as_vector(v, "v", 2)
        assert a.shape == (2,) and a.dtype == np.float64
        assert_allclose(a, [1.0, 2.0])

    def test_scalar_is_length_one(self):
        assert_allclose(as_vector(3.0), [3.0])

    @pytest.mark.parametrize(
        "v, length, message",
        [
            (["a"], None, r"^v must be a real vector: "),
            (np.ones((2, 2)), None, r"^v must be 1-D, got shape \(2, 2\)$"),
            ([1.0, np.inf], None, r"^v must have finite entries$"),
            ([1.0, 2.0], 3, r"^v must have length 3, got 2$"),
        ],
        ids=["text", "matrix", "inf", "length"],
    )
    def test_invalid_rejected(self, v, length, message):
        with pytest.raises(ValueError, match=message):
            as_vector(v, "v", length)


class TestRank:
    def test_zero_matrix(self):
        assert rank_tol(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_tol(np.eye(3)) == 3

    def test_rank_one(self):
        # rows are proportional: exact rank 1 by row reduction
        assert rank_tol([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_explicit_tolerance(self):
        M = np.diag([1.0, 1e-6])
        assert rank_tol(M) == 2
        assert rank_tol(M, tol=1e-3) == 1

    def test_negative_tol_rejected(self):
        # nan and inf too: nan would fall through to the default rule, inf
        # would call every singular value zero
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                rank_tol(np.eye(2), tol=tol)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, n = rng.integers(1, 7, size=2)
            M = rng.standard_normal((m, n))
            if rng.random() < 0.3:
                M[:, 0] = 0.0
            assert rank_tol(M) == rank_tol(M.T)


class TestEigenvalues:
    def test_diagonal(self):
        assert_allclose(eigenvalues(np.diag([1.0, 2.0])), [2.0, 1.0])

    def test_rotation_pair(self):
        # char poly s^2 + 1: roots +-i, positive imaginary part first
        vals = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert_allclose(vals, [1j, -1j], atol=1e-12)

    def test_zero_matrix(self):
        assert_allclose(eigenvalues(np.zeros((2, 2))), [0.0, 0.0])

    def test_conjugate_closure_and_length(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            vals = eigenvalues(rng.standard_normal((n, n)))
            assert vals.size == n
            assert_multiset_close(np.conj(vals), vals, tol=1e-12)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n))
            S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            sim = np.linalg.solve(S, M @ S)
            assert_multiset_close(eigenvalues(sim), eigenvalues(M), tol=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_nilpotent(self):
        # both eigenvalues 0
        assert spectral_abscissa([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_double_root(self):
        # char poly s^2 + 2 s + 1, double root at -1
        assert spectral_abscissa([[-2.0, 1.0], [-1.0, 0.0]]) == pytest.approx(-1.0, abs=1e-8)

    def test_empty(self):
        assert spectral_abscissa(np.zeros((0, 0))) == float("-inf")


class TestOutputNormalizingTransform:
    def test_already_normalized(self):
        assert_allclose(output_normalizing_transform([[1.0, 0.0]]), np.eye(2))

    def test_swap(self):
        L = output_normalizing_transform([[0.0, 1.0]])
        assert_allclose(L, [[0.0, 1.0], [1.0, 0.0]])

    def test_scale(self):
        L = output_normalizing_transform([[2.0, 0.0]])
        assert_allclose(L, np.diag([0.5, 1.0]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            output_normalizing_transform([[1.0, 2.0], [2.0, 4.0]])

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            output_normalizing_transform(np.ones((3, 2)))

    def test_random_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, n + 1))
            C = rng.standard_normal((p, n))
            L = output_normalizing_transform(C)
            target = np.hstack([np.eye(p), np.zeros((p, n - p))])
            assert np.linalg.norm(C @ L - target) <= 1e-10 * (1.0 + np.linalg.norm(C))
            sign, logdet = np.linalg.slogdet(L)
            assert sign != 0 and np.isfinite(logdet)
            # trailing columns: orthonormal basis of the null space of C
            N = L[:, p:]
            assert_allclose(N.T @ N, np.eye(n - p), atol=1e-12)
            assert np.linalg.norm(C @ N) <= 1e-12 * (1.0 + np.linalg.norm(C))



def canonical_signs_loop(Q):
    """The column-by-column form of ``_canonical_signs``."""
    Q = np.array(Q)
    for j in range(Q.shape[1]):
        col = Q[:, j]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            Q[:, j] = -col
    return Q


class TestCanonicalSigns:
    @pytest.mark.parametrize(
        "Q",
        [
            np.random.default_rng(4).standard_normal((7, 5)),
            np.random.default_rng(5).standard_normal((3, 8)),
            # ties in magnitude: the first maximum decides
            np.array([[1.0, -2.0, 2.0], [-1.0, 2.0, -2.0], [0.5, 0.0, 1.0]]),
            # zero columns, signed zeros included, are left as they are
            np.array([[0.0, -0.0, 3.0], [0.0, -0.0, -4.0]]),
            np.zeros((0, 3)),
            np.zeros((4, 0)),
        ],
        ids=["random", "wide", "ties", "zero-columns", "no-rows", "no-columns"],
    )
    def test_matches_column_loop(self, Q):
        got = _canonical_signs(Q)
        expected = canonical_signs_loop(Q)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_input_not_mutated(self):
        Q = np.array([[-1.0, 2.0], [0.5, -3.0]])
        _canonical_signs(Q)
        assert_allclose(Q, [[-1.0, 2.0], [0.5, -3.0]])
