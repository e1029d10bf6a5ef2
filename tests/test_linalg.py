import numpy as np
import pytest

from sparsekit.linalg import (
    DivergenceError,
    LsConfig,
    extreme_singular_values,
    least_squares,
    pseudoinverse_apply,
    top_k,
)
from sparsekit.rng import CounterRng, stream_seed


def near_identity_columns(m, k, noise, seed):
    """Orthonormal columns plus a small Gaussian perturbation."""
    rng = CounterRng(stream_seed(seed, "near-identity"))
    G = rng.normal(m * k).reshape(m, k)
    Q, _ = np.linalg.qr(G)
    return Q + noise * rng.normal(m * k).reshape(m, k)


class TestLeastSquares:
    def test_orthonormal_one_richardson_step(self):
        Q, _ = np.linalg.qr(CounterRng(4).normal(18).reshape(6, 3))
        u = CounterRng(5).normal(6)
        z, its = least_squares(Q, u, cfg=LsConfig("richardson"))
        assert its == 1
        np.testing.assert_allclose(z, Q.T @ u, atol=1e-14)

    def test_scalar_normal_equation_cg(self):
        z, _ = least_squares(np.array([[2.0]]), [6.0])
        np.testing.assert_allclose(z, [3.0], atol=1e-12)

    def test_scalar_richardson_diverges(self):
        with pytest.raises(DivergenceError):
            least_squares(np.array([[2.0]]), [6.0], cfg=LsConfig("richardson"))

    def test_consistent_system(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        z, _ = least_squares(A, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-10)

    def test_empty_support(self):
        z, its = least_squares(np.zeros((3, 0)), [1.0, 2.0, 3.0])
        assert z.size == 0 and its == 0

    @pytest.mark.parametrize("method", ["richardson", "conjugate_gradient"])
    def test_matches_direct_solve(self, method):
        A = near_identity_columns(20, 5, 0.02, seed=6)
        u = CounterRng(7).normal(20)
        z, _ = least_squares(A, u, cfg=LsConfig(method, max_iters=200))
        z_direct = np.linalg.lstsq(A, u, rcond=None)[0]
        np.testing.assert_allclose(z, z_direct, atol=1e-8)

    @pytest.mark.parametrize("kwargs", [{"tol": np.nan}, {"tol": -1e-12},
                                        {"max_iters": 0}])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            LsConfig(**kwargs)

    def test_richardson_contraction_rate(self):
        # ||M|| <= 0.1 forces a 10x error reduction per sweep
        for seed in range(5):
            A = near_identity_columns(24, 4, 0.005, seed=seed)
            M_norm = np.linalg.norm(A.T @ A - np.eye(4), 2)
            assert M_norm <= 0.1
            u = CounterRng(stream_seed(seed, "rhs")).normal(24)
            z_star = np.linalg.lstsq(A, u, rcond=None)[0]
            err0 = np.linalg.norm(z_star)
            for ell in (1, 2, 3):
                z, _ = least_squares(
                    A, u, cfg=LsConfig("richardson", max_iters=ell, tol=0.0))
                err = np.linalg.norm(z - z_star)
                assert err <= 0.1**ell * err0 * (1 + 1e-6)


class TestPseudoinverseApply:
    def test_identity(self):
        x = pseudoinverse_apply(np.eye(2), [1], [0.0, 5.0])
        np.testing.assert_allclose(x, [0.0, 5.0], atol=1e-12)

    def test_empty_support(self):
        x = pseudoinverse_apply(np.eye(3), [], [1.0, 2.0, 3.0])
        assert np.array_equal(x, np.zeros(3))

    def test_planted_support_recovery(self):
        rng = CounterRng(8)
        A = rng.normal(48).reshape(6, 8) / np.sqrt(6)
        x = np.zeros(8)
        x[[2, 5]] = [1.5, -0.5]
        got = pseudoinverse_apply(A, [2, 5], A @ x)
        np.testing.assert_allclose(got, x, atol=1e-9)

    def test_reproduces_range_vector(self):
        A = CounterRng(9).normal(40).reshape(8, 5)
        z = CounterRng(10).normal(3)
        T = [0, 2, 4]
        u = A[:, T] @ z
        x = pseudoinverse_apply(A, T, u)
        np.testing.assert_allclose(A @ x, u, atol=1e-9)

    def test_support_larger_than_rows(self):
        A = CounterRng(13).normal(6).reshape(2, 3)
        with pytest.raises(ValueError):
            pseudoinverse_apply(A, [0, 1, 2], [1.0, 1.0])

    def test_sample_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pseudoinverse_apply(np.eye(3), [0], [1.0, 2.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pseudoinverse_apply(np.eye(2), [0, 2], [1.0, 1.0])

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            pseudoinverse_apply(np.eye(3), [2, 0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outside_support_is_not_read(self, bad):
        A = CounterRng(14).normal(48).reshape(6, 8)
        u = CounterRng(15).normal(6)
        T = [1, 4, 6]
        clean = A.copy()
        clean[:, 3] = 0.0
        A[2, 3] = bad
        for cfg in (None, LsConfig("conjugate_gradient", 3, 1e-12)):
            got = pseudoinverse_apply(A, T, u, cfg)
            assert got.tobytes() == pseudoinverse_apply(clean, T, u, cfg).tobytes()

    def test_non_finite_in_support_raises(self):
        A = CounterRng(16).normal(48).reshape(6, 8)
        A[0, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pseudoinverse_apply(A, [1, 4, 6], np.ones(6))

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            pseudoinverse_apply(np.ones(3), [0], np.ones(3))


class TestExtremeSingularValues:
    def test_identity_block(self):
        assert extreme_singular_values(np.eye(3)) == (1.0, 1.0)

    def test_two_column_analytic(self):
        cols = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        smin, smax = extreme_singular_values(cols)
        assert abs(smin - np.sqrt(0.5)) < 1e-8
        assert abs(smax - np.sqrt(1.5)) < 1e-8

    def test_single_column(self):
        col = np.array([[3.0], [4.0]])
        smin, smax = extreme_singular_values(col)
        assert abs(smin - 5.0) < 1e-12 and abs(smax - 5.0) < 1e-12

    def test_agrees_with_lapack(self):
        for seed in range(10):
            k = 2 + seed % 4
            A = CounterRng(stream_seed(seed, "sv")).normal(12 * k).reshape(12, k)
            smin, smax = extreme_singular_values(A)
            sv = np.linalg.svd(A, compute_uv=False)
            assert abs(smax - sv[0]) <= 1e-8 * sv[0]
            assert abs(smin - sv[-1]) <= 1e-8 * max(sv[0], 1.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            extreme_singular_values(np.zeros((3, 0)))


class TestTopK:
    def test_tie_breaks_lexicographically(self):
        assert list(top_k([1.0, 1.0, 0.0], 1)) == [0]

    def test_magnitude_order(self):
        assert list(top_k([3.0, -2.0, 1.0], 2)) == [0, 1]

    def test_full_length(self):
        assert list(top_k([1.0, -4.0, 2.0], 3)) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k([1.0], 2)

    def test_value_permutation_invariance(self):
        # the selected values are the same under permutation of the input
        v = CounterRng(11).normal(50)
        perm = CounterRng(12).permutation(50)
        chosen = np.sort(np.abs(v[top_k(v, 7)]))
        chosen_p = np.sort(np.abs(v[perm][top_k(v[perm], 7)]))
        np.testing.assert_array_equal(chosen, chosen_p)
