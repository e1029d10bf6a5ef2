import numpy as np
import pytest

from sparsekit.ensembles import EnsembleSpec, gen_matrix
from sparsekit.linalg import (
    DivergenceError,
    JacobiSweepCapError,
    LsConfig,
    _jacobi_eigenvalues,
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

    @pytest.mark.parametrize("max_iters", [2.5, np.nan, np.inf])
    def test_max_iters_must_be_whole(self, max_iters):
        with pytest.raises(ValueError, match="whole number"):
            LsConfig(max_iters=max_iters)

    def test_whole_float_max_iters_runs(self):
        A = near_identity_columns(20, 5, 0.02, seed=6)
        u = CounterRng(7).normal(20)
        z, its = least_squares(A, u, cfg=LsConfig(max_iters=2.0, tol=0.0))
        z_int, _ = least_squares(A, u, cfg=LsConfig(max_iters=2, tol=0.0))
        assert its == 2 and z.tobytes() == z_int.tobytes()

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

    def test_gram_overflow_raises(self):
        A = CounterRng(17).normal(18).reshape(6, 3) * 1e160
        with pytest.raises(ValueError, match="overflow"):
            extreme_singular_values(A)


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

    @pytest.mark.parametrize("k", [2.5, np.nan, np.inf, -1])
    def test_k_must_be_whole(self, k):
        with pytest.raises(ValueError, match="whole number"):
            top_k([3.0, 1.0, 2.0], k)

    def test_whole_float_k(self):
        assert list(top_k([3.0, 1.0, 2.0], 2.0)) == [0, 2]

    def test_value_permutation_invariance(self):
        # the selected values are the same under permutation of the input
        v = CounterRng(11).normal(50)
        perm = CounterRng(12).permutation(50)
        chosen = np.sort(np.abs(v[top_k(v, 7)]))
        chosen_p = np.sort(np.abs(v[perm][top_k(v[perm], 7)]))
        np.testing.assert_array_equal(chosen, chosen_p)


def jacobi_reference(G, tol=1e-15, max_sweeps=60):
    """The cyclic Jacobi kernel as first written, kept frozen.

    ``_jacobi_eigenvalues`` must return the same bytes: the Kaczmarz
    benchmark references pin R, and R comes from the smallest of these
    eigenvalues.
    """
    G = np.array(G, dtype=float)
    k = G.shape[0]
    if k == 1:
        return G[0, :1].copy()
    scale = max(np.linalg.norm(G), 1.0)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(G**2) - np.sum(np.diag(G) ** 2), 0.0))
        if off <= tol * scale:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = G[p, q]
                if abs(apq) <= tol * scale * 1e-3:
                    continue
                theta = (G[q, q] - G[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * G[:, p] - s * G[:, q]
                rot_q = s * G[:, p] + c * G[:, q]
                G[:, p], G[:, q] = rot_p, rot_q
                rot_p = c * G[p, :] - s * G[q, :]
                rot_q = s * G[p, :] + c * G[q, :]
                G[p, :], G[q, :] = rot_p, rot_q
    return np.sort(np.diag(G))


def kaczmarz_gram(seed):
    """The Gram matrix ``rk_theory`` factors in a ``kaczmarz`` benchmark
    cell (m=100, n=50) with CLI seed ``seed``, trial 0."""
    tseed = stream_seed(seed, "kaczmarz", 0)
    A = gen_matrix(EnsembleSpec("gaussian", 100, 50,
                                seed=stream_seed(tseed, "matrix"),
                                normalize=False))
    return A.T @ A


def jacobi_battery():
    """Seeded symmetric inputs: (label, matrix) pairs."""
    rng = CounterRng(stream_seed(18, "jacobi-battery"))
    cases = []
    for k in (1, 2, 7, 50):
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            X = rng.normal((k + 3) * k).reshape(k + 3, k)
            cases.append((f"gram-k{k}-x{scale:g}", scale * (X.T @ X)))
    cases.append(("diagonal", np.diag([3.0, -1.0, 2.0, 0.5])))
    Z = np.diag([2.0, 5.0, 1.0, 4.0])
    Z[0, 2] = Z[2, 0] = 0.75
    cases.append(("zeros-off-diagonal", Z))
    Q, _ = np.linalg.qr(rng.normal(36).reshape(6, 6))
    cases.append(("repeated", Q @ np.diag([2.0, 2.0, 2.0, 5.0, 5.0, -1.0]) @ Q.T))
    cases.append(("all-ones", np.ones((5, 5))))
    # theta == 0 on the first pair, which must rotate by +45 degrees
    cases.append(("equal-diagonal", np.array([[2.0, 1.0, 0.5],
                                              [1.0, 2.0, 0.25],
                                              [0.5, 0.25, 2.0]])))
    cases.append(("two-by-two", np.array([[2.0, 1.0], [1.0, 2.0]])))
    cases.append(("kaczmarz-seed0", kaczmarz_gram(0)))
    return cases


JACOBI_BATTERY = jacobi_battery()


class TestJacobiEigenvalues:
    @pytest.mark.parametrize("label, G", JACOBI_BATTERY,
                             ids=[label for label, _ in JACOBI_BATTERY])
    def test_same_bytes_as_reference(self, label, G):
        assert _jacobi_eigenvalues(G).tobytes() == jacobi_reference(G).tobytes()

    def test_sweep_cap_raises(self):
        G = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
        with pytest.raises(JacobiSweepCapError):
            _jacobi_eigenvalues(G, max_sweeps=1)

    def test_idle_sweep_stops(self):
        # Cancellation holds the off-diagonal estimate of this matrix at
        # 1.2e-8 of its scale, far above tol * scale, when its ninth sweep
        # rotates nothing; the frozen kernel then runs idle to its 60-sweep
        # cap.  Without the idle stop the new kernel would raise here.
        G = kaczmarz_gram(3)
        assert _jacobi_eigenvalues(G).tobytes() == jacobi_reference(G).tobytes()
