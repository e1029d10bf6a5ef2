import numpy as np
import pytest

from sparsekit.ensembles import EnsembleSpec, gen_matrix
from sparsekit.kaczmarz import rk_solve, rk_theory
from sparsekit.rng import CounterRng, stream_seed


class TestTheory:
    def test_identity(self):
        R, gamma = rk_theory(np.eye(10))
        assert R == pytest.approx(10.0)
        assert gamma == 0.0

    def test_scale_invariant(self):
        R, _ = rk_theory(3.7 * np.eye(8))
        assert R == pytest.approx(8.0)

    def test_gamma_of_zero_residual(self):
        _, gamma = rk_theory(np.eye(4), residual=np.zeros(4))
        assert gamma == 0.0

    def test_gamma_formula(self):
        A = np.diag([1.0, 2.0])
        _, gamma = rk_theory(A, residual=np.array([0.5, 3.0]))
        assert gamma == pytest.approx(1.5)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            rk_theory(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            rk_theory(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_gram_overflow_rejected(self):
        # Not "rank deficient": the Gram matrix of this full-rank A is inf.
        A = CounterRng(17).normal(18).reshape(6, 3) * 1e160
        with pytest.raises(ValueError, match="overflow"):
            rk_theory(A)

    def test_row_norm_overflow_rejected_while_the_gram_matrix_is_finite(self):
        # ||a_0||^2 = 2 a^2 overflows; every entry of A'A is a^2 +- 1
        a = np.sqrt(0.9 * np.finfo(float).max)
        A = np.array([[a, a], [1.0, -1.0]])
        assert np.isfinite(A.T @ A).all()
        with pytest.raises(ValueError, match="overflow"):
            rk_theory(A, residual=np.ones(2))

    def test_frobenius_overflow_rejected_while_row_norms_are_finite(self):
        # rows and columns of a * H (H a 4 x 4 Hadamard) have squared norm
        # 4 a^2 < max, but ||A||_F^2 = 16 a^2 overflows
        H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        A = np.sqrt(0.1 * np.finfo(float).max) * H
        with pytest.raises(ValueError, match="overflow"):
            rk_theory(A, residual=np.ones(4))


class TestSolve:
    def test_fixed_point(self):
        A = CounterRng(2).normal(80).reshape(20, 4)
        x = CounterRng(3).normal(4)
        run = rk_solve(A, A @ x, x, 50, seed=4, x_ref=x)
        assert max(err for _, err in run.iterates_logged) <= 1e-12

    def test_one_step_orthogonal_projection(self):
        run = rk_solve(np.array([[1.0, 0.0]]), np.array([2.0]), np.zeros(2), 1)
        np.testing.assert_array_equal(run.final_estimate, [2.0, 0.0])

    def test_one_step_projects_onto_the_visited_row(self):
        rng = CounterRng(1)
        for trial in range(100):
            n = 2 + int(rng.uniform(1)[0] * 10)
            A = rng.normal(3 * n).reshape(3, n)
            b = rng.normal(3)
            x0 = rng.normal(n)
            run = rk_solve(A, b, x0, 1, seed=trial)
            a, bi = A[run.rows_visited[0]], b[run.rows_visited[0]]
            x1 = run.final_estimate
            assert abs(a @ x1 - bi) <= 1e-12 * max(1.0, abs(bi),
                                                   np.linalg.norm(a))
            # displacement parallel to the row
            disp = x1 - x0
            cross = disp - (disp @ a / (a @ a)) * a
            assert np.linalg.norm(cross) <= 1e-12

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row"):
            rk_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2),
                     np.zeros(2), 10)

    def test_consistent_system_converges(self):
        A = CounterRng(5).normal(200).reshape(40, 5)
        x = CounterRng(6).normal(5)
        run = rk_solve(A, A @ x, np.zeros(5), 600, seed=7, x_ref=x)
        assert run.iterates_logged[-1][1] < 1e-8

    def test_log_indices_strictly_increasing(self):
        A = CounterRng(8).normal(60).reshape(12, 5)
        x = CounterRng(9).normal(5)
        run = rk_solve(A, A @ x, np.zeros(5), 103, seed=10, log_stride=10,
                       x_ref=x)
        ks = [k for k, _ in run.iterates_logged]
        assert ks[0] == 0 and ks[-1] == 103
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_consistent_underdetermined_system(self):
        # R is undefined for a wide matrix, but the sweep still reaches a
        # solution of A x = b
        A = CounterRng(25).normal(18).reshape(3, 6)
        b = A @ CounterRng(26).normal(6)
        run = rk_solve(A, b, np.zeros(6), 2000, seed=27)
        assert np.linalg.norm(A @ run.final_estimate - b) < 1e-8

    @pytest.mark.parametrize("stride", [0, -1])
    def test_log_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="log_stride"):
            rk_solve(np.eye(3), np.ones(3), np.zeros(3), 10, log_stride=stride,
                     x_ref=np.zeros(3))

    @pytest.mark.parametrize("kwargs", [
        {"iters": 2.5}, {"iters": np.nan}, {"iters": -1},
        {"log_stride": np.nan}, {"log_stride": 2.5},
    ])
    def test_counts_must_be_whole_numbers(self, kwargs):
        args = {"iters": 10, "log_stride": 1, **kwargs}
        with pytest.raises(ValueError, match="must be a whole number >="):
            rk_solve(np.eye(3), np.ones(3), np.zeros(3), args["iters"],
                     log_stride=args["log_stride"], x_ref=np.zeros(3))

    def test_whole_float_seed_runs_the_int_seed(self):
        A = CounterRng(11).normal(60).reshape(12, 5)
        b = CounterRng(12).normal(12)
        r1 = rk_solve(A, b, np.zeros(5), 200, seed=3.0)
        r2 = rk_solve(A, b, np.zeros(5), 200, seed=3)
        assert r1.final_estimate.tobytes() == r2.final_estimate.tobytes()
        assert r1.rows_visited.tobytes() == r2.rows_visited.tobytes()

    @pytest.mark.parametrize("seed", [2.5, np.nan, "3"])
    def test_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            rk_solve(np.eye(3), np.ones(3), np.zeros(3), 10, seed=seed)

    def test_seeded_determinism(self):
        A = CounterRng(11).normal(60).reshape(12, 5)
        b = CounterRng(12).normal(12)
        r1 = rk_solve(A, b, np.zeros(5), 200, seed=13)
        r2 = rk_solve(A, b, np.zeros(5), 200, seed=13)
        np.testing.assert_array_equal(r1.final_estimate, r2.final_estimate)
        np.testing.assert_array_equal(r1.rows_visited, r2.rows_visited)

    def test_row_sampling_frequencies(self):
        # equal row norms: selection uniform within 3 sigma over 1e5 draws
        n_rows = 8
        A = gen_matrix(EnsembleSpec("bernoulli", n_rows, 4, seed=14,
                                    normalize=False))
        draws = 100_000
        run = rk_solve(A, np.zeros(n_rows), np.zeros(4), draws, seed=15)
        counts = np.bincount(run.rows_visited, minlength=n_rows)
        p = 1 / n_rows
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_weighted_sampling_proportional_to_row_norms(self):
        A = np.diag([1.0, 2.0, 3.0])
        draws = 100_000
        run = rk_solve(A, np.zeros(3), np.zeros(3), draws, seed=16)
        counts = np.bincount(run.rows_visited, minlength=3)
        probs = np.array([1.0, 4.0, 9.0]) / 14.0
        sigma = np.sqrt(draws * probs * (1 - probs))
        assert np.all(np.abs(counts - draws * probs) <= 4 * sigma)

    def test_identity_noisy_limit(self):
        # homogeneous identity system with all-ones noise: the iterates drift
        # to the noise vector, so the error to the true solution reaches
        # sqrt(n) = sqrt(R) * gamma
        n = 25
        run = rk_solve(np.eye(n), np.ones(n), np.zeros(n), 400, seed=17,
                       x_ref=np.zeros(n))
        R, gamma = rk_theory(np.eye(n), residual=np.ones(n))
        assert R == pytest.approx(n)
        assert gamma == pytest.approx(1.0)
        assert run.iterates_logged[-1][1] == pytest.approx(np.sqrt(n))

    def test_expected_contraction(self):
        # mean of ||x_k - x||^2 over 200 seeded runs obeys the (1 - 1/R)^k
        # envelope with 1.2x slack
        A = gen_matrix(EnsembleSpec("gaussian", 30, 6, seed=18,
                                    normalize=False))
        R, _ = rk_theory(A)
        x = CounterRng(19).normal(6)
        b = A @ x
        x0 = np.zeros(6)
        base = np.linalg.norm(x0 - x) ** 2
        ks = (10, 40, 80)
        acc = {k: 0.0 for k in ks}
        runs = 200
        for t in range(runs):
            run = rk_solve(A, b, x0, max(ks), seed=stream_seed(20, t),
                           log_stride=10, x_ref=x)
            logged = dict(run.iterates_logged)
            for k in ks:
                acc[k] += logged[k] ** 2
        for k in ks:
            assert acc[k] / runs <= 1.2 * (1 - 1 / R) ** k * base

    def test_noisy_error_bound(self):
        # mean error <= (1-1/R)^(k/2) ||x0 - x|| + sqrt(R) gamma, 1.1x slack
        A = gen_matrix(EnsembleSpec("gaussian", 30, 6, seed=21,
                                    normalize=False))
        x = CounterRng(22).normal(6)
        e = 0.05 * CounterRng(23).normal(30)
        b = A @ x + e
        R, gamma = rk_theory(A, residual=e)
        x0 = np.zeros(6)
        base = np.linalg.norm(x0 - x)
        k = 120
        total = 0.0
        runs = 200
        for t in range(runs):
            run = rk_solve(A, b, x0, k, seed=stream_seed(24, t), x_ref=x)
            total += run.iterates_logged[-1][1]
        bound = (1 - 1 / R) ** (k / 2) * base + np.sqrt(R) * gamma
        assert total / runs <= 1.1 * bound
