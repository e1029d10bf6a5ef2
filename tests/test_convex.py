import hashlib
import itertools
import os
import warnings

import numpy as np
import pytest

from sparsekit import convex
from sparsekit.convex import (
    InfeasibleError,
    RwConfig,
    SolverError,
    _max_step,
    _newton_matrix,
    _range_solvers,
    _solve,
    _trial_steps,
    bp_denoise,
    bp_equality,
    reweighted_l1,
    rw_constants,
    rw_error_recursion,
)
from sparsekit.ensembles import EnsembleSpec, NoiseSpec, SignalSpec, gen_matrix, gen_noise, gen_signal
from sparsekit.rip import ric_exact
from sparsekit.rng import CounterRng, stream_seed


from helpers import l1_vertex_oracle, noisy_reweighted_instance


class TestBpEquality:
    def test_square_invertible(self):
        S = CounterRng(5).normal(25).reshape(5, 5) + 5 * np.eye(5)
        u = CounterRng(6).normal(5)
        np.testing.assert_allclose(bp_equality(S, u), np.linalg.solve(S, u),
                                   atol=1e-8)

    def test_hand_example(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        x = bp_equality(A, [1.0, 1.0])
        np.testing.assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-8)
        assert abs(np.abs(x).sum() - 1.0) < 1e-8

    def test_zero_samples(self):
        A = gen_matrix(EnsembleSpec("gaussian", 4, 9, seed=7))
        assert np.array_equal(bp_equality(A, np.zeros(4)), np.zeros(9))

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            bp_equality(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 2.0])

    def test_never_beats_planted_feasible_point(self):
        for seed in range(10):
            A = gen_matrix(EnsembleSpec("gaussian", 10, 24, seed=seed))
            x = gen_signal(SignalSpec(24, 3, seed=stream_seed(seed, "s")))
            xh = bp_equality(A, A @ x)
            assert np.abs(xh).sum() <= np.abs(x).sum() + 1e-7

    def test_matches_vertex_oracle(self):
        checked = 0
        for seed in range(30):
            A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=stream_seed("oracle", seed)))
            x = gen_signal(SignalSpec(10, 2, seed=stream_seed("oracle-sig", seed)))
            u = A @ x
            oracle, unique = l1_vertex_oracle(A, u)
            if not unique:
                continue
            xh = bp_equality(A, u)
            np.testing.assert_allclose(xh, oracle, atol=1e-6)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("family", ["bernoulli", "partial_dct"])
    def test_matches_vertex_oracle_structured(self, family):
        checked = 0
        for seed in range(20):
            A = gen_matrix(EnsembleSpec(family, 6, 10, seed=stream_seed("oracle", family, seed)))
            x = gen_signal(SignalSpec(10, 2, seed=stream_seed("oracle-sig", family, seed)))
            u = A @ x
            oracle, unique = l1_vertex_oracle(A, u)
            if oracle is None or not unique:
                continue
            np.testing.assert_allclose(bp_equality(A, u), oracle, atol=1e-6)
            checked += 1
        assert checked >= 5

    def test_rank_deficient_feasible(self):
        # AA^T is singular, so the start point comes from SVD least squares
        x = bp_equality([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]], [1.0, 1.0])
        np.testing.assert_allclose(x, [0.5, 0.0, 0.5], atol=1e-8)

    @staticmethod
    def nearly_repeated_row(seed, gap):
        """A seeded 6 x 12 Gaussian matrix whose last row is the one above
        plus ``gap`` times noise, and a 2-sparse signal."""
        A = gen_matrix(EnsembleSpec("gaussian", 6, 12, seed=stream_seed("nearsing", seed)))
        A[-1] = A[-2] + gap * CounterRng(stream_seed("nearsing-row", seed)).normal(12)
        return A, gen_signal(SignalSpec(12, 2, seed=stream_seed("nearsing-sig", seed)))

    @pytest.mark.parametrize("gap, atol", [(1e-5, 1e-8), (1e-7, 1e-5),
                                           (1e-9, None)])
    def test_nearly_repeated_row(self, gap, atol):
        # None: SolverError.  Solving through AA^T without the SVD fallback
        # returns a point at 1e-9 instead
        A, x = self.nearly_repeated_row(1, gap)
        if atol is None:
            with pytest.raises(SolverError):
                bp_equality(A, A @ x)
            return
        oracle, unique = l1_vertex_oracle(A, A @ x)
        assert unique
        np.testing.assert_allclose(bp_equality(A, A @ x), oracle, atol=atol)

    @pytest.mark.xfail(strict=True, reason=(
        "the contract test judges the duality gap through sum(t), but "
        "the least-norm restore moves z afterwards; the answer is 9e-2 from "
        "the optimum with an l1 norm 5.4% above it, and no error"))
    def test_nearly_repeated_row_far_from_optimum_is_reported(self):
        A, x = self.nearly_repeated_row(25, 1e-7)
        oracle, unique = l1_vertex_oracle(A, A @ x)
        assert unique
        try:
            z = bp_equality(A, A @ x)
        except SolverError:
            return
        np.testing.assert_allclose(z, oracle, atol=1e-5)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "partial_dct"])
    def test_gram_solves_match_lstsq(self, family):
        # well-conditioned A: the AA^T route agrees with SVD least squares
        # to rounding, scaled by cond(AA^T) (below 100 here)
        for seed in range(3):
            A = gen_matrix(EnsembleSpec(family, 32, 64, seed=stream_seed("gram", seed)))
            rng = CounterRng(stream_seed("gram-rhs", seed))
            r, b = rng.normal(32), rng.normal(64)
            least_norm, dual_least_squares = _range_solvers(A)
            for got, want in ((least_norm(r), np.linalg.lstsq(A, r, rcond=None)[0]),
                              (dual_least_squares(b), np.linalg.lstsq(A.T, b, rcond=None)[0])):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9])
    def test_nearly_singular_gram_falls_back_to_lstsq(self, gap):
        for seed in range(10):
            A, x = self.nearly_repeated_row(seed, gap)
            least_norm, dual_least_squares = _range_solvers(A)
            b = CounterRng(stream_seed("nearsing-b", seed)).normal(12)
            assert np.array_equal(least_norm(A @ x),
                                  np.linalg.lstsq(A, A @ x, rcond=None)[0])
            assert np.array_equal(dual_least_squares(b),
                                  np.linalg.lstsq(A.T, b, rcond=None)[0])

    def test_exact_recovery_all_sign_patterns(self):
        # near-orthonormal columns: every 2-sparse vector comes back exactly
        rng = CounterRng(stream_seed("signmat"))
        Q, _ = np.linalg.qr(rng.normal(14 * 10).reshape(14, 10))
        A = Q + 0.01 * rng.normal(14 * 10).reshape(14, 10)
        assert ric_exact(A, 6).delta <= 0.2
        for supp in itertools.combinations(range(10), 2):
            for signs in itertools.product([1.0, -1.0], repeat=2):
                x = np.zeros(10)
                x[list(supp)] = signs
                xh = bp_equality(A, A @ x)
                np.testing.assert_allclose(xh, x, atol=1e-6)


class TestBpEqualityBytes:
    """SHA-256 of ``bp_equality``'s answer on four seeded instances.

    The benchmark compares convex cells only to 1e-3 relative, so these
    pins are what notice a changed bit in the interior-point steps: on a C-
    and an F-ordered A, in the weighted route, and on the SVD ``lstsq``
    fallback of a nearly singular AA^T.  The hashes hold for
    the one OpenBLAS thread that ``conftest.py`` pins unless the environment
    sets another count; more threads split the Schur product's sums."""

    SHA256 = {
        "gaussian": "8b8f0f1d89bfe57d666f55ff87373a7f7c56968e30f7e3bc59f52b3eb3f8296a",
        "fortran": "1f7085564e4ad1110e663e9baa7a70c032a685aef9b742d99b3ac84c28f43798",
        "weighted": "0ef458a5a5e715da7b2589015ca12be2496e5a6c090e61563e000d1f951e691d",
        "nearly-repeated-row":
            "46c2884ead4b66be1d4c33dddcdd72a1af65ac254f21a22e1a7fb6e0dbd28fa5",
    }

    @staticmethod
    def instance(name):
        if name == "nearly-repeated-row":
            A, x = TestBpEquality.nearly_repeated_row(1, 1e-7)
            return A, A @ x, None
        A = gen_matrix(EnsembleSpec("gaussian", 128, 256, seed=stream_seed("bp-bytes", 0)))
        u = A @ gen_signal(SignalSpec(256, 16, seed=stream_seed("bp-bytes-sig", 0)))
        if name == "fortran":
            return np.asfortranarray(A), u, None
        if name == "weighted":
            return A, u, 0.5 + CounterRng(stream_seed("bp-bytes-w", 0)).uniform(256)
        return A, u, None

    @pytest.mark.skipif(os.environ.get("OPENBLAS_NUM_THREADS") != "1",
                        reason="the hashes hold for one OpenBLAS thread")
    @pytest.mark.parametrize("name", list(SHA256))
    def test_same_bytes(self, name):
        z = bp_equality(*self.instance(name))
        assert hashlib.sha256(z.tobytes()).hexdigest() == self.SHA256[name]

    def test_fallback_instance_takes_lstsq(self):
        A, _, _ = self.instance("nearly-repeated-row")
        diag = np.diag(np.linalg.cholesky(A @ A.T))
        assert (diag.min() / diag.max()) ** 2 < convex.GRAM_MIN_RCOND


class TestBpDenoise:
    def test_large_eps_returns_zero(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 12, seed=8))
        u = CounterRng(9).normal(6)
        assert np.array_equal(bp_denoise(A, u, np.linalg.norm(u) + 0.1),
                              np.zeros(12))

    def test_eps_zero_matches_equality(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 20, seed=10))
        x = gen_signal(SignalSpec(20, 2, seed=11))
        np.testing.assert_allclose(bp_denoise(A, A @ x, 0.0),
                                   bp_equality(A, A @ x), atol=1e-10)

    def test_feasibility_and_stability(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        x = gen_signal(SignalSpec(10, 1, seed=13))
        e = gen_noise(NoiseSpec(6, 0.1, seed=14))
        u = A @ x + e
        xh = bp_denoise(A, u, 0.1)
        assert np.linalg.norm(A @ xh - u) <= 0.1 + 1e-8
        # error bounded by a moderate multiple of the noise level
        assert np.linalg.norm(xh - x) <= 20 * 0.1

    def test_l1_norm_nonincreasing_in_eps(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 16, seed=15))
        x = gen_signal(SignalSpec(16, 3, seed=16))
        u = A @ x + gen_noise(NoiseSpec(8, 0.05, seed=17))
        norms = [np.abs(bp_denoise(A, u, eps)).sum()
                 for eps in (0.01, 0.05, 0.2, 0.5)]
        assert all(a >= b - 1e-7 for a, b in zip(norms, norms[1:]))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            bp_denoise(np.eye(2), [1.0, 0.0], -0.1)

    def test_nan_eps_rejected(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 12, seed=8))
        with pytest.raises(ValueError, match="eps"):
            bp_denoise(A, CounterRng(9).normal(6), float("nan"))

    @staticmethod
    def kkt_certificate(seed):
        """Largest deviation of the normalised correlation A^T(u - Az) from
        sign(z) on the support of z; 0 at a solution of the noisy problem."""
        A, _, u, eps = noisy_reweighted_instance(seed)
        z = bp_denoise(A, u, eps)
        c = A.T @ (u - A @ z)
        g = c / np.max(np.abs(c))
        on = np.abs(z) > 1e-6 * np.max(np.abs(z))
        return float(np.max(np.abs(g[on] - np.sign(z[on]))))

    def test_kkt_certificate_converged_instance(self):
        assert self.kkt_certificate(0) <= 1e-5

    @pytest.mark.xfail(strict=True, reason=(
        "barrier stages stall at MAX_NEWTON on this instance, leaving the "
        "answer about 2e-2 from optimality (ROADMAP item 8)"))
    def test_kkt_certificate_stalled_instance(self):
        assert self.kkt_certificate(2) <= 1e-5


class TestNewtonMatrix:
    """The in-place Newton matrix has the bits of the plain expression."""

    @staticmethod
    def expression(AtA, atr, sigx, fe):
        return np.diag(sigx) - AtA / fe + np.outer(atr, atr) / fe**2

    @staticmethod
    def inputs(seed, d):
        """AtA from a product in which every fourth column is zero, and atr
        with exact zeros of both signs among values of either sign."""
        rng = CounterRng(stream_seed("newton-matrix", seed, d))
        A = rng.normal(3 * d).reshape(3, d)
        A[:, ::4] = 0.0
        atr = rng.normal(d) * 10.0 ** np.round(4 * rng.normal(d))
        atr[1::5] = 0.0
        atr[2::5] = -0.0
        sigx = np.exp(3 * rng.normal(d))
        fe = -np.exp(2 * rng.normal(1))[0]
        return np.asfortranarray(A.T @ A), atr, sigx, fe

    @pytest.mark.parametrize("d", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bytes_as_expression(self, seed, d):
        AtA, atr, sigx, fe = self.inputs(seed, d)
        H = np.empty((d, d), order="F")
        B = np.empty((d, d), order="F")
        got = _newton_matrix(AtA, atr, sigx, fe, H, B)
        assert got is H
        assert got.tobytes() == self.expression(AtA, atr, sigx, fe).tobytes()

    def test_bp_denoise_estimate_unchanged(self, monkeypatch):
        A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=40))
        x = gen_signal(SignalSpec(64, 4, seed=41, random_signs=True))
        e = gen_noise(NoiseSpec(32, 0.1 * float(np.linalg.norm(A @ x)),
                                seed=42))
        eps = 1.1 * float(np.linalg.norm(e))
        in_place = bp_denoise(A, A @ x + e, eps)
        calls = []

        def expression(AtA, atr, sigx, fe, H, B):
            calls.append(fe)
            return self.expression(AtA, atr, sigx, fe)

        monkeypatch.setattr(convex, "_newton_matrix", expression)
        plain = bp_denoise(A, A @ x + e, eps)
        assert len(calls) > 10
        assert np.array_equal(in_place, plain)


class TestMaxStep:
    @staticmethod
    def masked_min(f, df):
        """The reference rule: min(1, min(-f / df)) over entries df > 0."""
        pos = df > 0
        if not np.any(pos):
            return 1.0
        with np.errstate(over="ignore"):
            return min(1.0, float(np.min(-f[pos] / df[pos])))

    def test_no_positive_direction_gives_one(self):
        f = -np.ones(4)
        assert _max_step(((f, np.array([0.0, -1.0, -0.0, -1e300])),)) == 1.0
        assert _max_step(((f, np.zeros(4)), (f, -np.ones(4)))) == 1.0
        assert _max_step(((np.empty(0), np.empty(0)),)) == 1.0

    def test_non_positive_directions_ignored_silently(self):
        f = np.array([-1.0, 0.0, -2.0, -1e300, -4.0])
        df = np.array([0.0, 0.0, -1e-300, -1e-300, 8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _max_step(((f, df),)) == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_masked_min_bit_for_bit(self, seed):
        """Pairs at scales from 1e-300 to 1e300 whose quotients lie within
        1e+-3 of 1, so the minimum is a normal number below 1, and one pair
        of independent magnitudes whose quotients overflow and underflow."""
        rng = CounterRng(stream_seed("max-step", seed))
        n = 200
        pairs = []
        for spread in (3, 3, 3, 3, 600):
            scale = 300 * (2 * rng.uniform(1) - 1) * (spread < 600)
            f = -10.0 ** (scale + spread * (rng.uniform(n) - 0.5))
            df = rng.signs(n) * 10.0 ** (scale + spread * (rng.uniform(n) - 0.5))
            df[rng.subset(n, 20)] = 0.0
            pairs.append((f, df))
        want = min(self.masked_min(f, df) for f, df in pairs)
        got = _max_step(pairs)
        assert got.hex() == want.hex()
        for f, df in pairs:
            assert _max_step(((f, df),)).hex() == self.masked_min(f, df).hex()

    def test_multiplier_pair_form(self):
        """``(-lam, -dlam)`` bounds the step by lam + step * dlam >= 0."""
        rng = CounterRng(stream_seed("max-step-lambda", 0))
        lam = np.exp(5 * rng.normal(50))
        dlam = rng.normal(50) * np.exp(5 * rng.normal(50))
        dlam[::7] = 0.0
        neg = dlam < 0
        want = min(1.0, float(np.min(lam[neg] / -dlam[neg])))
        assert _max_step(((-lam, -dlam),)).hex() == want.hex()


class TestSolve:
    """``_solve``: the Schur and Newton solves with their lstsq fallback."""

    def test_regular_matrix_takes_solve(self):
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        assert _solve(H, b).tobytes() == np.linalg.solve(H, b).tobytes()

    def test_singular_matrix_takes_lstsq(self):
        H = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([1.0, 3.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, b)
        want = np.linalg.lstsq(H, b, rcond=None)[0]
        assert _solve(H, b).tobytes() == want.tobytes()


class TestTrialSteps:
    """``_trial_steps``: the backtracking line search of both solvers."""

    def test_feasible_direction_yields_every_halving(self):
        z, t = np.array([0.5, -0.25]), np.ones(2)
        dz, dt = np.zeros(2), np.zeros(2)
        tries = list(_trial_steps(0.7, z, t, dz, dt))
        assert [s for s, *_ in tries] == [0.7 * 2.0**-k for k in range(32)]

    def test_infeasible_tries_are_skipped(self):
        # z' - t' = 4 step - 1 < 0 holds from step = 1/8 on
        z, t = np.zeros(3), np.ones(3)
        dz, dt = np.array([4.0, 0.0, -1.0]), np.zeros(3)
        tries = list(_trial_steps(1.0, z, t, dz, dt))
        assert [s for s, *_ in tries] == [2.0**-k for k in range(3, 32)]
        for step, zn, tn, f1n, f2n in tries:
            assert zn.tobytes() == (z + step * dz).tobytes()
            assert tn.tobytes() == (t + step * dt).tobytes()
            assert f1n.tobytes() == (zn - tn).tobytes()
            assert f2n.tobytes() == (-zn - tn).tobytes()

    def test_direction_infeasible_at_every_try_yields_nothing(self):
        # t' = -step < 0 at every step: the search stalls
        z, t = np.zeros(2), np.zeros(2)
        assert list(_trial_steps(1.0, z, t, np.zeros(2), -np.ones(2))) == []

    @pytest.mark.parametrize("solve", [
        lambda A, u: bp_equality(A, u),
        lambda A, u: bp_denoise(A, u, 0.1 * float(np.linalg.norm(u))),
    ], ids=["bp_equality", "bp_denoise"])
    def test_both_solvers_search_through_it(self, monkeypatch, solve):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=50))
        u = A @ gen_signal(SignalSpec(32, 3, seed=51, random_signs=True))
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _trial_steps(*args)

        monkeypatch.setattr(convex, "_trial_steps", counting)
        solve(A, u)
        assert len(calls) > 5


class TestReweighted:
    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            RwConfig(epsilon=float("nan"))

    @pytest.mark.parametrize("max_iters", [2.5, np.nan, np.inf, 0, -1])
    def test_max_iters_must_be_whole(self, max_iters):
        with pytest.raises(ValueError, match="whole number >= 1"):
            RwConfig(max_iters=max_iters)

    def test_whole_float_max_iters_runs(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 12, seed=20))
        rep = reweighted_l1(A, np.zeros(6), RwConfig(max_iters=2.0))
        assert rep.iterations == 2
        assert len(rep.estimate_history) == 2

    def test_noiseless_fixed_point(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=18))
        x = gen_signal(SignalSpec(32, 2, seed=19))
        rep = reweighted_l1(A, A @ x, RwConfig(max_iters=3))
        assert np.linalg.norm(x - rep.estimate_history[0]) <= 1e-7
        assert np.linalg.norm(x - rep.estimate_history[-1]) <= 1e-7

    def test_zero_samples(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 12, seed=20))
        rep = reweighted_l1(A, np.zeros(6), RwConfig(max_iters=2))
        for est in rep.estimate_history:
            assert np.array_equal(est, np.zeros(12))

    def test_stability_schedule(self):
        # after the k-th solve the weights are 1/(|x| + a_k), a_k = 1/(1000 k)
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=21))
        x = gen_signal(SignalSpec(32, 3, seed=22, random_signs=True))
        e = gen_noise(NoiseSpec(16, 0.05, seed=23))
        u, eps = A @ x + e, 0.06
        rep = reweighted_l1(A, u, RwConfig(epsilon=eps, max_iters=3))
        history = rep.estimate_history
        for a_k, prev, est in ((1e-3, history[0], history[1]),
                               (5e-4, history[1], history[2])):
            expected = bp_denoise(A, u, eps, weights=1 / (np.abs(prev) + a_k))
            assert np.array_equal(est, expected)

    def test_noisy_improvement_direction_small(self):
        # median error ratio (last vs first iteration) stays below 1
        ratios = []
        for seed in range(12):
            A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=stream_seed("rw", seed)))
            x = gen_signal(SignalSpec(64, 8, seed=stream_seed("rwsig", seed),
                                      random_signs=True))
            u_clean = A @ x
            e = gen_noise(NoiseSpec(32, 0.2 * np.linalg.norm(u_clean),
                                    seed=stream_seed("rwn", seed)))
            sigma = np.linalg.norm(e) / np.sqrt(32)
            eps = np.sqrt(sigma**2 * (32 + 2 * np.sqrt(64)))
            rep = reweighted_l1(A, u_clean + e, RwConfig(epsilon=eps, max_iters=5))
            errors = [np.linalg.norm(x - est) for est in rep.estimate_history]
            ratios.append(errors[-1] / errors[0])
        assert np.median(ratios) < 1.0


class TestErrorRecursion:
    def test_constants(self):
        rho, alpha = rw_constants(0.2)
        assert rho == pytest.approx(np.sqrt(2) * 0.2 / 0.8)
        assert alpha == pytest.approx(2 * np.sqrt(1.2) / np.sqrt(0.8))

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            rw_constants(np.sqrt(2) - 1)

    def test_noiseless_collapses(self):
        b = rw_error_recursion(10.0, 0.0, 0.2)
        assert b.L == 0.0 and b.iters_to_converge == 1
        np.testing.assert_array_equal(b.E, [0.0])

    def test_closed_form_example(self):
        b = rw_error_recursion(10.0, 0.1, 0.2)
        assert b.rho == pytest.approx(0.35355, abs=1e-5)
        assert b.alpha == pytest.approx(2.44949, abs=1e-5)
        assert b.E[0] == pytest.approx(0.75783, abs=1e-5)
        assert b.L == pytest.approx(0.25366, abs=1e-5)

    def test_limit_below_simple_bound(self):
        for delta in (0.05, 0.15, 0.3):
            for eps in (0.01, 0.2, 1.0):
                rho, alpha = rw_constants(delta)
                if 50.0 < 4 * alpha * eps / (1 - rho):
                    continue
                b = rw_error_recursion(50.0, eps, delta)
                assert b.L <= 2 * b.alpha * eps / (1 + b.rho) + 1e-12

    def test_sequence_monotone_and_fixed_point(self):
        b = rw_error_recursion(10.0, 0.5, 0.25, tol=1e-9)
        assert np.all(np.diff(b.E) <= 1e-15)
        assert np.all(b.E >= 0)
        L, frac = b.L, b.L / (10.0 - b.L)
        resid = L - (1 + frac) * b.alpha * 0.5 / (1 - b.rho * frac)
        assert abs(resid) < 1e-9

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            rw_error_recursion(0.1, 1.0, 0.2)

    @pytest.mark.parametrize("mu", [-5.0, -1e-300, float("nan")])
    def test_zero_eps_still_checks_hypothesis(self, mu):
        # at eps = 0 the hypothesis reads mu >= 0
        with pytest.raises(ValueError, match="hypothesis"):
            rw_error_recursion(mu, 0.0, 0.2)

    def test_nan_mu_violates_hypothesis(self):
        with pytest.raises(ValueError, match="hypothesis"):
            rw_error_recursion(float("nan"), 0.1, 0.2)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-3])
    def test_tol_must_be_positive(self, tol):
        # NaN returned a one-term bound and 0 ran 100,000 terms before failing
        with pytest.raises(ValueError, match="tol must be > 0"):
            rw_error_recursion(10.0, 0.1, 0.1, tol=tol)
