import math

import numpy as np
import pytest

from sparsekit import rip
from sparsekit.ensembles import EnsembleSpec, gen_matrix
from sparsekit.rip import (
    EnumerationCapError,
    check_ric_consequences,
    ric_exact,
    ric_monte_carlo,
)
from sparsekit.rng import CounterRng, stream_seed

from helpers import traced_peak


def brute_force_delta(A, r):
    """Independent oracle: scan every support with plain SVD calls."""
    import itertools

    d = A.shape[1]
    best = 0.0
    for T in itertools.combinations(range(d), r):
        sv = np.linalg.svd(A[:, T], compute_uv=False)
        best = max(best, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
    return best


class TestRicExact:
    def test_orthogonal_matrix_is_isometry(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 12, 12, seed=1))
        for r in (1, 2, 3):
            assert ric_exact(A, r).delta < 1e-12

    def test_two_column_analytic(self):
        A = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        rep = ric_exact(A, 2)
        assert abs(rep.delta - 0.5) < 1e-12
        assert list(rep.witness) == [0, 1]

    def test_order_one_is_worst_column_norm(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 10, seed=2))
        expected = max(abs(np.sum(A**2, axis=0) - 1.0))
        assert abs(ric_exact(A, 1).delta - expected) < 1e-12

    def test_matches_brute_force(self):
        A = gen_matrix(EnsembleSpec("gaussian", 9, 9, seed=3))
        for r in (1, 2, 3):
            assert abs(ric_exact(A, r).delta - brute_force_delta(A, r)) < 1e-10

    def test_monotone_in_order(self):
        A = gen_matrix(EnsembleSpec("gaussian", 10, 12, seed=4))
        deltas = [ric_exact(A, r).delta for r in range(1, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_scaling_recomputation(self):
        # scaling columns by c maps the (1 +- delta) bracket through c^2
        A = gen_matrix(EnsembleSpec("gaussian", 10, 12, seed=5))
        c = 1.3
        for r in (1, 2, 3):
            base = ric_exact(A, r)
            scaled = ric_exact(c * A, r)
            expected = max(c**2 * (1 + base.delta_upper) - 1.0,
                           1.0 - c**2 * (1 - base.delta_lower))
            assert abs(scaled.delta - expected) < 1e-10

    def test_cap_exceeded_message(self):
        A = gen_matrix(EnsembleSpec("gaussian", 10, 40, seed=6))
        with pytest.raises(EnumerationCapError, match="monte_carlo"):
            ric_exact(A, 10, cap=1000)

    def test_witness_attains_delta(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 12, seed=7))
        rep = ric_exact(A, 3)
        sv = np.linalg.svd(A[:, rep.witness], compute_uv=False)
        attained = max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert abs(attained - rep.delta) < 1e-12


class TestRicMonteCarlo:
    def test_exhaustive_sampling_equals_exact(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 9, seed=8))
        exact = ric_exact(A, 2).delta
        mc = ric_monte_carlo(A, 2, trials=math.comb(9, 2), seed=1)
        assert abs(mc.delta - exact) < 1e-12

    def test_order_one_with_enough_trials_is_exact(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 10, seed=9))
        mc = ric_monte_carlo(A, 1, trials=10, seed=2)
        assert abs(mc.delta - ric_exact(A, 1).delta) < 1e-12

    def test_monotone_in_trials(self):
        A = gen_matrix(EnsembleSpec("gaussian", 10, 30, seed=10))
        vals = [ric_monte_carlo(A, 3, trials=t, seed=3).delta
                for t in (5, 20, 80, 200)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("trials", [2.5, np.nan, 0])
    def test_trials_must_be_a_whole_number(self, trials):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        with pytest.raises(ValueError, match="trials must be a whole number"):
            ric_monte_carlo(A, 2, trials=trials)

    @pytest.mark.parametrize("solve", [
        lambda A, r: ric_exact(A, r),
        lambda A, r: ric_monte_carlo(A, r, trials=5),
    ], ids=["exact", "monte_carlo"])
    @pytest.mark.parametrize("r", [2.5, np.nan, 0])
    def test_order_must_be_a_whole_number(self, solve, r):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        with pytest.raises(ValueError, match="order r must be a whole number"):
            solve(A, r)

    def test_order_past_d_is_out_of_range(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        with pytest.raises(ValueError, match="order r=11 out of range"):
            ric_exact(A, 11)

    @pytest.mark.parametrize("trials", [50, math.comb(10, 2)],
                             ids=["sampled", "enumerated"])
    def test_whole_float_seed_runs_the_int_seed(self, trials):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        r1 = ric_monte_carlo(A, 2, trials=trials, seed=3.0)
        r2 = ric_monte_carlo(A, 2, trials=trials, seed=3)
        assert (r1.delta, r1.witness.tolist()) == (r2.delta, r2.witness.tolist())

    @pytest.mark.parametrize("trials", [50, math.comb(10, 2)],
                             ids=["sampled", "enumerated"])
    @pytest.mark.parametrize("seed", [2.5, np.nan, "3"])
    def test_seed_must_be_a_whole_number(self, seed, trials):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=12))
        with pytest.raises(ValueError, match="seed must be a whole number"):
            ric_monte_carlo(A, 2, trials=trials, seed=seed)

    def test_lower_bounds_exact(self):
        A = gen_matrix(EnsembleSpec("gaussian", 10, 14, seed=11))
        exact = ric_exact(A, 3).delta
        mc = ric_monte_carlo(A, 3, trials=50, seed=4)
        assert mc.delta <= exact + 1e-12


class TestSampledSupports:
    """The batched draw gives the supports of the per-sample stream loop."""

    @staticmethod
    def per_sample(d, r, seed, trials):
        return np.array([CounterRng(stream_seed(seed, "ric", t)).subset(d, r)
                         for t in range(trials)])

    # (d, r, seed, trials, b): the first crosses a batch boundary, the next
    # two fill whole batches of b, the last draws one support per batch
    @pytest.mark.parametrize("d, r, seed, trials, b", [
        (40, 3, 1, 300, 128), (256, 8, 2, 1000, 1000), (12, 2, 7, 300, 100),
        (1500, 5, 3, 40, 1)])
    def test_batched_supports_equal_per_sample_loop(self, d, r, seed, trials,
                                                    b):
        blocks = list(rip._sampled_chunks(d, r, trials,
                                          stream_seed(seed, "ric"), b))
        assert [len(x) for x in blocks] == [
            min(b, trials - lo) for lo in range(0, trials, b)]
        want = self.per_sample(d, r, seed, trials)
        got = np.concatenate(blocks)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_wide_matrix_draws_one_support_per_batch(self, monkeypatch):
        # one row of d raw keys passes the budget, so each batch holds one
        d = rip.BATCH_BYTES // 8 + 1
        drawn = []
        draw = rip.stream_subsets

        def spy(prefix, counters, n, k):
            drawn.append(draw(prefix, counters, n, k))
            return drawn[-1]

        monkeypatch.setattr(rip, "stream_subsets", spy)
        ric_monte_carlo(np.ones((1, d)), 2, trials=3, seed=5)
        assert [len(x) for x in drawn] == [1, 1, 1]
        assert np.array_equal(np.concatenate(drawn),
                              self.per_sample(d, 2, 5, 3))


class TestBatchBudget:
    """The byte budget sets how many supports a scan holds, never what it
    reports."""

    @staticmethod
    def fields(rep):
        return (rep.r, rep.mode, rep.trials, rep.witness.dtype,
                rep.witness.tobytes(),
                np.array([rep.delta, rep.delta_lower, rep.delta_upper]).tobytes())

    # the analysis workload's ric cells at CLI seed 3
    @pytest.mark.parametrize("solve, m, d, r", [
        (lambda A, r: ric_monte_carlo(A, r, 1000, seed=3), 128, 256, 8),
        (lambda A, r: ric_exact(A, r), 12, 20, 3),
    ], ids=["monte_carlo", "exact"])
    def test_one_support_batches_give_the_same_report(self, solve, m, d, r,
                                                      monkeypatch):
        A = gen_matrix(EnsembleSpec("gaussian", m, d, seed=3))
        default = self.fields(solve(A, r))
        monkeypatch.setattr(rip, "BATCH_BYTES", 8 * max(d, m * r))
        assert self.fields(solve(A, r)) == default

    # (m, d, r, trials): all 4096 supports of the first in one batch would
    # gather 64 MiB of columns; in the second (r > m) the r x r Gram
    # matrices outgrow the gathered columns
    @pytest.mark.parametrize("m, d, r, trials", [(128, 256, 16, 4096),
                                                 (10, 400, 200, 100)])
    def test_scan_memory_stays_within_the_budget(self, m, d, r, trials):
        A = gen_matrix(EnsembleSpec("gaussian", m, d, seed=4))
        rep, peak = traced_peak(ric_monte_carlo, A, r, trials)
        assert rep.trials == trials
        assert peak < 4 * rip.BATCH_BYTES + A.nbytes


class TestConsequences:
    def test_orthogonal_all_pass(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 12, 12, seed=12))
        checks = check_ric_consequences(A, 2, trials=50, seed=5)
        assert all(c.passed for c in checks.values())

    def test_tiny_gaussian_all_pass(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=13))
        checks = check_ric_consequences(A, 2, trials=100, seed=6)
        for name, c in checks.items():
            assert c.passed, f"{name} violated: worst ratio {c.worst_ratio}"

    def test_whole_float_seed_runs_the_int_seed(self):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=13))
        assert (check_ric_consequences(A, 2, trials=20, seed=3.0)
                == check_ric_consequences(A, 2, trials=20, seed=3))

    @pytest.mark.parametrize("seed", [2.5, np.nan, "3"])
    def test_seed_must_be_a_whole_number(self, seed):
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=13))
        with pytest.raises(ValueError, match="seed must be a whole number"):
            check_ric_consequences(A, 2, trials=20, seed=seed)

    @pytest.mark.parametrize("trials", [-1, 0, 2.5, np.nan])
    def test_trials_must_be_a_whole_number(self, trials):
        # trials=-1 used to report every check passed over an empty battery
        A = gen_matrix(EnsembleSpec("gaussian", 6, 10, seed=13))
        with pytest.raises(ValueError, match="trials must be a whole number"):
            check_ric_consequences(A, 2, trials=trials)

    def test_order_scaling_on_exact_values(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 10, seed=14))
        for r in (1, 2):
            d2 = ric_exact(A, 2 * r).delta
            for c in (2, 3, 4):
                if c * r <= 10:
                    assert ric_exact(A, c * r).delta <= c * d2 + 1e-12

    def test_approximate_orthogonality_exhaustive(self):
        # ||Phi_I' Phi_J|| <= delta_r over all disjoint pairs with |I|+|J| <= r
        import itertools

        A = gen_matrix(EnsembleSpec("gaussian", 8, 8, seed=15))
        r = 4
        delta = ric_exact(A, r).delta
        d = A.shape[1]
        for i_size in (1, 2):
            for j_size in (1, 2):
                for I in itertools.combinations(range(d), i_size):
                    for J in itertools.combinations(range(d), j_size):
                        if set(I) & set(J):
                            continue
                        cross = np.linalg.norm(A[:, I].T @ A[:, J], 2)
                        assert cross <= delta + 1e-10


class TestEnergyBound:
    def test_dense_battery(self):
        A = gen_matrix(EnsembleSpec("gaussian", 8, 12, seed=16))
        for r in (2, 3):
            delta = ric_exact(A, r).delta
            rng = CounterRng(stream_seed(17, r))
            for _ in range(1000):
                x = rng.normal(12)
                lhs = np.linalg.norm(A @ x)
                rhs = np.sqrt(1 + delta) * (
                    np.linalg.norm(x) + np.linalg.norm(x, 1) / np.sqrt(r))
                assert lhs <= rhs * (1 + 1e-12)
