import dis
import hashlib
import itertools
import warnings

import numpy as np
import pytest

from sparsekit import greedy, linalg
from sparsekit.ensembles import (
    EnsembleSpec,
    NoiseSpec,
    SignalSpec,
    fast_adjoint,
    gen_matrix,
    gen_noise,
    gen_signal,
)
from sparsekit.greedy import (
    CosampConfig,
    StompConfig,
    cosamp,
    omp,
    prune,
    regularize,
    romp,
    stomp,
)
from sparsekit.rng import CounterRng, stream_seed

from helpers import lines_run


def brute_force_regularize(indices, values):
    """Oracle: the max-energy subset with pairwise factor-2 comparability,
    searched over every subset (exponential; tiny inputs only)."""
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=float)
    best, best_energy = None, -1.0
    for r in range(1, len(indices) + 1):
        for combo in itertools.combinations(range(len(indices)), r):
            mags = np.abs(values[list(combo)])
            if np.max(mags) <= 2 * np.min(mags):
                energy = float(np.sum(mags**2))
                if energy > best_energy:
                    best_energy = energy
                    best = combo
    return set(indices[list(best)]), best_energy


class TestOmp:
    def test_identity_matrix(self):
        d = 12
        x = np.zeros(d)
        x[[1, 5, 9]] = [3.0, -2.0, 1.0]
        rep = omp(np.eye(d), x.copy(), 3)
        np.testing.assert_allclose(rep.estimate, x, atol=1e-12)
        assert list(rep.support) == [1, 5, 9]
        assert rep.iterations == 3

    def test_boolean_sparsity_rejected(self):
        # omp(A, u, True) used to run one round
        with pytest.raises(ValueError, match="whole number"):
            omp(np.eye(4), np.ones(4), True)

    def test_no_columns_gives_an_empty_estimate(self):
        # raised numpy's "attempt to get argmax of an empty sequence"
        rep = omp(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]), 1)
        assert rep.estimate.shape == (0,) and rep.support.size == 0
        assert rep.iterations == 0 and rep.residual_history == []
        assert rep.halt_reason == "max_iterations"

    def test_more_rounds_than_columns_selects_each_column_once(self):
        # the third round picked column 0 again: "index set must be strictly
        # increasing"; the residual (0, 0, 1) is orthogonal to both columns
        rep = omp(np.eye(3)[:, :2], np.ones(3), 3)
        assert list(rep.support) == [0, 1] and rep.iterations == 2
        np.testing.assert_allclose(rep.estimate, [1.0, 1.0])
        assert rep.halt_reason == "max_iterations"

    def test_orthonormal_columns(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 16, 16, seed=1))
        x = gen_signal(SignalSpec(16, 4, seed=2))
        rep = omp(A, A @ x, 4)
        np.testing.assert_allclose(rep.estimate, x, atol=1e-10)
        assert rep.halt_reason == "residual_zero"

    def test_gaussian_seeded_recovery(self):
        hits = 0
        for seed in range(10):
            A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=seed))
            x = gen_signal(SignalSpec(64, 2, seed=stream_seed(seed, "sig")))
            rep = omp(A, A @ x, 2)
            hits += np.linalg.norm(rep.estimate - x) <= 1e-8
        assert hits >= 9  # failures only at the expected small rate

    def test_grows_one_index_per_round(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=3))
        u = A @ gen_signal(SignalSpec(32, 5, seed=4))
        sizes = [omp(A, u, s).support.size for s in range(1, 6)]
        assert sizes == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("s", [0, -2])
    def test_sparsity_below_one_rejected(self, s):
        with pytest.raises(ValueError, match="s must be a whole number >= 1"):
            omp(np.eye(4), np.ones(4), s)

    def test_sparsity_exceeds_measurements(self):
        # a fit is determined on at most m columns, so s > m runs m rounds
        rep = omp(np.eye(3), np.ones(3), 4)
        assert rep.iterations == 3 and list(rep.support) == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_sparsity_past_m_matches_s_equal_m(self, seed):
        A = gen_matrix(EnsembleSpec("gaussian", 12, 40, seed=seed))
        u = CounterRng(stream_seed("omp-cap", seed)).normal(12) * 1e3
        capped, full = omp(A, u, 30), omp(A, u, 12)
        assert capped.estimate.tobytes() == full.estimate.tobytes()
        assert np.array_equal(capped.support, full.support)
        assert capped.residual_history == full.residual_history
        assert capped.halt_reason == full.halt_reason

    def test_zero_samples(self):
        rep = omp(np.eye(4), np.zeros(4), 2)
        assert np.array_equal(rep.estimate, np.zeros(4))
        assert rep.iterations == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, bad):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=3))
        u = A @ gen_signal(SignalSpec(32, 2, seed=4))
        u[5] = bad
        with pytest.raises(ValueError, match="finite"):
            omp(A, u, 2)


class TestStomp:
    def test_zero_samples_one_stage(self):
        rep = stomp(np.eye(5), np.zeros(5))
        assert np.array_equal(rep.estimate, np.zeros(5))
        assert rep.iterations == 1
        assert rep.halt_reason == "proxy_infnorm_criterion"

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_threshold_must_be_positive(self, t):
        with pytest.raises(ValueError, match="t must be > 0"):
            StompConfig(t=t)

    def test_identity_flat_threshold_rule(self):
        # with t=2 every unit entry clears the stage-1 threshold 2*sqrt(s/m)
        d, s = 16, 3
        x = np.zeros(d)
        x[[2, 7, 11]] = 1.0
        rep = stomp(np.eye(d), x.copy(), StompConfig(t=2.0))
        np.testing.assert_allclose(rep.estimate, x, atol=1e-12)
        assert rep.iterations == 1
        assert list(rep.support) == [2, 7, 11]

    def test_identity_small_entries_not_selected(self):
        # entries below the threshold leave J empty immediately
        d = 4
        x = np.ones(d)  # |x_i| = 1, threshold 2*sqrt(4)/2 = 2 > 1
        rep = stomp(np.eye(d), x.copy(), StompConfig(t=2.0, max_stages=3))
        assert rep.halt_reason == "proxy_infnorm_criterion"
        assert np.array_equal(rep.estimate, np.zeros(d))

    def test_gaussian_golden_statistic(self):
        # frozen: successes over 20 seeds at d=256, m=128, s=8, t=2
        hits = 0
        for seed in range(20):
            A = gen_matrix(EnsembleSpec("gaussian", 128, 256, seed=seed))
            x = gen_signal(SignalSpec(256, 8, seed=stream_seed(seed, "sig")))
            rep = stomp(A, A @ x, StompConfig(t=2.0, max_stages=10))
            hits += np.linalg.norm(rep.estimate - x) <= 1e-5
        assert hits >= 11  # majority
        assert hits == 20  # golden value, pinned

    def test_support_capped_at_measurements(self):
        A = gen_matrix(EnsembleSpec("gaussian", 10, 40, seed=5))
        u = CounterRng(6).normal(10)
        rep = stomp(A, u, StompConfig(t=0.01, max_stages=8))
        assert rep.support.size <= 10


class TestRegularize:
    def test_all_equal_keeps_everything(self):
        J0 = regularize([3, 7, 9], [1.0, -1.0, 1.0])
        assert list(J0) == [3, 7, 9]

    def test_hand_example(self):
        J0 = regularize([0, 1, 2, 3], [8.0, 4.0, 3.0, 1.0])
        assert list(J0) == [0, 1]

    def test_single_element(self):
        assert list(regularize([5], [2.0])) == [5]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            regularize([], [])

    def test_comparable_within_factor_two(self):
        rng = CounterRng(7)
        for trial in range(200):
            n = 2 + int(rng.uniform(1)[0] * 12)
            vals = rng.normal(n)
            idx = np.arange(n)
            J0 = regularize(idx, vals)
            mags = np.abs(vals[J0])
            assert np.max(mags) <= 2 * np.min(mags) * (1 + 1e-12)

    def test_energy_against_exhaustive_oracle(self):
        rng = CounterRng(8)
        for trial in range(50):
            n = 2 + int(rng.uniform(1)[0] * 6)
            vals = rng.normal(n)
            _, oracle_energy = brute_force_regularize(np.arange(n), vals)
            J0 = regularize(np.arange(n), vals)
            energy = float(np.sum(vals[J0] ** 2))
            # the dyadic candidates reach at least half the oracle energy
            # and never exceed it
            assert energy <= oracle_energy + 1e-12
            assert energy >= oracle_energy / 2 - 1e-12

    def test_energy_floor(self):
        # selected energy >= ||v|| / (2.5 sqrt(log2 m))
        rng = CounterRng(9)
        for trial in range(300):
            n = 2 + int(rng.uniform(1)[0] * 512)
            v = rng.normal(n)
            J0 = regularize(np.arange(n), v)
            floor = np.linalg.norm(v) / (2.5 * np.sqrt(np.log2(n)))
            assert np.linalg.norm(v[J0]) >= floor * (1 - 1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the candidates are greedy factor-2 runs and dyadic shells, not "
        "every comparable window: it picks indices 2-21 (energy 1.80) "
        "where the window 1-21 has energy 2.1025"))
    def test_returns_maximal_energy_window(self):
        # ROMP (Needell-Vershynin) keeps the comparable subset of maximal
        # energy; 0.55 <= 2 * 0.3, so index 1 joins the twenty 0.3 entries
        values = [1.0, 0.55] + [0.3] * 20
        assert list(regularize(np.arange(22), values)) == list(range(1, 22))

    @pytest.mark.parametrize("indices", [[0.5, 1.5], [0, np.nan], [np.inf, 1]])
    def test_fractional_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="whole numbers"):
            regularize(indices, [1.0, 2.0])

    def test_boolean_mask_rejected(self):
        # returned the labels 0 and 1
        with pytest.raises(ValueError, match="boolean mask"):
            regularize([True, False], [1.0, 1.0])

    def test_whole_float_indices_pass(self):
        J0 = regularize([4.0, 2.0], [1.0, 1.5])
        assert J0.dtype == np.intp and list(J0) == [2, 4]


def regularize_reference(indices, values):
    """``regularize`` as first written, with a per-entry run scan, kept
    frozen.

    ``regularize`` must return the same indices: ROMP's benchmark references
    pin every estimate, and each ROMP round selects through it.
    """
    indices = np.asarray(indices, dtype=np.intp).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    order = np.argsort(-np.abs(values), kind="stable")
    mag = np.abs(values)[order]
    n = mag.size

    candidates = []
    w = 0
    while w < n:
        first = mag[w]
        j = w
        while j < n and mag[j] >= first / 2.0:
            j += 1
        candidates.append((w, j))
        w = j
    norm = float(np.linalg.norm(mag))
    if norm > 0:
        k0 = int(np.ceil(np.log2(max(n, 2)))) + 1
        for k in range(1, k0 + 1):
            hi = 2.0 ** (-k + 1) * norm
            lo = 2.0 ** (-k) * norm
            start = int(np.searchsorted(-mag, -hi, side="left"))
            stop = int(np.searchsorted(-mag, -lo, side="left"))
            if stop > start:
                candidates.append((start, stop))

    best_energy = -1.0
    best = (0, 1)
    for start, stop in candidates:
        energy = float(np.sum(mag[start:stop] ** 2))
        if energy > best_energy:
            best_energy = energy
            best = (start, stop)
    return np.sort(indices[order[best[0]:best[1]]])


def regularize_battery():
    """Seeded (indices, values) inputs of n = 1 to 39 entries: Gaussian,
    heavy-tailed, tied, exact powers of two, one-hot, all-zero, partly zero,
    and scaled near the bottom (1e-300, subnormal) and top (1e200, whose
    squares overflow) of the double range, each under shuffled labels."""
    rng = CounterRng(stream_seed(24, "regularize-battery"))
    cases = []
    for trial in range(6000):
        n = 1 + trial % 39
        kind = trial // 39 % 10
        v = rng.normal(n)
        if kind == 1:
            v = np.exp(3.0 * v) * rng.signs(n)
        elif kind == 2:
            v = np.array([1.0, -1.0, 2.0, 0.5, 4.0, 3.0])[
                rng.permutation(6 * n) % 6][:n]
        elif kind == 3:
            v = rng.signs(n) * 2.0 ** (rng.permutation(11 * n)[:n] % 11 - 5)
        elif kind == 4:
            v = np.zeros(n)
            v[rng.permutation(n)[0]] = rng.normal(1)[0]
        elif kind == 5:
            v = np.zeros(n) * rng.signs(n)
        elif kind == 6:
            v[rng.permutation(n)[:n // 2]] = 0.0
        elif kind == 7:
            v *= 1e-300
        elif kind == 8:
            v = rng.signs(n) * 5e-324 * (rng.permutation(4 * n)[:n] % 4)
        elif kind == 9:
            v *= 1e200
        labels = rng.permutation(n) if trial % 2 else np.arange(n)
        cases.append((labels, v))
    return cases


REGULARIZE_BATTERY = regularize_battery()


def test_regularize_same_indices_as_reference():
    with np.errstate(over="ignore"):
        for trial, (labels, v) in enumerate(REGULARIZE_BATTERY):
            got, want = regularize(labels, v), regularize_reference(labels, v)
            assert got.dtype == want.dtype and np.array_equal(got, want), trial


def test_battery_runs_every_regularize_line():
    # a branch that no battery case reaches is a branch no case compares
    code = greedy.regularize.__code__

    def run_battery():
        with np.errstate(over="ignore"):
            for labels, v in REGULARIZE_BATTERY:
                regularize(labels, v)
        with pytest.raises(ValueError, match="nonempty"):
            regularize([], [])

    want = {line for _, line in dis.findlinestarts(code) if line is not None}
    assert want - lines_run(code, run_battery) == set()


def _report_instance(name):
    """(A, u, s, adjoint) of a seeded instance the report pins run on."""
    seed = stream_seed("report-pins", name)
    m, d, s, family = {"gaussian": (64, 256, 8, "gaussian"),
                       "partial-dct": (96, 256, 12, "partial_dct"),
                       "romp-cap": (12, 48, 8, "gaussian"),
                       "cosamp-cut": (7, 30, 3, "gaussian")}[name]
    spec = EnsembleSpec(family, m, d, seed=seed)
    A = gen_matrix(spec)
    u = A @ gen_signal(SignalSpec(d, s, "compressible", seed=seed,
                                  random_signs=True))
    u += gen_noise(NoiseSpec(m, 0.05 * np.linalg.norm(u), seed=seed))
    return A, u, s, fast_adjoint(spec)


def report_sha256(rep):
    """SHA-256 over a report's estimate, support, residual history, and
    selection or estimate history, with each array's dtype and shape."""
    parts = [rep.estimate, rep.support, np.array(rep.residual_history)]
    parts += rep.selection_history or rep.estimate_history or []
    h = hashlib.sha256(f"{rep.iterations} {rep.halt_reason}".encode())
    for a in parts:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# recorded before ROMP and CoSaMP selected through ``top_k`` and
# ``regularize`` found its runs with ``np.searchsorted``
REPORT_SHA256 = {
    ("romp", "gaussian"):
        "9f27336e43fc3619cdea779b88717f5ec37da074ac3a95af76aa850102841f06",
    ("romp", "partial-dct"):
        "7d85e41c1250a52fa0b646c50196b1bdd1a760605fbaabfd1ecf50ee847fb577",
    ("romp", "romp-cap"):
        "4ffe641df600b59f0625540b2b85f897714ab32b7994ff8338169b9725105fc6",
    ("cosamp", "gaussian"):
        "cd58d0d14b842567618509f33748aebf4542f549315552bd3b8670be133d11e9",
    ("cosamp", "partial-dct"):
        "f12857434097e1bcc25efb2fa84db1060ce5b09180935178a7f409562981e016",
    ("cosamp", "cosamp-cut"):
        "e5d43bd09553603302a3446c719cd56310c418202959e552c192d7ae71a2d92f",
}


@pytest.mark.parametrize("algo, name", list(REPORT_SHA256))
def test_report_bytes_pinned(algo, name, monkeypatch):
    A, u, s, adjoint = _report_instance(name)
    cuts = []
    cap = greedy._cap_columns

    def spy_cap(y, J, held, m):
        kept = cap(y, J, held, m)
        cuts.append(kept.size < J.size)
        return kept

    monkeypatch.setattr(greedy, "_cap_columns", spy_cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if algo == "romp":
            rep = romp(A, u, s, adjoint=adjoint)
        else:
            rep = cosamp(A, u, CosampConfig(s, max_iters=12), adjoint=adjoint)
    # the cap instances must reach the cut they are named for
    assert any(cuts) == name.endswith(("cap", "cut"))
    assert report_sha256(rep) == REPORT_SHA256[algo, name]


class TestRomp:
    def test_orthogonal_first_pick_is_top_s(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 32, 32, seed=10))
        x = gen_signal(SignalSpec(32, 4, "compressible", p=0.5, seed=11))
        rep = romp(A, A @ x, 4)
        np.testing.assert_allclose(rep.estimate, x, atol=1e-10)
        assert set(rep.selection_history[0]) <= set(np.flatnonzero(x))

    def test_zero_samples(self):
        rep = romp(np.eye(6), np.zeros(6), 2)
        assert rep.iterations == 0
        assert np.array_equal(rep.estimate, np.zeros(6))

    def test_gaussian_seeded_rate(self):
        hits = 0
        for seed in range(100):
            A = gen_matrix(EnsembleSpec("gaussian", 128, 256, seed=seed))
            x = gen_signal(SignalSpec(256, 4, seed=stream_seed(seed, "sig")))
            rep = romp(A, A @ x, 4)
            hits += np.linalg.norm(rep.estimate - x) <= 1e-5
        assert hits >= 95

    def test_support_cap(self):
        A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=12))
        u = CounterRng(13).normal(32)  # generic dense target
        rep = romp(A, u, 4)
        assert rep.support.size <= 8

    def test_selection_disjoint_from_running_support(self):
        A = gen_matrix(EnsembleSpec("gaussian", 24, 48, seed=14))
        x = gen_signal(SignalSpec(48, 3, seed=15))
        rep = romp(A, A @ x, 3)
        seen = set()
        for J0 in rep.selection_history:
            assert not (set(J0) & seen)
            seen |= set(J0)

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning):
            romp(np.eye(4), np.ones(4), 3)


class TestCosamp:
    def test_orthogonal_single_iteration(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 32, 32, seed=16))
        x = gen_signal(SignalSpec(32, 3, seed=17))
        rep = cosamp(A, A @ x, CosampConfig(3, halting="sample_norm",
                                            halt_value=1e-10))
        np.testing.assert_allclose(rep.estimate, x, atol=1e-10)
        assert rep.iterations == 1

    def test_zero_samples(self):
        rep = cosamp(np.eye(8), np.zeros(8), CosampConfig(2))
        assert rep.iterations == 0
        assert np.array_equal(rep.estimate, np.zeros(8))

    def test_a_kept_zero_leaves_the_support(self):
        # the fit on T = {0, 4} is exactly (1, 0): pruning to s = 2 keeps
        # both, and the support holds only the nonzero one
        A = np.array([[-1, 0, 0, -1, 1], [-1, 0, 0, 1, 0], [0, 1, 0, -1, 1]],
                     dtype=float)
        with pytest.warns(UserWarning, match="4s=8 > m=3"):
            rep = cosamp(A, np.array([-1.0, -1.0, 0.0]),
                         CosampConfig(2, max_iters=6))
        assert list(rep.support) == [0] and rep.iterations == 1
        assert rep.estimate.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_samples(self, bad):
        A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=20))
        u = A @ gen_signal(SignalSpec(64, 4, seed=21))
        u[0] = bad
        with pytest.raises(ValueError, match="finite"):
            cosamp(A, u, CosampConfig(4))

    def test_fixed_iteration_budget(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 64, seed=18))
        u = CounterRng(19).normal(16)
        rep = cosamp(A, u, CosampConfig(2, halting="fixed_iterations",
                                        max_iters=5))
        assert rep.iterations == 5
        assert rep.halt_reason == "max_iterations"

    def test_estimate_stays_s_sparse(self):
        A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=20))
        x = gen_signal(SignalSpec(64, 4, seed=21))
        rep = cosamp(A, A @ x + 0.05 * CounterRng(22).normal(32),
                     CosampConfig(4, halting="fixed_iterations", max_iters=8))
        for a in rep.estimate_history:
            assert np.count_nonzero(a) <= 4

    def test_zero_samples_halt_on_zero_sample_norm(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=23))
        rep = cosamp(A, np.zeros(16), CosampConfig(2, halting="sample_norm",
                                                   halt_value=0.0))
        assert rep.iterations == 0
        assert rep.halt_reason == "sample_norm_criterion"

    def test_sample_norm_boundary_is_inclusive(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=23))
        u = CounterRng(24).normal(16)
        rep = cosamp(A, u, CosampConfig(2, halting="sample_norm",
                                        halt_value=np.linalg.norm(u)))
        assert rep.iterations == 0
        assert rep.halt_reason == "sample_norm_criterion"

    def test_sample_norm_above_halt_value_does_not_halt(self):
        A = gen_matrix(EnsembleSpec("gaussian", 16, 32, seed=23))
        u = CounterRng(24).normal(16)
        below = np.nextafter(np.linalg.norm(u), 0.0)
        rep = cosamp(A, u, CosampConfig(2, halting="sample_norm",
                                        halt_value=below))
        assert rep.iterations >= 1

    def test_proxy_infnorm_boundary_is_inclusive(self):
        # with A = I the proxy is u itself, and eta / sqrt(2s) = eta / 2
        # equals max|u| exactly
        u = CounterRng(25).normal(16)
        eta = 2 * float(np.max(np.abs(u)))
        rep = cosamp(np.eye(16), u, CosampConfig(2, halting="proxy_infnorm",
                                                 halt_value=eta))
        assert rep.iterations == 0
        assert rep.halt_reason == "proxy_infnorm_criterion"
        rep = cosamp(np.eye(16), u, CosampConfig(
            2, halting="proxy_infnorm", halt_value=np.nextafter(eta, 0.0)))
        assert rep.iterations >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CosampConfig(0)
        with pytest.raises(ValueError):
            CosampConfig(2, halting="sample_norm")

    @pytest.mark.parametrize("kwargs", [
        {"halting": "fixed_iterations", "max_iters": 0},
        {"halting": "fixed_iterations", "max_iters": -1},
        {"halting": "fixed_iterations", "max_iters": 2.5},
        {"halting": "fixed_iterations", "max_iters": np.nan},
        {"halting": "fixed_iterations", "max_iters": np.inf},
        {"max_iters": 0},
        {"max_iters": -4},
        {"halting": "sample_norm", "halt_value": 1e-9, "max_iters": 0},
        {"halting": "sample_norm", "halt_value": -1e-9},
        {"halting": "sample_norm", "halt_value": np.nan},
        {"halting": "proxy_infnorm", "halt_value": -1.0},
        {"halting": "proxy_infnorm", "halt_value": np.nan},
    ])
    def test_settings_that_would_return_zero_rejected(self, kwargs):
        # accepted before: most ran no iteration and returned an all-zero
        # estimate, and a non-finite budget failed only inside the run
        with pytest.raises(ValueError):
            CosampConfig(2, **kwargs)

    @pytest.mark.parametrize("halt_value", [5, 5.0, 0.0])
    def test_fixed_iterations_rejects_halt_value(self, halt_value):
        # the count is max_iters; halt_value is only ever a norm threshold
        with pytest.raises(ValueError, match="max_iters"):
            CosampConfig(2, halting="fixed_iterations", halt_value=halt_value)

    def test_whole_number_float_budget_accepted(self):
        assert CosampConfig(2, max_iters=5.0).iteration_cap == 5
        assert CosampConfig(2, halting="proxy_infnorm",
                            halt_value=0.0).iteration_cap == 18


@pytest.mark.parametrize("solve", [
    lambda A, u: omp(A, u, 2),
    lambda A, u: stomp(A, u),
    lambda A, u: romp(A, u, 2),
    lambda A, u: cosamp(A, u, CosampConfig(2)),
], ids=["omp", "stomp", "romp", "cosamp"])
@pytest.mark.parametrize("where", [(0, 0), (5, 17), (31, 63)])
def test_non_finite_matrix_rejected_on_entry(solve, where):
    # pseudoinverse_apply checks only its support columns, so every solver
    # must check all of A before its first iteration
    A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=26))
    u = A @ gen_signal(SignalSpec(64, 2, seed=27))
    A[where] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve(A, u)


@pytest.mark.parametrize("solve", [
    lambda A, u: omp(A, u, 6),
    lambda A, u: stomp(A, u, StompConfig(t=1.5)),
    lambda A, u: romp(A, u, 6),
    lambda A, u: cosamp(A, u, CosampConfig(4, max_iters=8)),
], ids=["omp", "stomp", "romp", "cosamp"])
def test_every_fit_is_one_least_squares_call(solve, monkeypatch):
    # a tracer counts fits and CG iterations through linalg.least_squares,
    # which StOMP reaches through pseudoinverse_apply and the others call on
    # their own block; every iteration fits once and records one residual
    solves = []
    ls = linalg.least_squares

    def spy_ls(A_T, *args, **kwargs):
        out = ls(A_T, *args, **kwargs)
        solves.append((A_T.shape[1], out))
        return out

    monkeypatch.setattr(linalg, "least_squares", spy_ls)
    A = gen_matrix(EnsembleSpec("gaussian", 32, 64, seed=30))
    u = A @ gen_signal(SignalSpec(64, 4, seed=31)) + 0.01 * CounterRng(32).normal(32)
    rep = solve(A, u)
    assert len(solves) == len(rep.residual_history) > 1
    assert all(k > 0 for k, _ in solves)
    for k, out in solves:
        z, its = out
        assert z.shape == (k,) and type(its) is int and its >= 0


def column_indices(A, A_T):
    """The columns of A that the block A_T holds, in its order (the
    columns of A must be distinct)."""
    return [int(np.flatnonzero((A == col[:, None]).all(axis=0))[0])
            for col in A_T.T]


@pytest.mark.parametrize("algo", ["omp", "romp", "cosamp"])
def test_each_fit_reads_its_own_f_ordered_block(algo, monkeypatch):
    # the block is A[:, I] for an increasing I, in A[:, I]'s F order: BLAS
    # rounds a C-ordered block's products otherwise, and the bytes change
    blocks = []
    ls = linalg.least_squares

    def spy_ls(A_T, *args, **kwargs):
        # a copy: OMP's block is a view of a buffer that later rounds shift
        blocks.append((A_T.flags.f_contiguous, A_T.copy()))
        return ls(A_T, *args, **kwargs)

    monkeypatch.setattr(linalg, "least_squares", spy_ls)
    A, u, s, _ = _report_instance("gaussian")
    rep = {"omp": lambda: omp(A, u, s),
           "romp": lambda: romp(A, u, s),
           "cosamp": lambda: cosamp(A, u, CosampConfig(s, max_iters=12))}[algo]()
    assert len(blocks) == rep.iterations > 1
    held = []
    for f_ordered, A_T in blocks:
        I = column_indices(A, A_T)
        assert f_ordered
        assert I == sorted(set(I)) and np.array_equal(A_T, A[:, I])
        if algo == "omp":               # one column more each round
            assert set(held) < set(I) and len(I) == len(held) + 1
        held = I
    assert set(rep.support) <= set(held)


@pytest.mark.parametrize("make", [
    lambda: StompConfig(max_stages=np.nan),
    lambda: StompConfig(max_stages=2.5),
    lambda: CosampConfig(np.nan),
    lambda: CosampConfig(2.5),
    lambda: omp(np.eye(4), np.ones(4), 2.5),
    lambda: romp(np.eye(4), np.ones(4), 2.5),
    lambda: prune(np.ones(4), -1),
    lambda: prune(np.ones(4), np.nan),
], ids=["stomp-nan", "stomp-half", "cosamp-nan", "cosamp-half", "omp-half",
        "romp-half", "prune-negative", "prune-nan"])
def test_counts_must_be_whole_numbers(make):
    with pytest.raises(ValueError, match="must be a whole number >="):
        make()


class TestColumnCap:
    """Every greedy fit stops at m columns: a stage whose candidates would
    pass m keeps its largest-magnitude proxy entries, ties to the smaller
    index."""

    def test_keeps_largest_proxy_entries_ties_to_smaller_index(self):
        y = np.array([0.0, -3.0, 1.0, 3.0, 2.0, -2.0])
        J = np.array([1, 2, 3, 4, 5])
        assert list(greedy._cap_columns(y, J, 3, 6)) == [1, 3, 4]
        assert greedy._cap_columns(y, J, 1, 6) is J

    @pytest.mark.parametrize("solve", [
        lambda A, u: stomp(A, u, StompConfig(t=0.5, max_stages=6)),
        lambda A, u: romp(A, u, 5),
        lambda A, u: cosamp(A, u, CosampConfig(
            4, halting="fixed_iterations", max_iters=6)),
    ], ids=["stomp", "romp", "cosamp"])
    def test_fit_never_passes_m_columns(self, solve, monkeypatch):
        fits, cuts = [], []
        ls, cap = linalg.least_squares, greedy._cap_columns

        def spy_ls(A_T, *args, **kwargs):
            fits.append(A_T.shape[1])
            return ls(A_T, *args, **kwargs)

        def spy_cap(y, J, held, m):
            kept = cap(y, J, held, m)
            cuts.append(kept.size < J.size)
            return kept

        monkeypatch.setattr(linalg, "least_squares", spy_ls)
        monkeypatch.setattr(greedy, "_cap_columns", spy_cap)
        for seed in range(4):
            A = gen_matrix(EnsembleSpec("gaussian", 9, 40, seed=seed))
            u = CounterRng(stream_seed("column-cap", seed)).normal(9)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rep = solve(A, u)
            assert rep.support.size <= 9
        assert max(fits) == 9 and any(cuts)

    def test_romp_cut_takes_the_smaller_index_of_a_tie(self):
        # round 1 fits columns 0-2; round 2's proxy ties columns 3 and 7,
        # and one more column fits
        A = np.hstack([np.eye(4), np.eye(4)])
        with pytest.warns(UserWarning, match="2s=6 > m=4"):
            rep = romp(A, np.array([3.0, 3.0, 3.0, 1.0]), 3)
        assert [list(J) for J in rep.selection_history] == [[0, 1, 2], [3]]
        assert list(rep.support) == [0, 1, 2, 3]

    def test_cosamp_cut_keeps_the_largest_proxy_entries(self):
        # the oracle re-derives each merged support from the estimates
        m, s = 7, 3
        A = gen_matrix(EnsembleSpec("gaussian", m, 30, seed=5))
        u = CounterRng(31).normal(m)
        merged = []
        ls = linalg.least_squares

        def spy_ls(A_T, *args, **kwargs):
            merged.append(column_indices(A, A_T))
            return ls(A_T, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "least_squares", spy_ls)
            with pytest.warns(UserWarning, match="4s=12 > m=7"):
                rep = cosamp(A, u, CosampConfig(
                    s, halting="fixed_iterations", max_iters=5))
        a, bound = np.zeros(30), 0
        for T, nxt in zip(merged, rep.estimate_history):
            cur = np.flatnonzero(a)
            y = A.T @ (u - A @ a)
            order = sorted(range(30), key=lambda j: (-abs(y[j]), j))
            omega = [j for j in order[:2 * s] if y[j] != 0.0]
            if len(cur) + len(omega) > m:
                omega = [j for j in omega if j not in cur][:m - len(cur)]
                bound += 1
            assert T == sorted(set(omega) | set(cur))
            a = nxt
        assert bound >= 1 and max(map(len, merged)) <= m

    def test_cosamp_merge_fits_every_column_that_fits(self):
        # omega may repeat columns of the running support, so only omega \
        # cur is cut: each fit holds min(m, |omega u cur|) columns
        m, d, s = 9, 40, 4
        fits = []
        ls = linalg.least_squares

        def spy_ls(A_T, *args, **kwargs):
            fits.append(A_T.shape[1])
            return ls(A_T, *args, **kwargs)

        overlapping_cuts = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "least_squares", spy_ls)
            for seed in range(40):
                A = gen_matrix(EnsembleSpec("gaussian", m, d, seed=seed))
                u = CounterRng(stream_seed("cosamp-merge", seed)).normal(m)
                fits.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    rep = cosamp(A, u, CosampConfig(
                        s, halting="fixed_iterations", max_iters=8))
                a = np.zeros(d)
                for size, nxt in zip(fits, rep.estimate_history):
                    cur = np.flatnonzero(a)
                    y = A.T @ (u - A[:, cur] @ a[cur])
                    order = sorted(range(d), key=lambda j: (-abs(y[j]), j))
                    omega = {j for j in order[:2 * s] if y[j] != 0.0}
                    merged = len(omega | set(cur))
                    overlapping_cuts += (len(omega) + len(cur) > m
                                         and bool(omega & set(cur)))
                    assert size == min(m, merged)
                    a = nxt
        assert overlapping_cuts >= 1

    def test_cosamp_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="outside the recommended"):
            cosamp(np.eye(4), np.ones(4), CosampConfig(2))

    def test_romp_halts_on_an_empty_proxy(self):
        # the residual (0, 0, 1) is orthogonal to both columns
        A = np.eye(3)[:, :2]
        with pytest.warns(UserWarning):
            rep = romp(A, np.ones(3), 2)
        assert rep.halt_reason == "proxy_infnorm_criterion"
        assert rep.iterations == 1 and list(rep.support) == [0, 1]


class TestPrune:
    def test_already_sparse(self):
        b = np.array([0.0, 2.0, 0.0, -1.0])
        assert np.array_equal(prune(b, 2), b)

    def test_magnitude_sort(self):
        assert np.array_equal(prune(np.array([3.0, -2.0, 1.0]), 2),
                              [3.0, -2.0, 0.0])

    def test_zero_budget(self):
        assert np.array_equal(prune(np.array([1.0, 2.0]), 0), np.zeros(2))

    def test_factor_two_battery(self):
        # ||x - b_s|| <= 2 ||x - b|| for planted s-sparse x
        rng = CounterRng(25)
        for trial in range(1000):
            d = 8 + int(rng.uniform(1)[0] * 24)
            s = 1 + int(rng.uniform(1)[0] * (d // 4))
            x = np.zeros(d)
            sup = rng.permutation(d)[:s]
            x[sup] = rng.normal(s)
            b = x + 0.5 * rng.normal(d)
            lhs = np.linalg.norm(x - prune(b, s))
            rhs = 2 * np.linalg.norm(x - b)
            assert lhs <= rhs + 1e-12


class TestCosampContraction:
    def test_per_iteration_error_halves_plus_noise(self):
        # on verified well-conditioned instances each iteration obeys
        # err_{k+1} <= 0.5 err_k + 7.5 ||e||
        from helpers import near_orthonormal
        from sparsekit.rip import ric_exact

        s, m, d = 2, 16, 12
        checked = 0
        for seed in range(12):
            A = near_orthonormal(m, d, 0.004, seed, label="contraction")
            if ric_exact(A, 4 * s).delta > 0.1:
                continue
            rng = CounterRng(stream_seed("contraction-x", seed))
            x = np.zeros(d)
            x[rng.permutation(d)[:s]] = rng.normal(s) + np.sign(rng.normal(s))
            e = 0.03 * rng.normal(m)
            u = A @ x + e
            rep = cosamp(A, u, CosampConfig(s, halting="fixed_iterations",
                                            max_iters=10))
            errs = [np.linalg.norm(x)] + [
                np.linalg.norm(x - a) for a in rep.estimate_history]
            for prev, nxt in zip(errs, errs[1:]):
                assert nxt <= 0.5 * prev + 7.5 * np.linalg.norm(e) + 1e-12
            checked += 1
        assert checked >= 8


def _partial_dct_instance(i):
    """Instance i of a seeded partial-DCT battery: odd ones carry 1% noise."""
    m, s = (64, 96, 128)[i % 3], (4, 8, 12, 16)[i % 4]
    seed = stream_seed("adjoint-battery", i)
    spec = EnsembleSpec("partial_dct", m, 256, seed=seed)
    A = gen_matrix(spec)
    x = gen_signal(SignalSpec(256, s, ("flat", "compressible")[i // 10],
                              seed=seed, random_signs=True))
    u = A @ x
    e = gen_noise(NoiseSpec(m, 0.01 * np.linalg.norm(u) * (i % 2), seed=seed))
    return spec, A, u + e, s


@pytest.mark.parametrize("solve", [
    lambda A, u, s, adj: omp(A, u, s, adjoint=adj),
    lambda A, u, s, adj: stomp(A, u, adjoint=adj),
    lambda A, u, s, adj: romp(A, u, s, adjoint=adj),
    lambda A, u, s, adj: cosamp(A, u, CosampConfig(
        s, halting="sample_norm", halt_value=1e-9 * np.linalg.norm(u),
        max_iters=60), adjoint=adj),
], ids=["omp", "stomp", "romp", "cosamp"])
def test_fast_adjoint_keeps_estimate_bytes(solve):
    # the proxy moves only by rounding, and least squares reads A itself
    for i in range(20):
        spec, A, u, s = _partial_dct_instance(i)
        dense = solve(A, u, s, None)
        fast = solve(A, u, s, fast_adjoint(spec))
        assert fast.estimate.tobytes() == dense.estimate.tobytes(), i
        assert fast.iterations == dense.iterations, i
        assert np.array_equal(fast.support, dense.support), i


class TestNormComparison:
    def test_tail_l2_bounded_by_scaled_l1(self):
        # ||v - v_T||_2 <= ||v||_1 / (2 sqrt(T)) for every T
        rng = CounterRng(28)
        for trial in range(1000):
            d = 2 + int(rng.uniform(1)[0] * 40)
            v = rng.normal(d)
            l1 = np.linalg.norm(v, 1)
            for T in range(1, d + 1):
                tail = v - prune(v, T)
                assert np.linalg.norm(tail) <= l1 / (2 * np.sqrt(T)) + 1e-12
