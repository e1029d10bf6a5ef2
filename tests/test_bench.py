import threading
import warnings

import numpy as np
import pytest

from sparsekit import bench
from sparsekit.bench import ExperimentGrid, rows_to_csv, rows_to_jsonl
from sparsekit.rng import stream_seed


def small_grid(algo="omp", **kw):
    defaults = dict(algorithm=algo, d=32, m_values=(16,), s_values=(2,),
                    trials=8, seed=5)
    defaults.update(kw)
    return ExperimentGrid(**defaults)


class TestGrid:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_grid(algo="magic")

    @pytest.mark.parametrize("field", ["m_values", "s_values"])
    def test_empty_values(self, field):
        with pytest.raises(ValueError, match="non-empty"):
            small_grid(**{field: ()})

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            small_grid(threads=threads)

    @pytest.mark.parametrize("mode", ["measurement", "signal"])
    def test_both_noise_levels_rejected(self, mode):
        with pytest.raises(ValueError, match="not both"):
            small_grid(noise_norm=0.5, noise_fraction=0.1, noise_mode=mode)

    def test_m_larger_than_d_warns(self):
        with pytest.warns(UserWarning):
            small_grid(m_values=(64,))

    def test_m_larger_than_d_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            small_grid(m_values=(64,))
        assert record[0].filename == __file__

    @pytest.mark.parametrize("d", [0, -4])
    def test_d_below_one_rejected_before_warning(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="d must"):
                small_grid(d=d)

    @pytest.mark.parametrize("kwargs", [
        {"d": float("nan")}, {"d": 256.5}, {"trials": 2.5},
        {"trials": float("nan")}, {"threads": float("nan")}, {"threads": 1.5},
    ])
    def test_counts_must_be_whole_numbers(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be a whole number >= 1"):
                small_grid(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"m_values": (2.5,)}, {"m_values": (16, float("nan"))},
        {"m_values": (0,)}, {"m_values": (True,)}, {"s_values": (1.5,)},
        {"s_values": (-1,)}, {"s_values": ("2",)}, {"s_values": (False,)},
    ])
    def test_cells_must_be_whole_numbers(self, kwargs):
        # ExperimentGrid("omp", 16, (2.5,), (1,)) used to build, and its
        # first trial raised TypeError from stream_seed
        with pytest.raises(ValueError, match="must be a whole number >="):
            small_grid(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"ensemble": "foo"}, "unknown ensemble family"),
        ({"ensemble": "partial_dct", "m_values": (64,)}, "rows <= cols"),
        ({"s_values": (2, 33)}, "sparsity must lie in"),
        ({"signal_kind": "compressible", "signal_p": 2.0}, "decay exponent"),
        ({"signal_kind": "wavy"}, "unknown signal kind"),
        ({"noise_norm": float("nan")}, "noise level"),
        ({"noise_norm": -0.5}, "noise level"),
        ({"noise_fraction": float("nan")}, "noise level"),
        ({"noise_fraction": -0.1}, "noise level"),
        ({"noise_norm": float("inf")}, "noise level"),
    ], ids=["ensemble", "dct-m-above-d", "s-above-d", "compressible-p",
            "signal-kind", "nan-norm", "negative-norm", "nan-fraction",
            "negative-fraction", "inf-norm"])
    def test_settings_a_trial_rejects_are_rejected_at_build(self, kwargs,
                                                            match):
        # each built, and the first trial raised from its spec
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                small_grid(**kwargs)

    def test_whole_float_cells_run_the_int_cells(self):
        grid = small_grid(m_values=[16.0], s_values=np.array([2.0]), trials=2)
        assert grid.m_values == (16,) and grid.s_values == (2,)
        assert all(type(v) is int for v in grid.m_values + grid.s_values)
        assert (rows_to_csv(bench.run_phase_transition(grid))
                == rows_to_csv(bench.run_phase_transition(small_grid(trials=2))))

    @pytest.mark.parametrize("seed", [2.5, "5", float("nan"), None],
                             ids=["2.5", "str", "nan", "None"])
    def test_seed_must_be_a_whole_number(self, seed):
        # 2.5 constructed, and the first trial raised TypeError in stream_seed
        with pytest.raises(ValueError, match="^seed must be a whole number$"):
            small_grid(seed=seed)

    def test_whole_float_seed_runs_the_int_seed(self):
        grid = small_grid(seed=5.0, trials=2)
        assert type(grid.seed) is int
        assert (rows_to_csv(bench.run_phase_transition(grid))
                == rows_to_csv(bench.run_phase_transition(small_grid(trials=2))))

    @pytest.mark.parametrize("threshold", [-1.0, -1e-12, float("nan")])
    def test_threshold_below_zero_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            small_grid(success_threshold=threshold)

    def test_threshold_zero_counts_exact_recoveries(self):
        grid = small_grid(s_values=(0,), trials=2, success_threshold=0.0)
        assert bench.run_phase_transition(grid)[0]["success_count"] == 2

    def test_trial_seed_ignores_grid_shape(self):
        # adding cells or algorithms never perturbs an existing trial seed
        assert stream_seed(1, "omp", 2, 16, 0) == stream_seed(1, "omp", 2, 16, 0)
        assert stream_seed(1, "omp", 2, 16, 0) != stream_seed(1, "bp", 2, 16, 0)
        assert stream_seed(1, "omp", 2, 16, 0) != stream_seed(1, "omp", 2, 16, 1)


class TestPhaseTransition:
    def test_zero_sparsity_always_succeeds(self):
        cells = bench.run_phase_transition(
            small_grid(algo="cosamp", s_values=(0,), trials=1))
        assert cells[0]["success_count"] == 1

    def test_success_monotone_in_m(self):
        grid = small_grid(d=64, m_values=(16, 24, 32, 48), s_values=(4,),
                          trials=50)
        cells = bench.run_phase_transition(grid)
        rates = [c["success_count"] / c["trials"] for c in cells]
        slack = 3 * np.sqrt(0.25 / grid.trials)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))

    def test_thread_count_does_not_change_output(self):
        rows1 = bench.run_phase_transition(small_grid(trials=6, threads=1))
        rows4 = bench.run_phase_transition(small_grid(trials=6, threads=4))
        assert rows_to_csv(rows1) == rows_to_csv(rows4)

    def test_trials_run_in_order_in_the_calling_thread(self):
        calls = []

        def recorder(grid, s, m, trial):
            calls.append((threading.get_ident(), trial))
            return trial

        got = bench._map_trials(small_grid(trials=6, threads=4), 2, 16,
                                worker=recorder)
        assert got == list(range(6))
        assert calls == [(threading.get_ident(), t) for t in range(6)]

    def test_all_algorithms_run(self):
        for algo in bench.ALGORITHMS:
            cells = bench.run_phase_transition(
                small_grid(algo=algo, trials=2, m_values=(16,), s_values=(1,)))
            assert cells[0]["trials"] == 2

    def test_rows_exclude_runtime(self):
        cells = bench.run_phase_transition(small_grid(trials=2))
        assert "runtime" not in rows_to_csv(cells)


class TestTrend:
    def test_level_zero_reports_max_s(self):
        grid = small_grid(s_values=(1, 2, 3), trials=2)
        rows = bench.run_trend(grid, level=0.0)
        assert rows[0]["max_s"] == 3

    @pytest.mark.parametrize("level", [-0.1, 1.5, 5.0, float("nan")])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="level"):
            bench.run_trend(small_grid(trials=1), level=level)

    def test_degenerate_single_trial(self):
        grid = small_grid(s_values=(1, 2), trials=1)
        rows = bench.run_trend(grid, level=1.0)
        cells = {c["s"]: c["success_count"]
                 for c in bench.run_phase_transition(grid)}
        expected = max((s for s, n in cells.items() if n == 1), default=0)
        assert rows[0]["max_s"] == expected

    def test_bp_dominates_omp(self):
        # paired comparison on the same seeds: the convex trend reaches at
        # least the greedy trend
        common = dict(d=64, m_values=(32,), s_values=(2, 4, 6, 8, 10),
                      trials=25, seed=9)
        bp = bench.run_trend(ExperimentGrid(algorithm="bp", **common))
        om = bench.run_trend(ExperimentGrid(algorithm="omp", **common))
        assert bp[0]["max_s"] >= om[0]["max_s"]


class TestNoiseStudy:
    def test_needs_noise(self):
        with pytest.raises(ValueError):
            bench.run_noise_study(small_grid())

    @pytest.mark.parametrize("mode", ["measurement", "signal"])
    def test_zero_sparsity_ratio_is_an_error(self, mode):
        grid = small_grid(s_values=(1, 0), trials=2, noise_fraction=0.1,
                          noise_mode=mode)
        with pytest.raises(ValueError, match="s=0, m=16"):
            bench.run_noise_study(grid)

    def test_measurement_ratio_bounded(self):
        grid = small_grid(algo="cosamp", d=128, m_values=(96,), s_values=(2,),
                          trials=10, noise_norm=0.5)
        rows = bench.run_noise_study(grid)
        assert rows[0]["mean_error_ratio"] <= 20.0

    def test_ratio_stable_under_noise_doubling(self):
        base = dict(algorithm="cosamp", d=64, m_values=(48,), s_values=(2,),
                    trials=10, seed=3)
        r1 = bench.run_noise_study(ExperimentGrid(noise_norm=0.25, **base))
        r2 = bench.run_noise_study(ExperimentGrid(noise_norm=0.5, **base))
        ratio = r2[0]["mean_error_ratio"] / r1[0]["mean_error_ratio"]
        assert 0.5 <= ratio <= 2.0

    def test_signal_perturbation_mode(self):
        grid = small_grid(algo="romp", d=64, m_values=(48,), s_values=(3,),
                          trials=5, noise_norm=0.1, noise_mode="signal")
        rows = bench.run_noise_study(grid)
        assert rows[0]["noise_mode"] == "signal"
        assert np.isfinite(rows[0]["mean_error_ratio"])


class TestIterationStudy:
    def test_caps_respected_noiseless(self):
        for algo in ("romp", "cosamp"):
            grid = small_grid(algo=algo, d=64, m_values=(48,),
                              s_values=(1, 2, 4), trials=10)
            rows = bench.run_iteration_study(grid)
            assert all(r["violations"] == 0 for r in rows)

    def test_single_coordinate_single_iteration(self):
        for algo in ("romp", "cosamp"):
            grid = small_grid(algo=algo, d=64, m_values=(48,), s_values=(1,),
                              trials=10)
            rows = bench.run_iteration_study(grid)
            assert rows[0]["mean_iterations"] == 1.0

    def test_flat_signals_need_few_iterations(self):
        grid = small_grid(algo="romp", d=256, m_values=(128,),
                          s_values=(4, 8), trials=10)
        rows = bench.run_iteration_study(grid)
        assert all(r["mean_iterations"] <= 4.0 for r in rows)

    def test_romp_cap_is_s_rounds(self):
        # romp stops after s rounds, so the reported cap is s
        grid = small_grid(algo="romp", d=128, m_values=(64,), s_values=(4, 8),
                          trials=20, signal_kind="compressible")
        for r in bench.run_iteration_study(grid):
            assert r["cap"] == r["s"]
            assert r["max_iterations"] <= r["s"]

    def test_compressible_romp_iterations(self):
        grid = small_grid(algo="romp", d=256, m_values=(128,), s_values=(8,),
                          trials=10, signal_kind="compressible", signal_p=0.5)
        rows = bench.run_iteration_study(grid)
        assert rows[0]["mean_iterations"] <= 10.0


class TestKaczmarzStudy:
    def test_noiseless_final_error_bound(self):
        rows = bench.run_kaczmarz_study(40, 10, trials=10, iters=400,
                                        noise_fraction=0.0, seed=1)
        for r in rows:
            bound = 10 * (1 - 1 / r["R"]) ** (400 / 2)
            assert r["final_error"] <= max(bound, 1e-9) or r["final_error"] < 1e-6

    def test_threshold_mostly_respected(self):
        rows = bench.run_kaczmarz_study(60, 12, trials=20, iters=1500,
                                        noise_fraction=0.1, seed=2)
        frac = np.mean([r["final_error"] <= r["threshold"] for r in rows])
        assert frac >= 0.8

    def test_curve_mode(self):
        rows = bench.run_kaczmarz_study(30, 6, trials=2, iters=100,
                                        noise_fraction=0.05, seed=3,
                                        curve=True, log_stride=25)
        assert {r["iteration"] for r in rows if r["trial"] == 0} == {0, 25, 50, 75, 100}

    def test_whole_float_seed_runs_the_int_seed(self):
        rows = bench.run_kaczmarz_study(30, 6, 2, 100, 0.05, seed=3.0)
        assert rows_to_csv(rows) == rows_to_csv(
            bench.run_kaczmarz_study(30, 6, 2, 100, 0.05, seed=3))
        assert all(type(r["seed"]) is int for r in rows)

    @pytest.mark.parametrize("seed", [2.5, np.nan, "3"])
    def test_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            bench.run_kaczmarz_study(10, 5, 1, 10, 0.0, seed)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            bench.run_kaczmarz_study(5, 10, 1, 10, 0.0, 0)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            bench.run_kaczmarz_study(10, 5, 0, 10, 0.0, 0)

    @pytest.mark.parametrize("trials", [2.5, float("nan")])
    def test_trials_must_be_a_whole_number(self, trials):
        with pytest.raises(ValueError, match="trials must be a whole number"):
            bench.run_kaczmarz_study(10, 5, trials, 10, 0.0, 0)


class TestRwBoundsStudy:
    def test_noiseless_one_iteration(self):
        rows = bench.run_rw_bounds(10.0, [0.0], [0.2])
        assert rows[0]["iterations"] == 1

    def test_iterations_monotone_in_delta(self):
        rows = bench.run_rw_bounds(10.0, [0.1], [0.05, 0.1, 0.2, 0.3])
        its = [r["iterations"] for r in rows if r["hypothesis_ok"]]
        assert its == sorted(its)

    def test_iterations_monotone_in_eps(self):
        rows = bench.run_rw_bounds(10.0, [0.01, 1.0], [0.05])
        small, large = rows[0], rows[1]
        assert small["hypothesis_ok"] and large["hypothesis_ok"]
        assert small["iterations"] <= large["iterations"]

    def test_hypothesis_violations_marked(self):
        rows = bench.run_rw_bounds(0.5, [1.0], [0.3])
        assert rows[0]["hypothesis_ok"] is False

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            bench.run_rw_bounds(10.0, [0.1, -1.0], [0.2])

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_not_positive_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            bench.run_rw_bounds(10.0, [0.1], [0.2], tol=tol)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_nan_mu_rejected(self, eps):
        with pytest.raises(ValueError, match="mu"):
            bench.run_rw_bounds(float("nan"), [eps], [0.2])


class TestSerialization:
    def test_csv_deterministic(self):
        grid = small_grid(trials=4)
        a = rows_to_csv(bench.run_phase_transition(grid))
        b = rows_to_csv(bench.run_phase_transition(grid))
        assert a == b

    def test_jsonl_parses(self):
        import json

        rows = bench.run_rw_bounds(10.0, [0.1], [0.1])
        for line in rows_to_jsonl(rows).splitlines():
            json.loads(line)

    def test_rows_carry_cell_key(self):
        row = bench.run_phase_transition(small_grid(trials=2))[0]
        for key in ("algo", "d", "m", "s", "trials", "seed"):
            assert key in row
