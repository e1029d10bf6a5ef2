import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsekit import bench, linalg
from sparsekit.cli import build_parser, main
from sparsekit.convex import SolverError
from sparsekit.ensembles import EnsembleSpec, SignalSpec, gen_matrix, gen_signal, save_matrix_csv, save_vector_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPhase:
    def test_runs_and_emits_csv(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--algo", "omp", "--d", "32",
                               "--m", "16", "--s", "1,2", "--trials", "4",
                               "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("algo,d,m,s,trials,seed,success_count")
        assert len(lines) == 3

    def test_byte_identical_reruns(self, capsys):
        args = ("phase", "--algo", "romp", "--d", "32", "--m", "8:16:8",
                "--s", "2", "--trials", "5", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_byte_identical_across_threads(self, capsys):
        base = ("phase", "--algo", "cosamp", "--d", "32", "--m", "16",
                "--s", "1,2", "--trials", "6", "--seed", "2")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--threads", "3")
        assert out1 == out2

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--algo", "omp", "--d", "16",
                               "--m", "8", "--s", "1", "--trials", "2",
                               "--format", "jsonl")
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "phase.csv"
        code, out, _ = run_cli(capsys, "phase", "--algo", "omp", "--d", "16",
                               "--m", "8", "--s", "1", "--trials", "2",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("algo,")

    def test_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--algo", "omp", "--d", "32",
                               "--m", "8:24:8", "--s", "1", "--trials", "2")
        ms = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert ms == ["8", "16", "24"]

    @pytest.mark.parametrize("command", ["phase", "trend", "noise", "iters"])
    def test_empty_range_is_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--d", "32", "--m", "8:4",
                                 "--s", "1", "--trials", "2",
                                 "--noise-norm", "0.1")
        assert code == 2 and out == "" and "non-empty" in err

    def test_optimized_interpreter_gives_same_bytes(self):
        # ``python -O`` strips asserts; no check may depend on one
        argv = ["-m", "sparsekit", "phase", "--algo", "cosamp", "--d", "64",
                "--m", "24", "--s", "4", "--trials", "3", "--seed", "7"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, check=True, timeout=120).stdout
            for flags in ([], ["-O"]))
        assert plain.startswith(b"algo,") and plain == optimized


class TestConfigFile:
    PHASE = ("phase", "--algo", "omp", "--d", "32", "--s", "1", "--seed", "1")

    def test_config_sets_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algo = romp\ntrials = 4\nd = 32\n")
        _, out, _ = run_cli(capsys, "phase", "--config", str(cfg), "--m", "16",
                            "--s", "2", "--seed", "1")
        assert out.splitlines()[1].startswith("romp,32,16,2,4,1")
        _, out2, _ = run_cli(capsys, "phase", "--config", str(cfg), "--m", "16",
                             "--s", "2", "--seed", "1", "--trials", "2")
        assert out2.splitlines()[1].startswith("romp,32,16,2,2,1")

    def test_missing_config_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "phase", "--config",
                               str(tmp_path / "nope.cfg"), "--m", "8", "--s", "1")
        assert code == 2 and "config error" in err

    def test_unknown_key_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for key in ("bogus", "command"):
            cfg.write_text(f"{key} = 1\n")
            code, _, err = run_cli(capsys, "phase", "--config", str(cfg),
                                   "--m", "8", "--s", "1")
            assert code == 2 and "config error" in err and key in err

    @pytest.mark.parametrize("flags, column, value", [
        (("--m", "16"), 2, "16"),
        (("--m=16",), 2, "16"),
        (("--tri", "3"), 4, "3"),
    ], ids=["space", "equals", "abbreviated"])
    def test_every_flag_form_beats_config(self, capsys, tmp_path, flags,
                                          column, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 24\ntrials = 4\n")
        code, out, _ = run_cli(capsys, *self.PHASE, "--config", str(cfg),
                               *flags)
        assert code == 0
        assert out.splitlines()[1].split(",")[column] == value

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 1:2:3:4\n")
        with pytest.raises(SystemExit) as exc:
            main([*self.PHASE, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage:" in err and "bad range" in err
        assert "Traceback" not in err

    def test_config_supplies_required_ric_flags(self, capsys, tmp_path):
        cfg = tmp_path / "ric.cfg"
        cfg.write_text("d = 10\nm = 8\nr = 2\n")
        code, from_config, err = run_cli(capsys, "ric", "--config", str(cfg),
                                         "--seed", "5")
        assert code == 0, err
        _, from_flags, _ = run_cli(capsys, "ric", "--d", "10", "--m", "8",
                                   "--r", "2", "--seed", "5")
        assert from_config == from_flags

    def test_config_supplies_required_recover_flags(self, capsys, tmp_path):
        amat, sig = tmp_path / "A.csv", tmp_path / "x.csv"
        save_matrix_csv(amat, gen_matrix(EnsembleSpec("gaussian", 12, 24,
                                                      seed=9)), seed=9)
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)), seed=10)
        cfg = tmp_path / "recover.cfg"
        cfg.write_text(f"matrix = {amat}\nsignal = {sig}\n")
        code, from_config, err = run_cli(capsys, "recover", "--config",
                                         str(cfg), "--algo", "cosamp")
        assert code == 0, err
        _, from_flags, _ = run_cli(capsys, "recover", "--matrix", str(amat),
                                   "--signal", str(sig), "--algo", "cosamp")
        assert from_config == from_flags

    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# one phase cell\n\nm = 16   # measurements\n"
                       "   \ntrials = 3\n")
        code, from_config, err = run_cli(capsys, *self.PHASE, "--config",
                                         str(cfg))
        assert code == 0, err
        _, from_flags, _ = run_cli(capsys, *self.PHASE, "--m", "16",
                                   "--trials", "3")
        assert from_config == from_flags

    def test_line_without_equals_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# header\n\nm = 16\ntrials 3\n")
        code, out, err = run_cli(capsys, *self.PHASE, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config error: line 4: expected key = value" in err

    def test_store_true_key(self, capsys, tmp_path):
        cfg = tmp_path / "signs.cfg"
        cfg.write_text("random-signs = yes\n")
        cell = (*self.PHASE, "--m", "8", "--s", "4", "--trials", "3")
        _, from_config, _ = run_cli(capsys, *cell, "--config", str(cfg))
        _, from_flag, _ = run_cli(capsys, *cell, "--random-signs")
        _, without, _ = run_cli(capsys, *cell)
        assert from_config == from_flag != without


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_leaks_no_state(self, capsys, tmp_path):
        plain = ("phase", "--algo", "omp", "--d", "32", "--m", "16",
                 "--s", "1,2", "--trials", "4", "--seed", "3")
        code, first, _ = run_cli(capsys, *plain)
        assert code == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algo = romp\ntrials = 2\nrandom-signs = true\n")
        code, configured, _ = run_cli(capsys, "phase", "--config", str(cfg),
                                      "--d", "32", "--m", "16", "--s", "2")
        assert code == 0 and configured.splitlines()[1].startswith("romp,")
        code, out, _ = run_cli(capsys, *plain, "--threshold", "-1")
        assert code == 2 and out == ""
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--algo", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, again, _ = run_cli(capsys, *plain)
        assert code == 0 and again == first


class TestOtherSubcommands:
    def test_trend(self, capsys):
        code, out, _ = run_cli(capsys, "trend", "--algo", "omp", "--d", "32",
                               "--m", "16", "--s", "1,2,3", "--trials", "4",
                               "--level", "0.5")
        assert code == 0 and "max_s" in out.splitlines()[0]

    def test_noise(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--algo", "cosamp", "--d", "32",
                               "--m", "24", "--s", "2", "--trials", "3",
                               "--noise-norm", "0.2")
        assert code == 0 and "mean_error_ratio" in out.splitlines()[0]

    @pytest.mark.parametrize("mode", ["measurement", "signal"])
    def test_noise_zero_sparsity_is_exit_2(self, capsys, mode):
        code, out, err = run_cli(capsys, "noise", "--d", "32", "--m", "16",
                                 "--s", "0,1", "--trials", "2",
                                 "--noise-fraction", "0.1",
                                 "--noise-mode", mode)
        assert code == 2 and out == "" and "s=0" in err

    def test_iters(self, capsys):
        code, out, _ = run_cli(capsys, "iters", "--algo", "romp", "--d", "32",
                               "--m", "24", "--s", "1,2", "--trials", "3")
        assert code == 0 and "violations" in out.splitlines()[0]

    def test_cosamp_iters_cap_at_zero_sparsity(self, capsys):
        # s = 0 runs no solver, and its row still reports the 6(s+1) cap
        code, out, err = run_cli(capsys, "iters", "--algo", "cosamp", "--d",
                                 "32", "--m", "24", "--s", "0,2",
                                 "--trials", "2")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()]
        cap = rows[0].index("cap")
        assert [r[cap] for r in rows[1:]] == ["6", "18"]

    def test_kaczmarz(self, capsys):
        code, out, _ = run_cli(capsys, "kaczmarz", "--m", "20", "--n", "5",
                               "--trials", "2", "--iters", "100",
                               "--noise-fraction", "0.1", "--seed", "4")
        assert code == 0
        assert "threshold" in out.splitlines()[0]
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("flag, value", [("--log-stride", "0"),
                                             ("--trials", "0")])
    def test_kaczmarz_bad_count_is_exit_2(self, capsys, flag, value):
        argv = {"--m": "10", "--n": "5", "--iters": "10", "--trials": "1"}
        argv[flag] = value
        code, out, err = run_cli(capsys, "kaczmarz",
                                 *(x for kv in argv.items() for x in kv))
        assert code == 2 and out == "" and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("argv", [
        ("phase", "--algo", "omp", "--d", "32", "--m", "16", "--s", "2",
         "--trials", "1", "--noise-norm", "nan"),
        ("noise", "--algo", "bp", "--d", "32", "--m", "16", "--s", "2",
         "--trials", "1", "--noise-fraction", "inf"),
        ("kaczmarz", "--m", "10", "--n", "5", "--iters", "10", "--trials", "1",
         "--noise-fraction", "nan"),
    ], ids=["phase-nan", "noise-inf", "kaczmarz-nan"])
    def test_non_finite_noise_level_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "noise level" in err

    def test_rwbounds(self, capsys):
        code, out, _ = run_cli(capsys, "rwbounds", "--mu", "10",
                               "--eps", "0.1", "--delta", "0.1,0.2")
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_rwbounds_negative_mu_violates_hypothesis(self, capsys):
        code, out, _ = run_cli(capsys, "rwbounds", "--mu", "-5",
                               "--eps", "0,0.1", "--delta", "0.2")
        rows = out.strip().splitlines()
        assert code == 0 and len(rows) == 3
        assert all(r.endswith(",false") for r in rows[1:])

    @pytest.mark.parametrize("delta", ["nan", "0.1,nan"])
    def test_rwbounds_nan_delta_is_exit_2(self, capsys, delta):
        # a NaN delta used to print a row holding nan and exit 0
        code, out, err = run_cli(capsys, "rwbounds", "--mu", "10",
                                 "--eps", "0.1", "--delta", delta)
        assert code == 2 and out == "" and "delta" in err

    def test_ric_json(self, capsys):
        code, out, _ = run_cli(capsys, "ric", "--d", "10", "--m", "8",
                               "--r", "2", "--seed", "5")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"r", "delta", "mode", "witness"}
        assert rep["mode"] == "exact" and len(rep["witness"]) == 2

    @pytest.mark.parametrize("command", ["ric", "recover"])
    def test_json_commands_have_no_format_flag(self, capsys, command):
        # both always print one JSON object
        argv = {"ric": ("--d", "10", "--m", "8", "--r", "2"),
                "recover": ("--matrix", "A.csv", "--signal", "x.csv")}
        with pytest.raises(SystemExit) as exc:
            main([command, *argv[command], "--format", "jsonl"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_ric_cap_exceeded_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ric", "--d", "40", "--m", "20",
                               "--r", "10", "--cap", "100")
        assert code == 2 and "monte_carlo" in err

    def test_ric_monte_carlo(self, capsys):
        code, out, _ = run_cli(capsys, "ric", "--d", "30", "--m", "15",
                               "--r", "3", "--mode", "monte_carlo",
                               "--trials", "50")
        assert code == 0 and json.loads(out)["mode"] == "monte_carlo"


class TestNumericalFailureExit:
    """Exit code 3: a numerical failure, after any output already made."""

    def test_iteration_cap_violation_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "iteration_cap", lambda algorithm, s: 0)
        code, out, err = run_cli(capsys, "iters", "--algo", "cosamp", "--d",
                                 "32", "--m", "24", "--s", "2",
                                 "--trials", "3")
        assert code == 3
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["cap"] == "0" and int(row["violations"]) >= 1
        assert "iteration cap violated" in err

    def test_solver_error_is_exit_3(self, capsys, monkeypatch):
        def stalled(A, u):
            raise SolverError("interior-point line search stalled")

        monkeypatch.setattr(bench, "bp_equality", stalled)
        code, out, err = run_cli(capsys, "phase", "--algo", "bp", "--d", "16",
                                 "--m", "8", "--s", "1", "--trials", "2")
        assert code == 3 and out == ""
        assert "numerical failure: interior-point line search stalled" in err
        assert "Traceback" not in err

    def test_jacobi_sweep_cap_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg._jacobi_eigenvalues, "__defaults__",
                            (1e-15, 1))
        code, out, err = run_cli(capsys, "kaczmarz", "--m", "20", "--n", "5",
                                 "--trials", "1", "--iters", "10")
        assert code == 3 and out == ""
        assert "numerical failure: cyclic Jacobi still rotating" in err


class TestRecover:
    def test_roundtrip(self, capsys, tmp_path):
        A = gen_matrix(EnsembleSpec("gaussian", 12, 24, seed=9))
        x = gen_signal(SignalSpec(24, 2, seed=10))
        amat = tmp_path / "A.csv"
        sig = tmp_path / "x.csv"
        save_matrix_csv(amat, A, seed=9)
        save_vector_csv(sig, x, seed=10)
        code, out, _ = run_cli(capsys, "recover", "--matrix", str(amat),
                               "--signal", str(sig), "--algo", "omp")
        assert code == 0
        rep = json.loads(out)
        assert rep["success"] is True
        assert rep["support"] == [int(i) for i in np.flatnonzero(x)]

    def test_noise_norm_is_seeded(self, capsys, tmp_path):
        amat, sig = tmp_path / "A.csv", tmp_path / "x.csv"
        save_matrix_csv(amat, gen_matrix(EnsembleSpec("gaussian", 12, 24,
                                                      seed=9)), seed=9)
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)), seed=10)
        clean = ("recover", "--matrix", str(amat), "--signal", str(sig),
                 "--algo", "cosamp")
        noisy = clean + ("--noise-norm", "0.2")
        code, first, err = run_cli(capsys, *noisy)
        assert code == 0, err
        _, rerun, _ = run_cli(capsys, *noisy)
        _, reseeded, _ = run_cli(capsys, *noisy, "--seed", "1")
        _, noiseless, _ = run_cli(capsys, *clean)
        assert rerun == first
        assert reseeded != first
        assert json.loads(first)["error"] != json.loads(noiseless)["error"]

    def test_dimension_mismatch_is_exit_2(self, capsys, tmp_path):
        A = gen_matrix(EnsembleSpec("gaussian", 4, 8, seed=1))
        amat = tmp_path / "A.csv"
        sig = tmp_path / "x.csv"
        save_matrix_csv(amat, A)
        save_vector_csv(sig, np.ones(5))
        code, _, err = run_cli(capsys, "recover", "--matrix", str(amat),
                               "--signal", str(sig))
        assert code == 2

    def test_matrix_short_of_its_header_is_exit_2(self, capsys, tmp_path):
        amat, sig = tmp_path / "A.csv", tmp_path / "x.csv"
        save_matrix_csv(amat, gen_matrix(EnsembleSpec("gaussian", 12, 24,
                                                      seed=9)), seed=9)
        amat.write_text("\n".join(amat.read_text().splitlines()[:-1]) + "\n")
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)), seed=10)
        code, out, err = run_cli(capsys, "recover", "--matrix", str(amat),
                                 "--signal", str(sig))
        assert code == 2 and out == ""
        assert "config error:" in err and "header promises 12x24, file holds (11, 24)" in err

    def test_negative_sparsity_is_exit_2(self, capsys, tmp_path):
        # omp with s < 1 used to return an all-zero estimate and exit 0
        A = gen_matrix(EnsembleSpec("gaussian", 12, 24, seed=9))
        amat = tmp_path / "A.csv"
        sig = tmp_path / "x.csv"
        save_matrix_csv(amat, A, seed=9)
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)), seed=10)
        code, out, err = run_cli(capsys, "recover", "--matrix", str(amat),
                                 "--signal", str(sig), "--algo", "omp",
                                 "--s", "-2")
        assert code == 2 and out == "" and "s must be a whole number >= 1" in err

    @pytest.mark.parametrize("algo, s", [("bp", "0"), ("bp", "-3"),
                                         ("stomp", "0"), ("rwl1", "-1")])
    def test_sparsity_below_one_is_exit_2(self, capsys, tmp_path, algo, s):
        # bp, stomp and rwl1 never read s: --s 0 used to print a zero
        # estimate and exit 0, and --s -3 was echoed back
        amat, sig = tmp_path / "A.csv", tmp_path / "x.csv"
        save_matrix_csv(amat, gen_matrix(EnsembleSpec("gaussian", 12, 24,
                                                      seed=9)), seed=9)
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)), seed=10)
        code, out, err = run_cli(capsys, "recover", "--matrix", str(amat),
                                 "--signal", str(sig), "--algo", algo,
                                 "--s", s)
        assert code == 2 and out == "" and "s must be a whole number >= 1" in err

    @pytest.mark.parametrize("level", ["nan", "-1"])
    def test_bad_noise_level_is_exit_2(self, capsys, tmp_path, level):
        amat = tmp_path / "A.csv"
        sig = tmp_path / "x.csv"
        save_matrix_csv(amat,
                        gen_matrix(EnsembleSpec("gaussian", 12, 24, seed=9)))
        save_vector_csv(sig, gen_signal(SignalSpec(24, 2, seed=10)))
        code, out, err = run_cli(capsys, "recover", "--matrix", str(amat),
                                 "--signal", str(sig), "--noise-norm", level)
        assert code == 2 and out == "" and "noise level" in err

    def test_non_finite_signal_is_exit_2(self, capsys, tmp_path):
        A = gen_matrix(EnsembleSpec("gaussian", 12, 24, seed=9))
        x = gen_signal(SignalSpec(24, 2, seed=10))
        x[3] = np.nan
        amat = tmp_path / "A.csv"
        sig = tmp_path / "x.csv"
        save_matrix_csv(amat, A, seed=9)
        save_vector_csv(sig, x, seed=10)
        code, out, err = run_cli(capsys, "recover", "--matrix", str(amat),
                                 "--signal", str(sig), "--algo", "cosamp")
        assert code == 2 and out == "" and "finite" in err
