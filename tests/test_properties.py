"""Seeded property batteries over the command line and the solvers' input
checks, drawn from the library's own ``CounterRng``."""

import numpy as np
import pytest

from sparsekit.cli import main
from sparsekit.convex import RwConfig, bp_denoise, bp_equality, reweighted_l1
from sparsekit.ensembles import EnsembleSpec, SignalSpec, gen_matrix, gen_signal
from sparsekit.greedy import romp, stomp
from sparsekit.kaczmarz import rk_solve
from sparsekit.rng import CounterRng, stream_seed

GRID_COMMANDS = ("phase", "trend", "noise", "iters")
# integer flags whose value every grid command echoes in a column of the
# same name, and the abbreviation argparse resolves to each
INT_FLAGS = {"--trials": "--tri", "--seed": "--se"}


def _pick(rng, options):
    return options[int(rng.uniform(1)[0] * len(options))]


def test_flag_beats_config_battery(capsys, tmp_path):
    rng = CounterRng(stream_seed("flag-over-config"))
    cfg = tmp_path / "run.cfg"
    for _ in range(24):
        command = _pick(rng, GRID_COMMANDS)
        flag = _pick(rng, tuple(INT_FLAGS))
        form = _pick(rng, ("space", "equals", "abbreviated"))
        from_config = 1 + int(rng.uniform(1)[0] * 4)
        from_flag = from_config + 1 + int(rng.uniform(1)[0] * 4)
        cfg.write_text(f"{flag[2:]} = {from_config}\n")
        given = {"space": (flag, str(from_flag)),
                 "equals": (f"{flag}={from_flag}",),
                 "abbreviated": (INT_FLAGS[flag], str(from_flag))}[form]
        cell = (command, "--d", "16", "--m", "8", "--s", "1",
                "--noise-norm", "0.1", "--config", str(cfg))
        for argv, want in ((cell, from_config),
                           ((*cell, *given), from_flag)):
            code = main(list(argv))
            out = capsys.readouterr().out.splitlines()
            column = out[0].split(",").index(flag[2:])
            assert code == 0, argv
            assert all(int(line.split(",")[column]) == want
                       for line in out[1:]), argv


SOLVERS = {
    "stomp": stomp,
    "romp": lambda A, u: romp(A, u, 2),
    "bp_equality": bp_equality,
    "bp_denoise": lambda A, u: bp_denoise(A, u, 0.1),
    "reweighted_l1": lambda A, u: reweighted_l1(A, u, RwConfig(max_iters=1)),
    "rk_solve": lambda A, u: rk_solve(A, u, np.zeros(A.shape[1]), 10),
}


@pytest.mark.parametrize("name", SOLVERS)
def test_non_finite_samples_battery(name):
    rng = CounterRng(stream_seed("non-finite", name))
    A = gen_matrix(EnsembleSpec("gaussian", 12, 24, seed=5))
    u_clean = A @ gen_signal(SignalSpec(24, 2, seed=6))
    for _ in range(12):
        u = u_clean.copy()
        u[int(rng.uniform(1)[0] * u.size)] = _pick(
            rng, (np.nan, np.inf, -np.inf))
        with pytest.raises(ValueError, match="finite"):
            SOLVERS[name](A, u)
