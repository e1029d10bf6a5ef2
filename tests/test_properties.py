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


def _negative(rng):
    return repr(-0.01 - float(rng.uniform(1)[0]))


# the settings each command starts from
GRID_BASE = {"d": "16", "m": "8", "s": "1", "trials": "2",
             "noise_fraction": "0.1"}
RW_BASE = {"mu": "10", "eps": "0.1", "delta": "0.2"}
# (commands, their settings, a draw of invalid settings that replace them)
INVALID = (
    (GRID_COMMANDS, GRID_BASE,
     lambda rng: {"threads": str(-int(rng.uniform(1)[0] * 4))}),
    (GRID_COMMANDS, GRID_BASE,
     lambda rng: {"noise_norm": "0.5",
                  "noise_mode": _pick(rng, ("measurement", "signal"))}),
    (("rwbounds",), RW_BASE, lambda rng: {"eps": "0.1," + _negative(rng)}),
    (("rwbounds",), RW_BASE,
     lambda rng: {"tol": _pick(rng, ("0", _negative(rng)))}),
    (("trend",), GRID_BASE,
     lambda rng: {"level": _pick(rng, (
         _negative(rng), repr(1.01 + 4 * float(rng.uniform(1)[0]))))}),
    (GRID_COMMANDS, GRID_BASE,
     lambda rng: {"threshold": _pick(rng, (_negative(rng), "nan"))}),
    (("rwbounds",), RW_BASE, lambda rng: {"mu": "nan"}),
)


def test_invalid_setting_is_exit_2_battery(capsys, tmp_path):
    rng = CounterRng(stream_seed("invalid-setting"))
    cfg = tmp_path / "run.cfg"
    drawn = set()
    for _ in range(48):
        kind = _pick(rng, INVALID)
        commands, base, draw = kind
        command = _pick(rng, commands)
        bad = draw(rng)
        given = {k: v for k, v in base.items() if k not in bad}
        argv = [command]
        form = _pick(rng, ("flag", "config"))
        if form == "flag":
            given.update(bad)
        else:
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in bad.items()))
            argv += ["--config", str(cfg)]
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in given.items()]
        code = main(argv)
        assert (code, capsys.readouterr().out) == (2, ""), argv
        drawn.add((INVALID.index(kind), form))
    assert len(drawn) == 2 * len(INVALID)    # every kind, as flag and config


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
