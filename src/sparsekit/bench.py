"""Monte-Carlo benchmark harness: phase transitions, recovery trends,
noise studies, iteration counts, Kaczmarz thresholds, and the reweighted
error-bound table.

Every trial draws a fresh matrix and signal from a seed derived as
``stream_seed(master, algorithm, s, m, trial)``, so adding algorithms or
reordering cells never perturbs existing results.  Trials run one at a
time in the calling thread, in trial order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kaczmarz  # kaczmarz.rk_theory: perfbench traces module attributes
from .convex import RwConfig, bp_denoise, bp_equality, reweighted_l1, rw_error_recursion
from .ensembles import (
    EnsembleSpec,
    NoiseSpec,
    SignalSpec,
    fast_adjoint,
    gen_matrix,
    gen_noise,
    gen_signal,
)
from .greedy import CosampConfig, StompConfig, cosamp, cosamp_cap, omp, prune, romp, stomp
from .kaczmarz import rk_solve
from .linalg import as_count
from .rng import as_seed, stream_seed

ALGORITHMS = ("bp", "omp", "stomp", "romp", "cosamp", "rwl1")

SUCCESS_THRESHOLD = 1e-5


@dataclass(frozen=True)
class ExperimentGrid:
    """Cross product of (s, m) cells for one algorithm at fixed d."""

    algorithm: str
    d: int
    m_values: tuple
    s_values: tuple
    trials: int = 100
    seed: int = 0
    ensemble: str = "gaussian"
    signal_kind: str = "flat"
    signal_p: float = 0.5
    random_signs: bool = False
    noise_norm: float = 0.0
    noise_fraction: float = 0.0
    noise_mode: str = "measurement"
    success_threshold: float = SUCCESS_THRESHOLD
    threads: int = 1            # accepted for compatibility; trials run serially

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("d", "trials", "threads"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.noise_mode not in ("measurement", "signal"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_norm and self.noise_fraction:
            raise ValueError("give noise_norm or noise_fraction, not both")
        if not self.success_threshold >= 0:
            raise ValueError("success_threshold must be >= 0")
        if not self.m_values or not self.s_values:
            raise ValueError("m_values and s_values must be non-empty")
        for m in self.m_values:
            if m > self.d:
                # level 3: past the dataclass-generated __init__ to its caller
                warnings.warn(f"cell with m={m} > d={self.d}", stacklevel=3)


def run_algorithm(algorithm, A, u, s, e_norm=0.0, adjoint=None):
    """Dispatch one recovery; returns (estimate, iterations).

    ``e_norm`` = ||e|| is the noise bound of ``bp`` and ``cosamp``; ``rwl1``
    uses epsilon = sigma sqrt(m + 2 sqrt(2m)) with sigma = e_norm / sqrt(m).
    ``adjoint`` (r -> A'r) is handed to the greedy solvers for their proxy.
    """
    if s == 0:
        return np.zeros(A.shape[1]), 0
    if algorithm == "bp":
        if e_norm == 0.0:
            return bp_equality(A, u), 1
        return bp_denoise(A, u, e_norm), 1
    if algorithm == "omp":
        rep = omp(A, u, s, adjoint=adjoint)
    elif algorithm == "stomp":
        rep = stomp(A, u, StompConfig(), adjoint=adjoint)
    elif algorithm == "romp":
        rep = romp(A, u, s, adjoint=adjoint)
    elif algorithm == "cosamp":
        eps = max(1.01 * e_norm, 1e-9 * max(float(np.linalg.norm(u)), 1.0))
        rep = cosamp(A, u, CosampConfig(s, halting="sample_norm",
                                        halt_value=eps,
                                        max_iters=max(10 * s, 60)),
                     adjoint=adjoint)
    elif algorithm == "rwl1":
        m = A.shape[0]
        sigma = e_norm / np.sqrt(m)
        eps = float(np.sqrt(sigma**2 * (m + 2 * np.sqrt(2 * m))))
        rep = reweighted_l1(A, u, RwConfig(epsilon=eps))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return rep.estimate, rep.iterations


def _one_trial(grid, s, m, trial):
    seed = stream_seed(grid.seed, grid.algorithm, s, m, trial)
    spec = EnsembleSpec(grid.ensemble, m, grid.d,
                        seed=stream_seed(seed, "matrix"))
    A = gen_matrix(spec)
    x = gen_signal(SignalSpec(grid.d, s, grid.signal_kind, grid.signal_p,
                              seed=stream_seed(seed, "signal"),
                              random_signs=grid.random_signs))
    e_norm = 0.0
    in_signal = grid.noise_mode == "signal"
    clean = x if in_signal else A @ x
    target = (grid.noise_norm
              or grid.noise_fraction * float(np.linalg.norm(clean)))
    noise = gen_noise(NoiseSpec(clean.size, target, stream_seed(seed, "noise")))
    if in_signal:
        x = x + noise
        u = A @ x
    else:
        e_norm = float(np.linalg.norm(noise))
        u = clean + noise
    x_hat, iterations = run_algorithm(grid.algorithm, A, u, s, e_norm,
                                      fast_adjoint(spec))
    err = float(np.linalg.norm(x_hat - x))
    xnorm = float(np.linalg.norm(x))
    normalized = err / xnorm if xnorm > 0 else float(np.linalg.norm(x_hat))
    return {
        "x": x, "estimate": x_hat, "error": err, "normalized": normalized,
        "iterations": iterations, "e_norm": e_norm,
        "success": err <= grid.success_threshold,
    }


def _map_trials(grid, s, m, worker=_one_trial):
    return [worker(grid, s, m, t) for t in range(grid.trials)]


def _cells(grid):
    """``(s, m, trial results)`` for every cell of the grid, s-major."""
    for s in grid.s_values:
        for m in grid.m_values:
            yield s, m, _map_trials(grid, s, m)


def run_phase_transition(grid):
    """Success counts and mean errors over the (s, m) grid, one row per cell."""
    rows = []
    for s, m, trials in _cells(grid):
        successes = sum(t["success"] for t in trials)
        rows.append({
            "algo": grid.algorithm, "d": grid.d, "m": m, "s": s,
            "trials": grid.trials, "seed": grid.seed,
            "success_count": successes,
            "success_rate": successes / grid.trials,
            "mean_normalized_error": float(
                np.mean([t["normalized"] for t in trials])),
            "mean_iterations": float(np.mean([t["iterations"] for t in trials])),
        })
    return rows


def run_trend(grid, level=0.99):
    """For each m, the largest s whose success rate reaches ``level``."""
    if not 0 <= level <= 1:
        raise ValueError("level must lie in [0, 1]")
    cells = run_phase_transition(grid)
    rows = []
    for m in grid.m_values:
        best = max([0] + [c["s"] for c in cells if c["m"] == m
                          and c["success_count"] >= level * c["trials"]])
        rows.append({
            "algo": grid.algorithm, "d": grid.d, "m": m,
            "s_max_tested": max(grid.s_values), "trials": grid.trials,
            "seed": grid.seed, "level": level, "max_s": best,
        })
    return rows


def run_noise_study(grid):
    """Mean recovery-error to noise ratios per cell.

    Measurement mode normalizes by ||e||_2; signal mode measures
    ||x_hat - z_s||_2 / (||z - z_s||_1 / sqrt(s)) for the perturbed signal z.
    """
    if grid.noise_norm <= 0 and grid.noise_fraction <= 0:
        raise ValueError("noise study needs a positive noise level")
    rows = []
    for s, m, trials in _cells(grid):
        ratios = []
        for t in trials:
            if grid.noise_mode == "measurement":
                error, denom = t["error"], t["e_norm"]
            else:
                zs = prune(t["x"], s)
                error = float(np.linalg.norm(t["estimate"] - zs))
                denom = (float(np.linalg.norm(t["x"] - zs, 1)) / np.sqrt(s)
                         if s else 0.0)
            if denom == 0:
                raise ValueError(
                    f"noise study cell s={s}, m={m}: the error ratio is "
                    "undefined, its denominator is zero")
            ratios.append(error / denom)
        rows.append({
            "algo": grid.algorithm, "d": grid.d, "m": m, "s": s,
            "trials": grid.trials, "seed": grid.seed,
            "noise_mode": grid.noise_mode,
            "mean_error_ratio": float(np.mean(ratios)),
        })
    return rows


def iteration_cap(algorithm, s):
    """Per-run bound: ROMP's s rounds (Needell-Vershynin), CoSaMP's default."""
    if algorithm == "romp":
        return s
    if algorithm == "cosamp":
        return cosamp_cap(s)
    return None


def run_iteration_study(grid):
    """Mean iteration counts per sparsity; checks the per-run caps."""
    rows = []
    for s, m, trials in _cells(grid):
        cap = iteration_cap(grid.algorithm, s)
        violations = 0
        if cap is not None:
            violations = sum(
                1 for t in trials if t["success"] and t["iterations"] > cap)
        rows.append({
            "algo": grid.algorithm, "d": grid.d, "m": m, "s": s,
            "trials": grid.trials, "seed": grid.seed,
            "mean_iterations": float(
                np.mean([t["iterations"] for t in trials])),
            "max_iterations": int(max(t["iterations"] for t in trials)),
            "cap": cap if cap is not None else "",
            "violations": violations,
        })
    return rows


def run_kaczmarz_study(m, n, trials, iters, noise_fraction, seed,
                       curve=False, log_stride=50):
    """Final error vs the predicted threshold sqrt(R) * gamma per trial.

    Each trial solves a homogeneous Gaussian system (x = 0, b = 0) from a
    unit-norm random start, with a noise vector of norm ``noise_fraction``
    added to the right-hand side.  ``curve=True`` emits the error at every
    ``log_stride`` iterations instead of one summary row per trial.
    """
    if m < n:
        raise ValueError("need m >= n (overdetermined system)")
    trials = as_count(trials, "trials")
    rows = []
    x_true = np.zeros(n)
    for trial in range(trials):
        tseed = stream_seed(seed, "kaczmarz", trial)
        A = gen_matrix(EnsembleSpec("gaussian", m, n,
                                    seed=stream_seed(tseed, "matrix"),
                                    normalize=False))
        e = gen_noise(NoiseSpec(m, noise_fraction, stream_seed(tseed, "noise")))
        x0 = gen_noise(NoiseSpec(n, 1.0, stream_seed(tseed, "start")))
        run = rk_solve(A, e, x0, iters, seed=tseed,
                       log_stride=log_stride, x_ref=x_true)
        if curve:
            for k, err in run.iterates_logged:
                rows.append({
                    "m": m, "n": n, "trial": trial, "seed": seed,
                    "iteration": k, "error": err,
                })
        else:
            R, gamma = kaczmarz.rk_theory(A, e)
            rows.append({
                "m": m, "n": n, "trial": trial, "iters": iters,
                "noise_fraction": noise_fraction, "seed": seed,
                "final_error": run.iterates_logged[-1][1],
                "threshold": float(np.sqrt(R) * gamma), "R": R, "gamma": gamma,
            })
    return rows


def run_rw_bounds(mu, eps_list, delta_list, tol=1e-3):
    """Iterations until the reweighted error bound is within ``tol`` of its
    limit, per (eps, delta) cell; hypothesis-violating cells are marked."""
    if np.isnan(mu):
        raise ValueError("mu must not be NaN")
    if np.isnan(delta_list).any():
        raise ValueError("no delta may be NaN")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not all(eps >= 0 for eps in eps_list):
        raise ValueError("every eps must be >= 0")
    rows = []
    for eps in eps_list:
        for delta in delta_list:
            row = {"mu": mu, "eps": eps, "delta": delta, "tol": tol}
            try:
                b = rw_error_recursion(mu, eps, delta, tol)
                row.update({
                    "rho": float(b.rho), "alpha": float(b.alpha),
                    "E1": float(b.E[0]), "limit": b.L,
                    "iterations": b.iters_to_converge, "hypothesis_ok": True,
                })
            except ValueError:
                row.update({
                    "rho": "", "alpha": "", "E1": "", "limit": "",
                    "iterations": "", "hypothesis_ok": False,
                })
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Serialization

def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def rows_to_csv(rows):
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows):
    import json

    out = []
    for row in rows:
        clean = {k: (float(v) if isinstance(v, np.floating) else
                     int(v) if isinstance(v, np.integer) else v)
                 for k, v in row.items()}
        out.append(json.dumps(clean, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")
