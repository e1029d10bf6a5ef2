"""Command-line front end for the benchmark harness.

Subcommands: phase, trend, noise, iters, kaczmarz, rwbounds, ric, recover.
A ``key = value`` config file can pre-set any long flag (flags win).  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import bench, ensembles
from .bench import ExperimentGrid, rows_to_csv, rows_to_jsonl
from .ensembles import EnsembleSpec, NoiseSpec, gen_matrix, gen_noise, load_csv
from .rip import ENUMERATION_CAP, EnumerationCapError, ric_exact, ric_monte_carlo
from .rng import stream_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _int_list(text):
    """Parse '8,16,32' or '8:64:8' (range inclusive of the stop if hit)."""
    values = []
    for part in text.split(","):
        if ":" in part:
            pieces = [int(p) for p in part.split(":")]
            if len(pieces) == 2:
                start, stop, step = pieces[0], pieces[1], 1
            elif len(pieces) == 3:
                start, stop, step = pieces
            else:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            values.extend(range(start, stop + 1, step))
        else:
            values.append(int(part))
    return tuple(values)


def _add_grid_flags(p):
    p.add_argument("--algo", default="omp", choices=bench.ALGORITHMS)
    p.add_argument("--d", type=int, default=256)
    p.add_argument("--m", type=_int_list, default=(128,),
                   help="measurement counts, list or start:stop[:step]")
    p.add_argument("--s", type=_int_list, default=(4,),
                   help="sparsity levels, list or start:stop[:step]")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", default="gaussian", choices=ensembles.FAMILIES)
    p.add_argument("--signal-kind", default="flat",
                   choices=ensembles.SIGNAL_KINDS)
    p.add_argument("--signal-p", type=float, default=0.5)
    p.add_argument("--random-signs", action="store_true")
    p.add_argument("--noise-norm", type=float, default=0.0)
    p.add_argument("--noise-fraction", type=float, default=0.0)
    p.add_argument("--noise-mode", default="measurement",
                   choices=("measurement", "signal"))
    p.add_argument("--threshold", type=float, default=bench.SUCCESS_THRESHOLD)
    p.add_argument("--threads", type=int, default=1)


def _add_output_flags(p):
    """``--out``, ``--format`` and ``--config`` of a row-emitting command."""
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "jsonl"))
    p.add_argument("--config", default=None,
                   help="key = value file; flags override")


@functools.cache
def build_parser():
    """The ``sparsekit`` argument parser, built once per process.

    Parsing never changes a parser, so every ``main`` call shares this one.
    A one-shot ``sparsekit`` process gains nothing; a caller that runs
    ``main`` many times in one process skips rebuilding about 120 arguments
    across eight subcommands on every call after the first."""
    parser = argparse.ArgumentParser(
        prog="sparsekit", description="sparse-recovery benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
            ("phase", "success rates over an (s, m) grid"),
            ("trend", "largest s recovered at a target success level"),
            ("noise", "recovery-error to noise ratios"),
            ("iters", "iteration counts against their caps")):
        p = sub.add_parser(name, help=desc)
        _add_grid_flags(p)
        _add_output_flags(p)
        if name == "trend":
            p.add_argument("--level", type=float, default=0.99)

    p = sub.add_parser("kaczmarz", help="randomized Kaczmarz error thresholds")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--noise-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", action="store_true",
                   help="emit error vs iteration instead of summaries")
    p.add_argument("--log-stride", type=int, default=50)
    _add_output_flags(p)

    p = sub.add_parser("rwbounds", help="reweighted error-bound iterations")
    p.add_argument("--mu", type=float, default=10.0)
    p.add_argument("--eps", default="0.01,0.1,0.5,1.0")
    p.add_argument("--delta", default="0.05,0.1,0.2,0.3,0.4")
    p.add_argument("--tol", type=float, default=1e-3)
    _add_output_flags(p)

    p = sub.add_parser("ric", help="restricted isometry constant of a seeded matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ensemble", default="gaussian", choices=ensembles.FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="exact", choices=("exact", "monte_carlo"))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)

    q = sub.add_parser("recover", help="single-instance debugging run")
    q.add_argument("--matrix", required=True, help="matrix CSV path")
    q.add_argument("--signal", required=True, help="signal CSV path")
    q.add_argument("--algo", default="omp", choices=bench.ALGORITHMS)
    q.add_argument("--s", type=int, default=None,
                   help="sparsity (default: nonzero count of the signal)")
    q.add_argument("--noise-norm", type=float, default=0.0)
    q.add_argument("--seed", type=int, default=0)

    for json_cmd in (p, q):     # each prints one JSON object: no --format
        json_cmd.add_argument("--out", default=None,
                              help="output path (default stdout)")
        json_cmd.add_argument("--config", default=None,
                              help="key = value file; flags override")
    return parser


def _load_config(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ValueError(str(exc))
    return values


def _parse(parser, argv):
    """Parse ``argv``; config-file values enter as flags placed ahead of
    argv's own, so any flag given on the command line wins and a config
    file can supply required flags."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return parser.parse_args(argv)
    config = {"--" + key.replace("_", "-"): (key, val)
              for key, val in _load_config(path).items()}
    # a first pass learns the command's options: each value follows its flag
    # as its own token, which a store-true option leaves unparsed (keys that
    # abbreviate --help stay out of it and are rejected below)
    known, _ = parser.parse_known_args(argv[:1] + [
        t for flag, (key, val) in config.items()
        if not "help".startswith(key) for t in (flag, val)] + argv[1:])
    flags = []
    for flag, (key, val) in config.items():
        if key == "command" or key not in vars(known):
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(getattr(known, key), bool):
            if val.lower() in ("1", "true", "yes", "on"):
                flags.append(flag)
        else:
            flags.append(f"{flag}={val}")
    return parser.parse_args(argv[:1] + flags + argv[1:])


def _write(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, args):
    _write(rows_to_csv(rows) if args.format == "csv" else rows_to_jsonl(rows),
           args)


def _grid_from_args(args):
    return ExperimentGrid(
        algorithm=args.algo, d=args.d, m_values=tuple(args.m),
        s_values=tuple(args.s), trials=args.trials, seed=args.seed,
        ensemble=args.ensemble, signal_kind=args.signal_kind,
        signal_p=args.signal_p, random_signs=args.random_signs,
        noise_norm=args.noise_norm, noise_fraction=args.noise_fraction,
        noise_mode=args.noise_mode, success_threshold=args.threshold,
        threads=args.threads)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "phase":
            _emit(bench.run_phase_transition(_grid_from_args(args)), args)
        elif args.command == "trend":
            _emit(bench.run_trend(_grid_from_args(args), args.level), args)
        elif args.command == "noise":
            _emit(bench.run_noise_study(_grid_from_args(args)), args)
        elif args.command == "iters":
            rows = bench.run_iteration_study(_grid_from_args(args))
            _emit(rows, args)
            if any(r["violations"] for r in rows):
                print("iteration cap violated", file=sys.stderr)
                return EXIT_NUMERICAL
        elif args.command == "kaczmarz":
            _emit(bench.run_kaczmarz_study(
                args.m, args.n, args.trials, args.iters,
                args.noise_fraction, args.seed, curve=args.curve,
                log_stride=args.log_stride), args)
        elif args.command == "rwbounds":
            eps_list = [float(v) for v in str(args.eps).split(",")]
            delta_list = [float(v) for v in str(args.delta).split(",")]
            _emit(bench.run_rw_bounds(args.mu, eps_list, delta_list,
                                      args.tol), args)
        elif args.command == "ric":
            _write(json.dumps(_run_ric(args), sort_keys=True) + "\n", args)
        elif args.command == "recover":
            _write(json.dumps(_run_recover(args), sort_keys=True) + "\n", args)
    except (ValueError, OSError, EnumerationCapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _run_ric(args):
    A = gen_matrix(EnsembleSpec(args.ensemble, args.m, args.d, seed=args.seed))
    if args.mode == "exact":
        rep = ric_exact(A, args.r, cap=args.cap)
    else:
        rep = ric_monte_carlo(A, args.r, args.trials, seed=args.seed)
    return {
        "r": rep.r, "delta": rep.delta, "mode": rep.mode,
        "witness": [int(i) for i in rep.witness],
    }


def _run_recover(args):
    A, _ = load_csv(args.matrix)
    x, _ = load_csv(args.signal)
    A = np.atleast_2d(A)
    x = np.asarray(x).reshape(-1)
    if x.size != A.shape[1]:
        raise ValueError("signal length does not match matrix columns")
    s = args.s if args.s is not None else int(np.count_nonzero(x))
    u = A @ x
    e_norm = 0.0
    if args.noise_norm != 0:
        e = gen_noise(NoiseSpec(A.shape[0], args.noise_norm,
                                stream_seed(args.seed, "recover-noise")))
        u = u + e
        e_norm = args.noise_norm
    x_hat, iterations = bench.run_algorithm(args.algo, A, u, s, e_norm)
    err = float(np.linalg.norm(x_hat - x))
    return {
        "algorithm": args.algo, "m": int(A.shape[0]), "d": int(A.shape[1]),
        "s": s, "iterations": iterations, "error": err,
        "success": bool(err <= bench.SUCCESS_THRESHOLD),
        "support": [int(i) for i in np.flatnonzero(np.abs(x_hat) > 1e-8)],
        "estimate": [float(v) for v in x_hat],
    }
