"""sparsekit benchmark: one closed-loop client issuing CLI cells.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each cell is one in-process ``sparsekit.cli.main(argv)`` call, issued only
after the previous one returned, and its output is checked against the
reference recorded in ``perfbench/reference``.  With ``--trace 0`` the
client issues whole rounds of cells for about ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of
rounds (derived from ``--seconds``) untraced, then the same rounds traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it give every metric with its unit and
direction, the quality figures and the environment.  The exit code is 0
only when every cell passed its check.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from check import load_references, matches
from workloads import WORKLOADS, cell_trials, round_cells, warmup_cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 3
MIN_CELLS = 100        # leaves at least 10 cells beyond p90

# OpenBLAS runs one thread per core by default.  On a 2-core host shared with
# other work, the same bp_denoise cell then varied by +-15% from call to call,
# against +-2.5% with one thread, so the benchmark pins one BLAS thread.
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cell_p50_ms", "ms", "lower"),
    ("cell_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

QUALITY = (
    ("failed_frac", "ratio", "lower"),
    ("recovered_frac", "ratio", "higher"),
    ("noise_error_ratio", "ratio", "lower"),
    ("rk_floor_ratio", "ratio", "lower"),
)


def _layer(name, *stats):
    units = {"calls": ("count", "lower"), "busy_ms": ("ms", "lower"),
             "self_ms": ("ms", "lower"), "iters": ("count", "lower"),
             "cap_hits": ("count", "lower"), "bytes": ("B", "lower"),
             "draws": ("count", "lower")}
    return tuple((f"{name}.{s}", *units[s]) for s in stats)


PER_LAYER = (
    _layer("ensembles.dct_matrix", "calls", "busy_ms")
    + _layer("ensembles.gen_matrix", "calls", "busy_ms", "bytes")
    + _layer("linalg.least_squares", "calls", "busy_ms", "iters")
    + _layer("linalg.pseudoinverse_apply", "calls", "busy_ms")
    + _layer("linalg.top_k", "busy_ms")
    + sum((_layer(f"greedy.{a}", "calls", "busy_ms", "self_ms", "iters",
                  "cap_hits") for a in ("omp", "stomp", "romp", "cosamp")), ())
    + sum((_layer(f"convex.{f}", "calls", "busy_ms", "self_ms")
           for f in ("bp_equality", "bp_denoise", "reweighted_l1")), ())
    + (("convex.solver_errors", "count", "lower"),)
    + _layer("kaczmarz.rk_solve", "calls", "busy_ms", "self_ms")
    + _layer("kaczmarz.rk_theory", "busy_ms")
    + _layer("linalg.extreme_singular_values", "busy_ms")
    + (("kaczmarz.sweep_rows_per_s", "1/s", "higher"),)
    + _layer("rip.ric_exact", "busy_ms")
    + _layer("rip.ric_monte_carlo", "busy_ms")
    + (("rip.supports_per_s", "1/s", "higher"),)
    + _layer("rng.stream_seed", "calls", "busy_ms")
    + _layer("rng.raw", "draws")
    + _layer("bench.run_algorithm", "calls", "busy_ms")
    + _layer("bench.run_phase_transition", "self_ms")
    + _layer("bench.run_noise_study", "self_ms")
    + _layer("bench.run_kaczmarz_study", "self_ms")
    + _layer("bench.rows_to_csv", "busy_ms")
    + (("bench.pool_utilization", "ratio", "higher"),)
    + _layer("cli.main", "self_ms")
    + (("trace.overhead_frac", "ratio", "lower"),)
)


@dataclass
class Record:
    round: int
    argv: tuple
    latency: float
    ok: bool
    text: str


def import_sparsekit():
    """Import the library from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sparsekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sparsekit sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import sparsekit
    from sparsekit import (bench, cli, convex, ensembles, greedy, kaczmarz,
                           linalg, reports, rip, rng)
    if Path(sparsekit.__file__).resolve().parent != SRC / "sparsekit":
        raise SystemExit(f"perfbench: sparsekit imported from "
                         f"{sparsekit.__file__}, not from {SRC}")
    return {"bench": bench, "cli": cli, "convex": convex,
            "ensembles": ensembles, "greedy": greedy, "kaczmarz": kaczmarz,
            "linalg": linalg, "reports": reports, "rip": rip, "rng": rng}


def run_cell(cli, argv):
    """One CLI call; returns (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def warm_up(modules, workload):
    for argv in warmup_cells(workload):
        _, code, _, err = run_cell(modules["cli"], argv)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up cell {' '.join(argv)} "
                             f"exited {code}\n{err}")


def probe(workload):
    """Set-up as the benchmark does it, then report the monotonic clock."""
    warm_up(import_sparsekit(), workload)
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.probe(sys.argv[2])"


def measure_setup(workload):
    """Median time from starting a fresh interpreter until it has imported
    sparsekit and run the warm-up cells."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(HERE), workload], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def issue_rounds(modules, references, workload, seed, rounds=None,
                 seconds=None, tracer=None):
    """Issue rounds back to back: ``rounds`` of them, or whole rounds while
    the next one would end less than half a round past ``seconds`` (and
    until at least ``MIN_CELLS`` cells have run)."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif r > 0 and len(records) >= MIN_CELLS:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / r / 2 >= seconds:
                break
        for argv in round_cells(workload, seed, r):
            if tracer is not None:
                tracer.cell = len(records)
            latency, code, text, err = run_cell(modules["cli"], argv)
            ok = code == 0 and matches(argv, text, references)
            if not ok:
                print(f"perfbench: cell failed (exit {code}): "
                      f"{' '.join(argv)}\n{err}", file=sys.stderr)
            records.append(Record(r, argv, latency, ok, text))
        r += 1
    return records


def trials_per_s(records):
    """Trials finished per second of cell time over all timed cells."""
    return (sum(cell_trials(rec.argv) for rec in records)
            / sum(rec.latency for rec in records))


def _csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def quality(records):
    """Deterministic recovery figures from the outputs of round 0, which
    every run completes; None where the workload has no such cells."""
    recovered, trials, noise, floor = 0, 0, [], []
    for rec in records:
        if rec.round != 0 or not rec.ok:
            continue
        command = rec.argv[0]
        if command == "ric":
            continue
        for row in _csv_rows(rec.text):
            if command == "phase":
                recovered += int(row["success_count"])
                trials += int(row["trials"])
            elif command == "noise":
                noise.append(float(row["mean_error_ratio"]))
            elif command == "kaczmarz":
                floor.append(float(row["final_error"]) / float(row["threshold"]))
    failed = sum(not rec.ok for rec in records) / len(records)
    return {
        "failed_frac": failed,
        "recovered_frac": recovered / trials if trials else None,
        "noise_error_ratio": statistics.fmean(noise) if noise else None,
        "rk_floor_ratio": statistics.fmean(floor) if floor else None,
    }


def end_to_end_metrics(records, setup_s):
    latencies = [rec.latency for rec in records]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "trials_per_s": trials_per_s(records),
        "cell_p50_ms": deciles[4] * 1e3,
        "cell_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_metrics(tracer, plain_tps, traced_tps):
    summary = tracer.summary()
    index = {name: i for i, name in enumerate(summary["names"])}
    counts = tracer.counts

    def stat(name, key):
        i = index.get(name)
        return 0 if i is None else summary[key][i]

    def per_s(count, busy_ns):
        return count / (busy_ns / 1e9) if busy_ns else 0.0

    special = {
        "kaczmarz.sweep_rows_per_s": lambda: per_s(
            counts["kaczmarz.rk_solve.rows"],
            stat("kaczmarz.rk_solve", "self_ns")),
        "rip.supports_per_s": lambda: per_s(
            counts["rip.supports"],
            stat("rip.ric_exact", "busy_ns")
            + stat("rip.ric_monte_carlo", "busy_ns")),
        "bench.pool_utilization": lambda: (
            summary["trial_ns"] / tracer.pool_capacity_ns
            if tracer.pool_capacity_ns else 0.0),
        "trace.overhead_frac": lambda: plain_tps / traced_tps - 1.0,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in special:
            values[name] = float(special[name]())
        elif kind == "calls":
            values[name] = int(stat(layer, "calls"))
        elif kind in ("busy_ms", "self_ms"):
            values[name] = float(stat(layer, kind[:-3] + "_ns")) / 1e6
        else:
            values[name] = int(counts[name])
    return values


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": numpy.__version__, "blas": blas,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_pinned_because": "one thread per core left the same "
        "bp_denoise cell varying +-15% between calls on a shared 2-core host",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _print_table(title, rows, values, samples):
    print(f"# {title}")
    for name, unit, better in rows:
        value = values.get(name)
        shown = "n/a" if value is None else value
        print(f"#   {name:36s} {shown!s:>24} {unit:6s} {better:6s} n={samples}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_sparsekit()
    setup_s = None if args.trace else measure_setup(args.workload)
    warm_up(modules, args.workload)
    references = load_references(args.workload)
    env = environment()

    if args.trace:
        # imported late: numpy must load after import_sparsekit pins BLAS
        from tracer import Tracer

        rounds = max(1, round(args.seconds / (2 * WORKLOADS[args.workload].round_s)))
        plain = issue_rounds(modules, references, args.workload, args.seed,
                             rounds=rounds)
        tracer = Tracer()
        tracer.install(modules)
        try:
            records = issue_rounds(modules, references, args.workload,
                                   args.seed, rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        for a, b in zip(plain, records):
            if a.text != b.text:
                b.ok = False
                print(f"perfbench: traced output differs: {' '.join(b.argv)}",
                      file=sys.stderr)
        records = plain + records
        metrics = layer_metrics(tracer, trials_per_s(plain),
                                trials_per_s(records[len(plain):]))
        table = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        extra = {"rounds": rounds, "missing_call_sites": tracer.missing}
    else:
        records = issue_rounds(modules, references, args.workload, args.seed,
                               seconds=args.seconds)
        metrics = end_to_end_metrics(records, setup_s)
        table = END_TO_END
        extra = {"rounds": records[-1].round + 1}

    failed = sum(not rec.ok for rec in records)
    qual = quality(records)
    latencies = [rec.latency for rec in records]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    extra["cells"] = len(records)
    extra["cells_beyond_p90"] = sum(x > p90 for x in latencies)

    print(f"# sparsekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# run: {json.dumps(extra, sort_keys=True)}")
    _print_table("metrics (value, unit, better, cells)", table, metrics,
                 len(records))
    _print_table("quality (round 0; failed_frac over all cells)", QUALITY,
                 qual, len(records))

    units = {name: unit for name, unit, _ in table}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "run": extra,
                   "quality": qual, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
