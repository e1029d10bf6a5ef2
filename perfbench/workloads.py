"""Benchmark workloads: fixed lists of ``sparsekit`` CLI cells.

A workload is a list of cell templates (CLI argv without ``--seed``), each
issued ``copies`` times per round.  The benchmark's ``--seed`` picks, per
template, an offset into a pool of CLI master seeds ``0 .. pool-1`` and the
order of the cells inside each round.  Every pool entry has reference output
recorded in ``reference/<workload>.json``, so every cell of every round can
be checked whatever the benchmark seed.  Round ``r`` uses the next ``copies``
pool entries of each template, so cells do not repeat within a run until the
pool wraps.

Everything here is a pure function of (workload, seed, round): no clock, no
process state, and no use of the library's own generator, so a change to
``sparsekit`` cannot change which cells are issued.
"""

import random
from dataclasses import dataclass

CONVEX_ALGOS = ("bp", "rwl1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple          # ((argv, copies), ...)
    pool: int                 # CLI master seeds with recorded references
    round_s: float            # nominal seconds per round on a 2-core host


def _phase(algo, d, m, s, trials, *extra):
    return ("phase", "--algo", algo, "--d", str(d), "--m", str(m),
            "--s", str(s), "--trials", str(trials), *extra)


def _noise(algo, s, fraction):
    return ("noise", "--algo", algo, "--d", "256", "--m", "128", "--s", str(s),
            "--noise-fraction", str(fraction), "--random-signs",
            "--trials", "1")


KACZMARZ = ("kaczmarz", "--m", "100", "--n", "50", "--iters", "1000",
            "--noise-fraction", "0.1", "--trials", "1")
RIC_MC = ("ric", "--d", "256", "--m", "128", "--r", "8",
          "--mode", "monte_carlo", "--trials", "1000")
RIC_EXACT = ("ric", "--d", "20", "--m", "12", "--r", "3")


WORKLOADS = {w.name: w for w in (
    Workload(
        "greedy-gauss",
        "greedy selection and linalg least squares dominate, and Gaussian "
        "matrices are cheap to generate",
        tuple((_phase(a, 256, m, s, 10, "--threads", "1"), 1)
              for a in ("omp", "stomp", "romp", "cosamp")
              for m in (64, 96, 128) for s in (4, 8, 16)),
        pool=16, round_s=3.0),
    Workload(
        "greedy-dct",
        "rebuilding the 1024x1024 DCT dominates each trial, where the "
        "Gaussian workloads generate matrices cheaply",
        tuple((_phase(a, 1024, m, s, 2, "--ensemble", "partial_dct",
                      "--threads", "1"), 1)
              for a in ("omp", "cosamp") for m in (256, 512) for s in (16, 32)),
        pool=48, round_s=0.9),
    Workload(
        "convex-noisy",
        "interior-point bp_equality (m x m Schur) sets the median; barrier "
        "bp_denoise (d x d Newton) and stalled reweighted l1 set the tail",
        tuple((_phase("bp", 256, 128, s, 1), 8) for s in (8, 16, 24, 32, 40))
        + ((_noise("bp", 8, 0.05), 2), (_noise("bp", 16, 0.1), 2),
           (_noise("bp", 30, 0.2), 2), (_noise("rwl1", 30, 0.2), 1)),
        pool=32, round_s=7.5),
    Workload(
        "analysis",
        "only workload reaching kaczmarz (Jacobi rk_theory) and rip "
        "(per-sample stream_seed); ric sets the median, kaczmarz the tail",
        ((KACZMARZ, 2), (RIC_MC, 5), (RIC_EXACT, 3)),
        pool=160, round_s=0.9),
)}


def round_cells(name, seed, r):
    """The argv of every cell in round ``r`` of a run with this seed."""
    wl = WORKLOADS[name]
    cells = []
    for t, (argv, copies) in enumerate(wl.templates):
        offset = random.Random(f"{name}/{seed}/template{t}").randrange(wl.pool)
        for j in range(copies):
            k = (offset + r * copies + j) % wl.pool
            cells.append(argv + ("--seed", str(k)))
    random.Random(f"{name}/{seed}/round{r}").shuffle(cells)
    return cells


def warmup_cells(name):
    """One single-trial cell per problem shape (d, ensemble), on a
    seed outside the pool, so lazy set-up and any cache keyed by shape is
    filled before timing."""
    wl = WORKLOADS[name]
    shapes = {}
    for argv, _ in wl.templates:
        shape = tuple(argv[argv.index(f) + 1] if f in argv else None
                      for f in ("--d", "--ensemble"))
        shapes.setdefault(shape, argv)
    cells = []
    for argv in shapes.values():
        argv = list(argv)
        if argv[0] != "ric":
            argv[argv.index("--trials") + 1] = "1"
        cells.append(tuple(argv) + ("--seed", str(wl.pool)))
    return cells


def reference_cells(name):
    """Every cell that has recorded reference output."""
    wl = WORKLOADS[name]
    return [argv + ("--seed", str(k))
            for argv, _ in wl.templates for k in range(wl.pool)]


def cell_trials(argv):
    """Seeded trials in one cell: one instance plus its solve or analysis."""
    if argv[0] == "ric":
        return 1
    return int(argv[argv.index("--trials") + 1])


def is_convex(argv):
    return "--algo" in argv and argv[argv.index("--algo") + 1] in CONVEX_ALGOS
