"""Print each cell template's median latency, to compare checkouts.

    python3 tools/cell_times.py WORKLOAD [N]

Runs every cell template of WORKLOAD (see perfbench/workloads.py) at the
pool seeds ``0 .. N-1`` (N defaults to the whole pool) in this process,
against the ``src/`` of the checkout this file sits in, with OpenBLAS pinned
to one thread as the benchmark pins it.  The benchmark's warm-up cells run
first, and the seeds run in rounds, one cell per template each, so a drift
in the host's speed reaches every template alike.  Prints one line per
template, ``<median ms> <argv>``, then the sum of the medians.  A table per
template resolves a difference that a whole-workload percentile, set by
whichever template lands on it, cannot.  Exits 1 if any cell exits
non-zero or fails the benchmark's check, and 2 on bad arguments.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import load_references, matches  # noqa: E402
from run import import_sparsekit, run_cell, warm_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def template_times(cli, templates, n, references):
    """Run each argv in ``templates`` at seeds ``0 .. n-1``, a round per
    seed; return ``(median seconds, ok)`` per template, ok when every one
    of its cells exited 0 and matches ``references``."""
    times = [[] for _ in templates]
    ok = [True] * len(templates)
    for k in range(n):
        for t, argv in enumerate(templates):
            cell = tuple(argv) + ("--seed", str(k))
            seconds, code, text, _ = run_cell(cli, cell)
            times[t].append(seconds)
            ok[t] &= code == 0 and matches(cell, text, references)
    return [(statistics.median(ts), good) for ts, good in zip(times, ok)]


def main(args):
    wl = WORKLOADS.get(args[0]) if 1 <= len(args) <= 2 else None
    n = args[1] if len(args) == 2 else str(wl.pool if wl else "")
    if wl is None or not n.isdigit() or not 1 <= int(n) <= wl.pool:
        print(f"usage: cell_times.py WORKLOAD [N], N from 1 to the pool "
              f"size; workloads: {', '.join(sorted(WORKLOADS))}",
              file=sys.stderr)
        return 2
    modules = import_sparsekit()
    warm_up(modules, wl.name)
    templates = [argv for argv, _ in wl.templates]
    rows = template_times(modules["cli"], templates, int(n),
                          load_references(wl.name))
    for argv, (median, _) in zip(templates, rows):
        print(f"{median * 1e3:9.2f} {' '.join(argv)}", flush=True)
    print(f"{sum(median for median, _ in rows) * 1e3:9.2f} sum of the "
          f"{len(rows)} template medians, ms, seeds 0-{int(n) - 1}")
    failed = sum(not ok for _, ok in rows)
    if failed:
        print(f"{failed} templates had a cell fail its check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
