"""Count bp_equality's interior-point work over the phase reference cells.

    python3 tools/bp_steps.py

Runs every ``convex-noisy`` ``phase --algo bp`` reference cell (160 of
them, see perfbench/README.md) in this process, against the ``src/`` of the
checkout this file sits in, with OpenBLAS pinned to one thread as the
benchmark pins it.  ``convex._trial_steps`` and ``convex._certified_vertex``
are wrapped from outside, so the library is run as it is.  Prints one line
per cell, ``<searches> <tries> <exits> <argv>``, then the totals and the
mean number of line searches per ``bp_equality`` call:

- searches: line searches, one per interior-point step taken;
- tries: calls of ``_certified_vertex``, one before each step;
- exits: calls that returned a certified refit, at most one per solve.

These counts do not depend on the machine's speed.  Exits 1 if any cell
exits non-zero or fails the benchmark's check.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import load_references, matches  # noqa: E402
from run import import_sparsekit, run_cell  # noqa: E402
from workloads import reference_cells  # noqa: E402


def phase_bp_cells():
    """The ``phase --algo bp`` reference cells of ``convex-noisy``."""
    return [argv for argv in reference_cells("convex-noisy")
            if argv[0] == "phase" and argv[argv.index("--algo") + 1] == "bp"]


def count_steps(cli, convex, cells, references):
    """Run each argv in ``cells`` with the two functions wrapped; yield
    ``(searches, tries, exits, ok)`` per cell, ok when the cell exited 0
    and its output matches ``references``."""
    trial_steps, certified_vertex = convex._trial_steps, convex._certified_vertex
    counts = {}

    def searching(*args):
        counts["searches"] += 1
        return trial_steps(*args)

    def certifying(*args):
        counts["tries"] += 1
        vertex = certified_vertex(*args)
        counts["exits"] += vertex is not None
        return vertex

    convex._trial_steps, convex._certified_vertex = searching, certifying
    try:
        for argv in cells:
            counts.update(searches=0, tries=0, exits=0)
            _, code, text, _ = run_cell(cli, argv)
            ok = code == 0 and matches(argv, text, references)
            yield counts["searches"], counts["tries"], counts["exits"], ok
    finally:
        convex._trial_steps, convex._certified_vertex = trial_steps, certified_vertex


def main(args):
    if args:
        print("usage: bp_steps.py (no arguments)", file=sys.stderr)
        return 2
    modules = import_sparsekit()
    cells = phase_bp_cells()
    totals = [0, 0, 0]
    failed = 0
    for argv, (*row, ok) in zip(cells, count_steps(
            modules["cli"], modules["convex"], cells,
            load_references("convex-noisy"))):
        print(*row, " ".join(argv), flush=True)
        totals = [a + b for a, b in zip(totals, row)]
        failed += not ok
    searches, tries, exits = totals
    trials = sum(int(argv[argv.index("--trials") + 1]) for argv in cells)
    print(f"{len(cells)} cells, {trials} bp_equality calls: {searches} line "
          f"searches ({searches / trials:.2f} per call), {tries} certificate "
          f"tries, {exits} certified exits")
    if failed:
        print(f"{failed} cells failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
