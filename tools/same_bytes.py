"""Print the SHA-256 of every reference cell's output, to compare checkouts.

    python3 tools/same_bytes.py WORKLOAD [WORKLOAD ...]

Runs every cell that has recorded reference output (see perfbench/README.md)
in this process, against the ``src/`` of the checkout this file sits in,
with OpenBLAS pinned to one thread as the benchmark pins it.  Prints one
line per cell, ``<sha256 of its output> <workload> <argv>``, so two
checkouts printed the same bytes for every cell exactly when
``diff`` finds no difference between their listings.  That includes the
convex cells, which the benchmark's check compares only to a tolerance.
Exits 1 if any cell exits non-zero or fails that check, and 2 on an
unknown workload.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import load_references, matches  # noqa: E402
from run import import_sparsekit, run_cell  # noqa: E402
from workloads import WORKLOADS, reference_cells  # noqa: E402


def cell_digests(cli, workload, cells, references):
    """Run each argv in ``cells`` through ``cli.main``; yield (line, ok) per
    cell, ok when it exited 0 and its output matches ``references``."""
    for argv in cells:
        _, code, text, _ = run_cell(cli, argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        ok = code == 0 and matches(argv, text, references)
        yield f"{digest} {workload} {' '.join(argv)}", ok


def main(names):
    unknown = [name for name in names if name not in WORKLOADS]
    if not names or unknown:
        print(f"usage: same_bytes.py WORKLOAD...; workloads: "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    cli = import_sparsekit()["cli"]
    failed = 0
    for name in names:
        cells = reference_cells(name)
        for line, ok in cell_digests(cli, name, cells, load_references(name)):
            print(line, flush=True)
            failed += not ok
    if failed:
        print(f"{failed} cells failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
