"""Record reference output for every pool cell of the given workloads.

    python3 perfbench/record.py [WORKLOAD ...]

Run at the commit whose output is the reference; it rewrites
``perfbench/reference/<workload>.json``.  Every recorded cell must exit 0.
"""

import json
import sys

from check import REFERENCE_DIR, cell_key, reference_entry
from run import import_sparsekit, run_cell
from workloads import WORKLOADS, reference_cells


def main(names):
    cli = import_sparsekit()["cli"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        references = {}
        for argv in reference_cells(name):
            _, code, text, err = run_cell(cli, argv)
            if code != 0:
                raise SystemExit(f"{cell_key(argv)} exited {code}\n{err}")
            references[cell_key(argv)] = reference_entry(argv, text)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(references, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(references)} cells")


if __name__ == "__main__":
    main(sys.argv[1:])
