"""Correctness check of one cell's output against its recorded reference.

Greedy, ensemble, Kaczmarz and RIP cells must match the reference byte for
byte; the reference stores the SHA-256 of their output.  Convex cells (bp,
rwl1) store the reference CSV itself: ``success_count`` and every other
field must match exactly, except that the error fields may move by
``REL_TOL`` relative plus ``ABS_TOL`` absolute and the iteration field is
not compared.  A Newton or interior-point change that reaches the same
optimum by another path therefore still passes, while one that changes
which trials recover does not.
"""

import hashlib
import json
import math
from pathlib import Path

from workloads import is_convex

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ERROR_FIELDS = ("mean_normalized_error", "mean_error_ratio")
UNCHECKED_FIELDS = ("mean_iterations",)
REL_TOL = 1e-3
ABS_TOL = 1e-6


def cell_key(argv):
    return " ".join(argv)


def reference_entry(argv, text):
    if is_convex(argv):
        return text
    return hashlib.sha256(text.encode()).hexdigest()


def load_references(name):
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def matches(argv, text, references):
    ref = references.get(cell_key(argv))
    if ref is None:
        return False
    if not is_convex(argv):
        return hashlib.sha256(text.encode()).hexdigest() == ref
    got = [line.split(",") for line in text.splitlines()]
    want = [line.split(",") for line in ref.splitlines()]
    if len(got) != len(want) or not got or got[0] != want[0]:
        return False
    header = want[0]
    for row, ref_row in zip(got[1:], want[1:]):
        if len(row) != len(header):
            return False
        for field, a, b in zip(header, row, ref_row):
            if field in UNCHECKED_FIELDS:
                continue
            if field in ERROR_FIELDS:
                if not math.isclose(float(a), float(b),
                                    rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return False
            elif a != b:
                return False
    return True
