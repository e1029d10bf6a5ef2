"""tools/same_bytes.py: one output digest per reference cell, to compare
two checkouts with diff."""

import importlib.util
from pathlib import Path

from sparsekit import cli

ROOT = Path(__file__).resolve().parents[1]


def load_same_bytes():
    spec = importlib.util.spec_from_file_location(
        "same_bytes", ROOT / "tools" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bytes = load_same_bytes()
# one Kaczmarz cell and one exact RIC cell, the quickest of the workload
CELLS = [next(argv for argv in same_bytes.reference_cells("analysis")
              if argv[0] == kind and "monte_carlo" not in argv)
         for kind in ("kaczmarz", "ric")]


def test_cells_print_the_reference_digest():
    # kaczmarz and exact-ric cells store the SHA-256 of their output
    references = same_bytes.load_references("analysis")
    got = list(same_bytes.cell_digests(cli, "analysis", CELLS, references))
    assert got == [(f"{references[' '.join(argv)]} analysis {' '.join(argv)}",
                    True) for argv in CELLS]


def test_a_cell_off_its_reference_fails():
    references = same_bytes.load_references("analysis")
    key = " ".join(CELLS[0])
    references[key] = "0" * 64
    (line, ok), = same_bytes.cell_digests(cli, "analysis", CELLS[:1], references)
    assert not ok and not line.startswith(references[key])


def test_unknown_or_missing_workload_is_a_usage_error(capsys):
    assert same_bytes.main([]) == 2
    assert same_bytes.main(["analysis", "no-such-workload"]) == 2
    assert "usage" in capsys.readouterr().err
