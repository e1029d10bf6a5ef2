"""tools/same_bytes.py: one output digest per reference cell, to compare
two checkouts with diff; tools/bp_steps.py: bp_equality's step counts;
tools/cell_times.py: each template's median latency."""

import importlib.util
from pathlib import Path

import pytest

from sparsekit import cli, convex

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bytes = load_tool("same_bytes")
bp_steps = load_tool("bp_steps")
cell_times = load_tool("cell_times")
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


def test_bp_steps_counts_searches_tries_and_exits():
    # s=8, seed 0 is certified after one search; s=40, seed 6 never is, and
    # its last step converges, so it is tried once per search
    cells = [argv for argv in bp_steps.phase_bp_cells()
             if (argv[argv.index("--s") + 1], argv[-1]) in {("8", "0"), ("40", "6")}]
    assert len(cells) == 2 and cells[0][-1] == "0"
    trial_steps, certified_vertex = convex._trial_steps, convex._certified_vertex
    rows = list(bp_steps.count_steps(cli, convex, cells,
                                     bp_steps.load_references("convex-noisy")))
    assert rows == [(1, 2, 1, True), (23, 23, 0, True)]
    assert (convex._trial_steps, convex._certified_vertex) == (trial_steps, certified_vertex)


def test_bp_steps_takes_no_arguments(capsys):
    assert bp_steps.main(["convex-noisy"]) == 2
    assert "usage" in capsys.readouterr().err


def test_cell_times_gives_each_template_a_checked_median():
    # omp, m=64, s=4: the quickest greedy-gauss template
    templates = [cell_times.WORKLOADS["greedy-gauss"].templates[0][0]]
    assert templates[0][:3] == ("phase", "--algo", "omp")
    references = cell_times.load_references("greedy-gauss")
    (median, ok), = cell_times.template_times(cli, templates, 2, references)
    assert median > 0 and ok is True
    references[" ".join(templates[0] + ("--seed", "1"))] = "0" * 64
    (_, ok), = cell_times.template_times(cli, templates, 2, references)
    assert ok is False


@pytest.mark.parametrize("args", [[], ["no-such-workload"], ["greedy-dct", "0"],
                                  ["greedy-dct", "49"], ["greedy-dct", "two"],
                                  ["greedy-dct", "2", "3"]])
def test_cell_times_usage_errors(args, capsys):
    # greedy-dct's pool holds seeds 0-47
    assert cell_times.main(args) == 2
    assert "usage" in capsys.readouterr().err
