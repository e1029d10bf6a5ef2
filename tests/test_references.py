"""Byte-level guard on the recorded benchmark references.

Runs pool seed 0 of every ``greedy-gauss``, ``greedy-dct`` and ``analysis``
cell template through ``cli.main`` and checks the output with the
benchmark's own ``check.matches``.  Those references are byte-exact, so a
change in the output of any greedy, partial-DCT, RIC or Kaczmarz path fails
here as well as in the benchmark.  The ``kaczmarz`` template also runs at
pool seed 3: at seed 0 the Jacobi kernel stops through its off-diagonal
test, at seed 3 through its idle-sweep stop.  Of the convex workload only the
``phase --algo bp`` templates run here (about 20 ms each), which guards
``bp_equality``; its slow noise and reweighted-l1 cells are left to the
benchmark.  Convex cells are checked to ``check.py``'s relative tolerance.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from check import cell_key, load_references, matches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sparsekit import cli  # noqa: E402

BYTE_EXACT = ("greedy-gauss", "greedy-dct", "analysis")
CELLS = [(name, argv + ("--seed", "0"))
         for name in BYTE_EXACT for argv, _ in WORKLOADS[name].templates]
CELLS += [("analysis", argv + ("--seed", "3"))
          for argv, _ in WORKLOADS["analysis"].templates
          if argv[0] == "kaczmarz"]
CELLS += [("convex-noisy", argv + ("--seed", "0"))
          for argv, _ in WORKLOADS["convex-noisy"].templates
          if argv[:3] == ("phase", "--algo", "bp")]


@pytest.fixture(scope="module")
def references():
    return {name: load_references(name) for name in {n for n, _ in CELLS}}


@pytest.mark.parametrize("name, argv", CELLS,
                         ids=[f"{n}:{cell_key(a)}" for n, a in CELLS])
def test_seed_zero_cell_matches_reference(name, argv, references):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    assert matches(argv, out.getvalue(), references[name])
