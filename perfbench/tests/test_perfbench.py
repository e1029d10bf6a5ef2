"""Tests of the benchmark itself: tracing leaves output and the program
untouched, workloads are a pure function of the seed, and the metric names
agree with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import cell_key, load_references, matches  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, reference_cells, round_cells  # noqa: E402

SMALL_CELLS = [
    ("phase", "--algo", "omp", "--d", "64", "--m", "32", "--s", "3",
     "--trials", "3", "--seed", "1"),
    ("phase", "--algo", "stomp", "--d", "64", "--m", "32", "--s", "3",
     "--trials", "3", "--seed", "1"),
    ("phase", "--algo", "romp", "--d", "64", "--m", "32", "--s", "3",
     "--trials", "3", "--seed", "1"),
    ("phase", "--algo", "cosamp", "--d", "64", "--m", "32", "--s", "4",
     "--trials", "4", "--threads", "2", "--ensemble", "partial_dct",
     "--seed", "1"),
    ("phase", "--algo", "bp", "--d", "32", "--m", "16", "--s", "2",
     "--trials", "2", "--seed", "1"),
    ("noise", "--algo", "bp", "--d", "32", "--m", "16", "--s", "2",
     "--noise-fraction", "0.1", "--trials", "1", "--seed", "1"),
    ("noise", "--algo", "rwl1", "--d", "32", "--m", "16", "--s", "2",
     "--noise-fraction", "0.1", "--trials", "1", "--seed", "1"),
    ("kaczmarz", "--m", "20", "--n", "10", "--iters", "100", "--trials", "2",
     "--seed", "1"),
    ("ric", "--d", "12", "--m", "8", "--r", "2", "--seed", "1"),
    ("ric", "--d", "40", "--m", "12", "--r", "3", "--mode", "monte_carlo",
     "--trials", "50", "--seed", "1"),
]


@pytest.fixture(scope="module")
def modules():
    return run.import_sparsekit()


def _call_sites(modules):
    """Every attribute the tracer may rebind, as currently bound."""
    sites = {(owner, name.split(".")[1]) for name, owners in SPANS
             for owner in owners}
    sites |= {("bench", "_map_trials"), ("bench", "_one_trial")}
    found = {site: getattr(modules[site[0]], site[1]) for site in sites}
    found[("CounterRng", "raw")] = modules["rng"].CounterRng.raw
    return found


def test_traced_output_is_byte_identical_and_wrappers_are_removed(modules):
    before = _call_sites(modules)
    plain = [run.run_cell(modules["cli"], argv) for argv in SMALL_CELLS]
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert _call_sites(modules) != before
        traced = [run.run_cell(modules["cli"], argv) for argv in SMALL_CELLS]
    finally:
        tracer.uninstall()
    assert _call_sites(modules) == before
    assert tracer.missing == []
    for argv, a, b in zip(SMALL_CELLS, plain, traced):
        assert a[1] == 0 and b[1] == 0, (argv, a[3], b[3])
        assert a[2] == b[2], argv

    summary = tracer.summary()
    calls = dict(zip(summary["names"], summary["calls"].tolist()))
    for name, _ in SPANS:
        assert calls.get(name, 0) > 0, name
    assert calls["cli.main"] == len(SMALL_CELLS)
    assert (summary["self_ns"] >= 0).all()
    assert (summary["self_ns"] <= summary["busy_ns"]).all()
    metrics = run.layer_metrics(tracer, 1.0, 1.0)
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert 0.0 < metrics["bench.pool_utilization"] <= 1.0
    assert metrics["linalg.least_squares.iters"] > 0
    assert metrics["rng.raw.draws"] > 0


def test_tracer_counts_repeat_exactly(modules):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(modules)
        try:
            for argv in SMALL_CELLS:
                run.run_cell(modules["cli"], argv)
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.counts),
                       tracer.summary()["calls"].tolist()))
    assert counts[0] == counts[1]


def test_workload_generation_is_a_pure_function_of_the_seed():
    script = ("import sys, json; sys.path.insert(0, sys.argv[1]); "
              "from workloads import WORKLOADS, round_cells; "
              "print(json.dumps({w: [round_cells(w, 7, r) for r in range(3)] "
              "for w in WORKLOADS}))")
    outputs = [
        subprocess.run([sys.executable, "-c", script, str(HERE)],
                       env={"PYTHONHASHSEED": str(h)}, capture_output=True,
                       text=True, check=True).stdout
        for h in (1, 2)
    ]
    assert outputs[0] == outputs[1]
    here = {w: [[list(c) for c in round_cells(w, 7, r)] for r in range(3)]
            for w in WORKLOADS}
    assert json.loads(outputs[0]) == here
    for w in WORKLOADS:
        assert round_cells(w, 7, 0) != round_cells(w, 8, 0)
        assert round_cells(w, 7, 0) != round_cells(w, 7, 1)


def test_every_issuable_cell_has_a_reference():
    for w in WORKLOADS:
        refs = load_references(w)
        assert set(refs) == {cell_key(a) for a in reference_cells(w)}
        for seed in range(3):
            for r in range(4):
                assert all(cell_key(a) in refs for a in round_cells(w, seed, r))


def test_convex_check_tolerates_error_fields_only():
    argv = ("noise", "--algo", "bp", "--seed", "0")
    ref = ("algo,d,m,s,trials,seed,noise_mode,mean_error_ratio\n"
           "bp,256,128,8,1,0,measurement,0.7275225951737601\n")
    refs = {cell_key(argv): ref}
    assert matches(argv, ref, refs)
    assert matches(argv, ref.replace("0.7275225951737601", "0.72752"), refs)
    assert not matches(argv, ref.replace("0.7275225951737601", "0.74"), refs)
    assert not matches(argv, ref.replace(",1,0,", ",2,0,"), refs)
    phase = ("phase", "--algo", "bp", "--seed", "0")
    row = ("algo,d,m,s,trials,seed,success_count,success_rate,"
           "mean_normalized_error,mean_iterations\n"
           "bp,256,128,8,1,0,1,1.0,2.4e-11,1.0\n")
    refs = {cell_key(phase): row}
    assert matches(phase, row.replace("1.0\n", "17.0\n"), refs)
    assert matches(phase, row.replace("2.4e-11", "3.1e-9"), refs)
    assert not matches(phase, row.replace(",1,1.0,", ",0,0.0,"), refs)
    exact = ("phase", "--algo", "omp", "--seed", "0")
    assert not matches(exact, row, {cell_key(exact): row})


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
