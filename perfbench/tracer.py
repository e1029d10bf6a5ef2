"""Tracing from outside the program.

``Tracer.install`` rebinds the module attributes through which one
``sparsekit`` layer calls another (``greedy.pseudoinverse_apply``,
``bench.gen_matrix``, ``kaczmarz.rk_theory``, ...) to wrappers that record a
span per call; ``uninstall`` puts every original back.  No file of the
program changes.  A span is (name, start, end, parent, cell, thread); spans
are kept in memory behind a lock and written out by ``save``.  Counts that
the program does not expose as calls (least-squares iterations, cap hits,
matrix bytes, raw draws, swept rows, scanned supports) are read from the
arguments and results at the same boundaries.
"""

import functools
import math
import threading
import time
from array import array
from collections import Counter

import numpy as np

# the functions whose spans are recorded, by the name used in the metrics,
# and the modules through whose attribute each one is called
SPANS = (
    ("cli.main", ("cli",)),
    ("bench.rows_to_csv", ("cli",)),
    ("bench.run_phase_transition", ("bench",)),
    ("bench.run_noise_study", ("bench",)),
    ("bench.run_kaczmarz_study", ("bench",)),
    ("bench.run_algorithm", ("bench",)),
    ("ensembles.gen_matrix", ("bench", "cli")),
    ("ensembles.dct_matrix", ("ensembles",)),
    ("greedy.omp", ("bench",)),
    ("greedy.stomp", ("bench",)),
    ("greedy.romp", ("bench",)),
    ("greedy.cosamp", ("bench",)),
    ("linalg.pseudoinverse_apply", ("greedy",)),
    ("linalg.top_k", ("greedy",)),
    ("linalg.least_squares", ("linalg",)),
    ("convex.bp_equality", ("bench", "convex")),
    ("convex.bp_denoise", ("bench", "convex")),
    ("convex.reweighted_l1", ("bench",)),
    ("kaczmarz.rk_solve", ("bench",)),
    ("kaczmarz.rk_theory", ("kaczmarz",)),
    ("linalg.extreme_singular_values", ("kaczmarz",)),
    ("rip.ric_exact", ("cli",)),
    ("rip.ric_monte_carlo", ("cli",)),
    ("rng.stream_seed", ("bench", "ensembles", "kaczmarz", "rip", "cli")),
)

MAP_TRIALS = "bench._map_trials"
TRIAL = "bench._one_trial"


class Tracer:
    """Span buffer plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.counts = Counter()
        self.cell = -1                  # id of the cell being issued
        self._ids = {}
        self._cols = {k: array("q") for k in
                      ("name", "start", "end", "parent", "cell", "thread")}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []              # (owner, attribute, original)
        self.missing = []               # call sites absent from the program
        self.pool_capacity_ns = 0       # sum of fan-out wall time x threads

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        cols = self._cols
        start = time.perf_counter_ns()
        with self._lock:
            idx = len(cols["start"])
            cols["name"].append(name_id)
            cols["start"].append(start)
            cols["end"].append(start)
            cols["parent"].append(parent)
            cols["cell"].append(self.cell)
            cols["thread"].append(threading.get_native_id())
        stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self._cols["end"][idx] = end

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, name, fn, after=None, errors=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        adds counts; exceptions of type ``errors`` are counted once."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if errors is not None and isinstance(exc, errors) \
                        and not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.count(f"{name.split('.')[0]}.solver_errors")
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _present(self, owner, *attrs):
        absent = [a for a in attrs if not hasattr(owner, a)]
        self.missing += [f"{owner.__name__}.{a}" for a in absent]
        return not absent

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules):
        """Rebind call sites in ``modules`` (short name -> module)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = self._hooks(modules)
        errors = modules["convex"].SolverError
        for name, owners in SPANS:
            for owner in owners:
                mod = modules[owner]
                attr = name.split(".")[1]
                if not self._present(mod, attr):
                    continue
                self._patch(mod, attr, self.wrap(
                    name, getattr(mod, attr), after.get(name),
                    errors if name.startswith("convex.") else None))
        self._install_pool(modules["bench"])
        self._install_draws(modules["rng"].CounterRng)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self, modules):
        max_iterations = modules["reports"].HALT_MAX_ITERATIONS

        def matrix_bytes(args, kwargs, A):
            spec = args[0] if args else kwargs["spec"]
            self.count("ensembles.gen_matrix.bytes", spec.rows * spec.cols * 8)

        def greedy(name):
            def hook(args, kwargs, rep):
                self.count(f"{name}.iters", rep.iterations)
                if rep.halt_reason == max_iterations:
                    self.count(f"{name}.cap_hits")
            return hook

        def ls_iters(args, kwargs, result):
            self.count("linalg.least_squares.iters", result[1])

        def swept(args, kwargs, run):
            self.count("kaczmarz.rk_solve.rows", len(run.rows_visited))

        def supports(args, kwargs, rep):
            A = args[0]
            total = math.comb(A.shape[1], rep.r)
            if rep.trials is not None:      # sampled unless trials >= C(d, r)
                total = min(total, rep.trials)
            self.count("rip.supports", total)

        hooks = {f"greedy.{a}": greedy(f"greedy.{a}")
                 for a in ("omp", "stomp", "romp", "cosamp")}
        hooks.update({
            "ensembles.gen_matrix": matrix_bytes,
            "linalg.least_squares": ls_iters,
            "kaczmarz.rk_solve": swept,
            "rip.ric_exact": supports,
            "rip.ric_monte_carlo": supports,
        })
        return hooks

    def _install_pool(self, bench):
        """Trace the trial fan-out so worker-thread spans keep their parent
        and pool utilization can be measured."""
        if not self._present(bench, "_map_trials", "_one_trial"):
            return
        map_id = self._name_id(MAP_TRIALS)
        trial_id = self._name_id(TRIAL)
        map_trials = bench._map_trials
        one_trial = bench._one_trial

        def traced_map(grid, s, m, worker=one_trial):
            idx = self._open(map_id)

            def traced_trial(*args):
                own = self._open(trial_id, parent=idx)
                try:
                    return worker(*args)
                finally:
                    self._close(own)

            try:
                return map_trials(grid, s, m, worker=traced_trial)
            finally:
                self._close(idx)
                cols = self._cols
                with self._lock:
                    wall = cols["end"][idx] - cols["start"][idx]
                    self.pool_capacity_ns += wall * max(grid.threads, 1)

        self._patch(bench, "_map_trials", traced_map)

    def _install_draws(self, counter_rng):
        raw = counter_rng.raw

        def counted_raw(rng_self, n):
            self.count("rng.raw.draws", n)
            return raw(rng_self, n)

        self._patch(counter_rng, "raw", counted_raw)

    # -- results -----------------------------------------------------------

    def spans(self):
        """Span columns as int64 numpy arrays."""
        with self._lock:
            return {k: np.array(v, dtype=np.int64)
                    for k, v in self._cols.items()}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            **self.spans())

    def summary(self):
        """Per-name calls, busy ns and self ns.

        Self time is a span's duration minus the part of it that its child
        spans cover; children on other threads may overlap, so their
        intervals are merged first.
        """
        cols = self.spans()
        name, start, end, parent = (cols[k] for k in
                                    ("name", "start", "end", "parent"))
        dur = end - start
        covered = np.zeros(len(dur), dtype=np.int64)
        kids = np.flatnonzero(parent >= 0)
        order = kids[np.lexsort((start[kids], parent[kids]))]
        cur_parent, cur_lo, cur_hi = -1, 0, 0
        for i in order.tolist():
            p, lo, hi = int(parent[i]), int(start[i]), int(end[i])
            if p != cur_parent or lo > cur_hi:
                if cur_parent >= 0:
                    covered[cur_parent] += cur_hi - cur_lo
                cur_parent, cur_lo, cur_hi = p, lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_parent >= 0:
            covered[cur_parent] += cur_hi - cur_lo
        n = len(self.names)
        return {
            "calls": np.bincount(name, minlength=n),
            "busy_ns": np.bincount(name, weights=dur, minlength=n),
            "self_ns": np.bincount(name, weights=dur - covered, minlength=n),
            "names": list(self.names),
            "trial_ns": float(dur[name == self._ids[TRIAL]].sum())
            if TRIAL in self._ids else 0.0,
        }
