"""Shared test utilities: independent oracles and matrix constructions."""

import itertools
import sys
import tracemalloc

import numpy as np

from sparsekit.ensembles import EnsembleSpec, NoiseSpec, SignalSpec, gen_matrix, gen_noise, gen_signal
from sparsekit.rng import CounterRng, stream_seed


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: peak is the most memory ``tracemalloc`` saw
    allocated during the call, in bytes.  Tracing always stops."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lines_run(code, fn):
    """The set of line numbers that ran in frames of the code object
    ``code`` while ``fn()`` ran, each frame's first line included.  The
    tracer that was set on entry is always set again."""
    lines = set()

    def in_frame(frame, event, arg):
        lines.add(frame.f_lineno)
        return in_frame

    def on_call(frame, event, arg):
        return in_frame(frame, event, arg) if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return lines


def near_orthonormal(m, d, noise, seed, label="northo"):
    """Orthonormal columns plus i.i.d. Gaussian noise of the given scale."""
    rng = CounterRng(stream_seed(label, seed))
    Q, _ = np.linalg.qr(rng.normal(m * d).reshape(m, d))
    return Q + noise * rng.normal(m * d).reshape(m, d)


def l1_vertex_oracle(A, u, tol=1e-9):
    """Brute-force minimum-l1 oracle by basic-solution enumeration.

    Scans every m-column basis, solves the square system, keeps feasible
    basic solutions, and returns (minimizer, unique) where ``unique`` means
    all optimal vertices coincide.  Exponential cost; tiny instances only.
    """
    m, d = A.shape
    best_val = np.inf
    solutions = []
    for T in itertools.combinations(range(d), min(m, d)):
        sub = A[:, T]
        if sub.shape[0] != sub.shape[1]:
            continue
        try:
            z = np.linalg.solve(sub, u)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(z)):
            continue
        x = np.zeros(d)
        x[list(T)] = z
        if np.linalg.norm(A @ x - u) > 1e-8 * max(1.0, np.linalg.norm(u)):
            continue
        val = np.abs(x).sum()
        if val < best_val - tol:
            best_val = val
            solutions = [x]
        elif val <= best_val + tol:
            solutions.append(x)
    if not solutions:
        return None, False
    unique = all(np.linalg.norm(s - solutions[0]) <= 1e-7 for s in solutions)
    return solutions[0], unique


def noisy_reweighted_instance(seed):
    """Acceptance criterion 10's instance: d=256, m=128, s=30 with random
    signs and 20% relative measurement noise.  Returns (A, x, u, eps) with
    eps the noise bound handed to each reweighted solve."""
    A = gen_matrix(EnsembleSpec("gaussian", 128, 256,
                                seed=stream_seed("acc10", seed)))
    x = gen_signal(SignalSpec(256, 30, seed=stream_seed("acc10-sig", seed),
                              random_signs=True))
    u_clean = A @ x
    e = gen_noise(NoiseSpec(128, 0.2 * float(np.linalg.norm(u_clean)),
                            seed=stream_seed("acc10-noise", seed)))
    sigma = np.linalg.norm(e) / np.sqrt(128)
    eps = float(np.sqrt(sigma**2 * (128 + 2 * np.sqrt(2 * 128))))
    return A, x, u_clean + e, eps
