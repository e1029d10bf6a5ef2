"""Restricted isometry constants: exact enumeration and Monte-Carlo bounds.

The constant of order r is the smallest delta with
(1-delta)||x||^2 <= ||Ax||^2 <= (1+delta)||x||^2 for all r-sparse x,
i.e. the worst deviation of any r-column Gram spectrum from 1.  Exact mode
enumerates supports lexicographically (feasible at desk scale only);
Monte-Carlo mode samples supports and reports a lower bound.

Both scan b = max(1, BATCH_BYTES // (8 max(d, r max(m, r)))) supports at a
time, so a batch's columns, Gram matrices and raw keys each fit the budget
whatever d, m, r and the trial count.  Each spectrum is computed on its own
and the first maximiser is kept, so b never changes a result.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_count, as_matrix
from .rng import BATCH_BYTES, CounterRng, stream_seed, stream_subsets


ENUMERATION_CAP = 2_000_000


class EnumerationCapError(RuntimeError):
    """Raised when exact enumeration would exceed the configured cap."""


@dataclass
class RicReport:
    r: int
    delta: float
    mode: str                      # "exact" or "monte_carlo"
    witness: np.ndarray            # support attaining delta
    delta_lower: float             # max of 1 - sigma_min^2
    delta_upper: float             # max of sigma_max^2 - 1
    trials: int | None = None


@dataclass
class ConsequenceCheck:
    passed: bool
    worst_ratio: float             # max over battery of lhs / rhs


def _batch(m, d, r):
    """Supports per scan batch (see the module docstring)."""
    return max(1, BATCH_BYTES // (8 * max(d, r * max(m, r))))


def _support_chunks(d, r, b):
    it = itertools.combinations(range(d), r)
    while block := list(itertools.islice(it, b)):
        yield np.asarray(block, dtype=np.intp)


def _sampled_chunks(d, r, trials, prefix, b):
    """Supports t = 0 .. trials-1, each ``CounterRng(stream_seed(seed, "ric",
    t)).subset(d, r)`` for ``prefix = stream_seed(seed, "ric")``, in blocks
    of b."""
    for lo in range(0, trials, b):
        yield stream_subsets(prefix, np.arange(lo, min(lo + b, trials)), d, r)


def _gram_extremes(A, supports):
    """Smallest/largest Gram eigenvalues for a batch of supports."""
    cols = A[:, supports]                      # (m, n, r)
    G = np.einsum("mnr,mns->nrs", cols, cols)
    eigs = np.linalg.eigvalsh(G)               # ascending
    return eigs[:, 0], eigs[:, -1]


def _scan(A, support_iter):
    best = -np.inf
    best_witness = None
    lower = 0.0
    upper = 0.0
    for supports in support_iter:
        lo, hi = _gram_extremes(A, supports)
        deltas = np.maximum(hi - 1.0, 1.0 - lo)
        i = int(np.argmax(deltas))             # first attaining in chunk
        if deltas[i] > best:
            best = float(deltas[i])
            best_witness = supports[i].copy()
        lower = max(lower, float(np.max(1.0 - lo)))
        upper = max(upper, float(np.max(hi - 1.0)))
    return best, best_witness, lower, upper


def ric_exact(A, r, cap=ENUMERATION_CAP):
    """Exact restricted isometry constant of order r by full enumeration."""
    A = as_matrix(A)
    m, d = A.shape
    r = as_count(r, "order r")
    if r > d:
        raise ValueError(f"order r={r} out of range for {d} columns")
    n_supports = math.comb(d, r)
    if n_supports > cap:
        raise EnumerationCapError(
            f"C({d},{r}) = {n_supports} supports exceeds cap {cap}; "
            "use ric_monte_carlo for a sampled lower bound"
        )
    delta, witness, lower, upper = _scan(
        A, _support_chunks(d, r, _batch(m, d, r)))
    return RicReport(r, max(delta, 0.0), "exact", witness, lower, upper)


def ric_monte_carlo(A, r, trials, seed=0):
    """Sampled lower bound on the order-r constant.

    The t-th sampled support is ``CounterRng(stream_seed(seed, "ric",
    t)).subset(d, r)``; it depends only on (seed, t), so enlarging
    ``trials`` extends the same sample and the report is non-decreasing.
    The supports are drawn a batch at a time (``rng.stream_subsets``),
    giving exactly the supports of that per-sample loop.  Exhaustive
    coverage (trials >= C(d, r)) falls back to enumeration.
    """
    A = as_matrix(A)
    m, d = A.shape
    r = as_count(r, "order r")
    if r > d:
        raise ValueError(f"order r={r} out of range for {d} columns")
    trials = as_count(trials, "trials")
    b = _batch(m, d, r)
    if math.comb(d, r) <= trials:
        chunks = _support_chunks(d, r, b)
    else:
        chunks = _sampled_chunks(d, r, trials, stream_seed(seed, "ric"), b)
    delta, witness, lower, upper = _scan(A, chunks)
    return RicReport(r, max(delta, 0.0), "monte_carlo", witness, lower, upper, trials)


def check_ric_consequences(A, s, trials=200, seed=0):
    """Evaluate standard near-isometry inequalities on a seeded battery.

    Uses exact constants; each check records the worst lhs/rhs ratio over
    the battery.  Failures are reported, not raised.
    """
    A = as_matrix(A)
    m, d = A.shape
    if not 1 <= 2 * s <= d:
        raise ValueError("need 1 <= 2s <= d")
    eps = ric_exact(A, 2 * s).delta
    exact = {2 * s: eps}

    def delta_at(r):
        if r not in exact:
            exact[r] = ric_exact(A, r).delta
        return exact[r]

    rng = CounterRng(stream_seed(seed, "ric-consequences"))
    ratios = {k: 0.0 for k in (
        "local_approximation", "spectral_norm", "almost_orthogonality",
        "ric_order_scaling", "energy_bound")}
    slack = 1e-9  # absolute room for float noise when eps == 0

    def ratio(lhs, rhs):
        return lhs / rhs if rhs > 0 else (0.0 if lhs <= slack else np.inf)

    for _ in range(trials):
        # local approximation: ||y|_I - x|_I|| <= 2.03 eps ||x|| for sparse x
        supp = rng.subset(d, s)
        x = np.zeros(d)
        x[supp] = rng.normal(s)
        y = A.T @ (A @ x)
        I = rng.subset(d, 1 + int(rng.uniform(1)[0] * (s - 1)) if s > 1 else 1)
        lhs = np.linalg.norm(y[I] - x[I])
        ratios["local_approximation"] = max(
            ratios["local_approximation"], ratio(lhs, 2.03 * eps * np.linalg.norm(x)))

        # spectral norm: ||(A'z)|_I|| <= (1+eps)||z|| for |I| <= 2s
        z = rng.normal(m)
        I2 = rng.subset(d, 2 * s)
        lhs = np.linalg.norm((A.T @ z)[I2])
        ratios["spectral_norm"] = max(
            ratios["spectral_norm"], ratio(lhs, (1.0 + eps) * np.linalg.norm(z)))

        # almost orthogonality: ||P_I P_J|| <= 2.2 eps for disjoint I, J
        both = rng.subset(d, 2 * s)
        cut = 1 + int(rng.uniform(1)[0] * (2 * s - 1))
        perm = rng.permutation(2 * s)
        I3 = np.sort(both[perm[:cut]])
        J3 = np.sort(both[perm[cut:]])
        if I3.size and J3.size:
            QI, _ = np.linalg.qr(A[:, I3])
            QJ, _ = np.linalg.qr(A[:, J3])
            lhs = np.linalg.norm(QI.T @ QJ, 2)
            ratios["almost_orthogonality"] = max(
                ratios["almost_orthogonality"], ratio(lhs, 2.2 * eps))

        # energy bound: ||Ax|| <= sqrt(1+delta_s) (||x|| + ||x||_1/sqrt(s))
        xd = rng.normal(d)
        lhs = np.linalg.norm(A @ xd)
        rhs = np.sqrt(1.0 + delta_at(s)) * (
            np.linalg.norm(xd) + np.linalg.norm(xd, 1) / np.sqrt(s))
        ratios["energy_bound"] = max(ratios["energy_bound"], ratio(lhs, rhs))

    # order scaling: delta_{c r} <= c * delta_{2r} on exact values
    for r in range(1, s + 1):
        for c in range(2, 5):
            if c * r > d or 2 * r > d or math.comb(d, c * r) > ENUMERATION_CAP:
                continue
            lhs = delta_at(c * r)
            rhs = c * delta_at(2 * r)
            ratios["ric_order_scaling"] = max(
                ratios["ric_order_scaling"], ratio(lhs, rhs))

    return {
        name: ConsequenceCheck(bool(val <= 1.0 + 1e-12), float(val))
        for name, val in ratios.items()
    }
