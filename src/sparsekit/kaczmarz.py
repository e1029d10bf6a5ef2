"""Randomized Kaczmarz iteration with row-norm-squared sampling.

Rows are drawn with probability ||a_i||^2 / ||A||_F^2 via inverse-CDF
binary search on the precomputed cumulative squared norms.  The solver
itself never sees the true solution; error logging against a reference is
supplied by the caller.  The convergence constant R and the noise level
gamma are properties of the matrix and the residual, not of a run:
``rk_theory`` computes them and ``rk_solve`` only sweeps.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_count, as_matrix, as_vector, extreme_singular_values
from .rng import CounterRng, as_seed, stream_seed


@dataclass
class KaczmarzRun:
    iterates_logged: list        # (iteration, ||x_k - x_ref||) pairs
    final_estimate: np.ndarray
    rows_visited: np.ndarray = field(repr=False)


def rk_theory(A, residual=None):
    """The convergence constant R and the noise level gamma.

    R = ||A^-1||^2 ||A||_F^2 with ||A^-1|| = 1/sigma_min(A);
    gamma = max_i |r_i| / ||a_i||_2 (0 when no residual is given).  An A
    whose ||a_i||^2, ||A||_F^2 or A'A overflows raises ``ValueError``.
    """
    A = as_matrix(A)
    with np.errstate(over="ignore"):
        row_norms = np.linalg.norm(A, axis=1)
        frob2 = float(np.sum(A**2))
    if np.any(row_norms == 0):
        raise ValueError("matrix has a zero row")
    if frob2 == np.inf or not np.isfinite(row_norms).all():
        raise ValueError("the squared norms of A overflow; rescale A")
    smin, smax = extreme_singular_values(A)
    if smin <= 1e-12 * max(smax, 1.0):
        raise ValueError("matrix is rank deficient; R is undefined")
    R = frob2 / smin**2
    if residual is None:
        return R, 0.0
    r = as_vector(residual, A.shape[0], "residual")
    return R, float(np.max(np.abs(r) / row_norms))


def rk_solve(A, b, x0, iters, seed=0, log_stride=1, x_ref=None):
    """Run ``iters`` randomized row projections on the system A x = b.

    When ``x_ref`` is given, ||x_k - x_ref|| is logged at iteration 0,
    every ``log_stride`` (>= 1) iterations, and at the final iterate.  Any
    A without zero rows is accepted, including wide or rank-deficient ones;
    callers that need the constants of the error bound call ``rk_theory``.
    """
    A = as_matrix(A)
    m, n = A.shape
    b = as_vector(b, m, "b")
    x = as_vector(x0, n, "x0").copy()
    iters = as_count(iters, "iters", low=0)
    log_stride = as_count(log_stride, "log_stride")
    weights = np.einsum("ij,ij->i", A, A)
    if np.any(weights == 0):
        raise ValueError("matrix has a zero row")
    cum = np.cumsum(weights)

    rng = CounterRng(stream_seed(as_seed(seed), "kaczmarz"))
    picks = rng.uniform(iters) * cum[-1]
    rows = np.searchsorted(cum, picks, side="right")

    logged = []
    if x_ref is not None:
        x_ref = as_vector(x_ref, n, "x_ref")
        logged.append((0, float(np.linalg.norm(x - x_ref))))
    for k, i in enumerate(rows, start=1):
        x += ((b[i] - A[i] @ x) / weights[i]) * A[i]
        if x_ref is not None and (k % log_stride == 0 or k == iters):
            logged.append((k, float(np.linalg.norm(x - x_ref))))
    return KaczmarzRun(logged, x, rows)
