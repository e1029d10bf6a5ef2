"""Greedy sparse recovery: OMP, StOMP, ROMP, and CoSaMP.

All solvers take a measurement matrix A (m x d), a sample vector u (length
m), and return a :class:`RecoveryReport` whose estimate is a dense length-d
vector with tracked support.  Selection ties always break toward the
smaller index.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LsConfig,
    as_matrix,
    as_vector,
    pseudoinverse_apply,
    support,
    top_k,
)
from .reports import (
    HALT_MAX_ITERATIONS,
    HALT_PROXY_INFNORM,
    HALT_RESIDUAL_ZERO,
    HALT_SAMPLE_NORM,
    HALT_SUPPORT_FULL,
    RecoveryReport,
)

RESIDUAL_TOL = 1e-12
ROMP_RESIDUAL_TOL = 1e-6
# three conjugate-gradient steps, warm-started from the running estimate
COSAMP_LS = LsConfig("conjugate_gradient", 3, 1e-12)


@dataclass(frozen=True)
class StompConfig:
    """Stagewise thresholding: keep proxy entries above t * ||r||/sqrt(m)."""

    t: float = 2.0
    max_stages: int = 10

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("threshold parameter t must be > 0")
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")


@dataclass(frozen=True)
class CosampConfig:
    """CoSaMP settings.

    ``halting`` is one of ``fixed_iterations`` (halt_value = iteration
    count, default 6(s+1)), ``sample_norm`` (halt_value = epsilon on
    ||v||), or ``proxy_infnorm`` (halt_value = eta; halts when
    ||y||_inf <= eta/sqrt(2s)).  Norm-based modes keep ``max_iters`` as a
    safety cap (default 6(s+1)).  Every run also halts once ||v|| <=
    ``residual_tol``.  The least-squares step is always ``COSAMP_LS``:
    three conjugate-gradient iterations warm-started from the running
    estimate.
    """

    s: int
    halting: str = "fixed_iterations"
    halt_value: float | None = None
    max_iters: int | None = None
    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("sparsity s must be >= 1")
        if self.halting not in ("fixed_iterations", "sample_norm", "proxy_infnorm"):
            raise ValueError(f"unknown halting rule {self.halting!r}")
        if self.halting != "fixed_iterations" and self.halt_value is None:
            raise ValueError(f"halting rule {self.halting!r} needs a halt_value")

    @property
    def iteration_cap(self):
        if self.halting == "fixed_iterations" and self.halt_value is not None:
            return int(self.halt_value)
        if self.max_iters is not None:
            return self.max_iters
        return 6 * (self.s + 1)


def halting_check(kind, value, epsilon=None, eta=None, s=None):
    """Pure halting predicate; comparisons are inclusive at the boundary."""
    if kind == "sample_norm":
        if epsilon is None:
            raise ValueError("sample_norm check needs epsilon")
        return value <= epsilon
    if kind == "proxy_infnorm":
        if eta is None or s is None:
            raise ValueError("proxy_infnorm check needs eta and s")
        return value <= eta / np.sqrt(2 * s)
    raise ValueError(f"unknown halting kind {kind!r}")


def prune(b, s):
    """Keep the s largest-magnitude entries (ties to smaller index), zero the rest."""
    b = as_vector(b)
    out = np.zeros_like(b)
    if s <= 0:
        return out
    keep = top_k(b, min(s, b.size))
    out[keep] = b[keep]
    return out


def unrecoverable_energy(x, s, e_norm=0.0):
    """Baseline error ||x - x_s|| + ||x - x_s||_1 / sqrt(s) + ||e||."""
    if s < 1:
        raise ValueError("s must be >= 1")
    x = as_vector(x)
    tail = x - prune(x, s)
    return float(
        np.linalg.norm(tail) + np.linalg.norm(tail, 1) / np.sqrt(s) + e_norm
    )


@dataclass
class BandProfile:
    bands: dict          # band index j -> sorted entry indices
    profile: int


def band_profile(x):
    """Dyadic magnitude bands of a nonzero vector and their count.

    Band j holds the entries with 2^-(j+1) ||x||^2 < |x_i|^2 <= 2^-j ||x||^2;
    together the bands partition the support.
    """
    x = as_vector(x)
    total = float(x @ x)
    if total == 0:
        raise ValueError("band profile is undefined for the zero vector")
    idx = np.flatnonzero(x)
    ratios = x[idx] ** 2 / total
    j = np.floor(-np.log2(ratios)).astype(int)
    # fix boundary rounding so membership matches the defining inequalities
    j = np.where(ratios <= 2.0 ** (-(j + 1.0)), j + 1, j)
    j = np.where(ratios > 2.0 ** (-j.astype(float)), j - 1, j)
    bands = {int(b): idx[j == b] for b in np.unique(j)}
    return BandProfile(bands, len(bands))


def regularize(indices, values):
    """Maximal-energy subset with pairwise comparable magnitudes.

    Candidates are contiguous intervals of the magnitude-sorted sequence:
    the greedy factor-2 runs starting at each undominated entry, plus the
    dyadic shells anchored at ||values||_2.  Every candidate satisfies
    |v_i| <= 2 |v_j| for all members; the first maximal-energy candidate
    wins.  Returns the selected indices sorted ascending.
    """
    indices = np.asarray(indices, dtype=np.intp).reshape(-1)
    values = as_vector(values, indices.size, "values")
    if indices.size == 0:
        raise ValueError("regularize needs a nonempty index set")
    order = np.argsort(-np.abs(values), kind="stable")
    mag = np.abs(values)[order]
    n = mag.size

    candidates = []
    w = 0
    while w < n:
        first = mag[w]
        j = w
        while j < n and mag[j] >= first / 2.0:
            j += 1
        candidates.append((w, j))
        w = j
    norm = float(np.linalg.norm(mag))
    if norm > 0:
        k0 = int(np.ceil(np.log2(max(n, 2)))) + 1
        for k in range(1, k0 + 1):
            hi = 2.0 ** (-k + 1) * norm
            lo = 2.0 ** (-k) * norm
            start = int(np.searchsorted(-mag, -hi, side="left"))
            stop = int(np.searchsorted(-mag, -lo, side="left"))
            if stop > start:
                candidates.append((start, stop))

    best_energy = -1.0
    best = (0, 1)
    for start, stop in candidates:
        energy = float(np.sum(mag[start:stop] ** 2))
        if energy > best_energy:
            best_energy = energy
            best = (start, stop)
    return np.sort(indices[order[best[0]:best[1]]])


def omp(A, u, s):
    """Orthogonal matching pursuit: s rounds of single-index selection.

    Each round picks the largest coordinate of the proxy A'r among the
    still-unselected columns, then re-fits by least squares on the running
    index set.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    if s > m:
        raise ValueError(f"sparsity s={s} exceeds {m} measurements")
    I = np.zeros(0, dtype=np.intp)
    x_hat = np.zeros(d)
    r = u.copy()
    history = []
    for _ in range(s):
        if np.linalg.norm(r) <= RESIDUAL_TOL:
            break
        y = np.abs(A.T @ r)
        y[I] = -1.0
        lam = int(np.argmax(y))
        I = np.sort(np.append(I, lam))
        x_hat = pseudoinverse_apply(A, I, u)
        r = u - A @ x_hat
        history.append(float(np.linalg.norm(r)))
    halt = (HALT_RESIDUAL_ZERO if np.linalg.norm(r) <= RESIDUAL_TOL
            else HALT_MAX_ITERATIONS)
    return RecoveryReport(x_hat, I, len(history), history, halt)


def stomp(A, u, cfg=None):
    """Stagewise OMP: threshold the proxy at t * ||r||/sqrt(m) per stage."""
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    cfg = cfg or StompConfig()
    I = np.zeros(0, dtype=np.intp)
    x_hat = np.zeros(d)
    r = u.copy()
    history = []
    halt = HALT_MAX_ITERATIONS
    stages = 0
    while stages < cfg.max_stages:
        stages += 1
        y = A.T @ r
        y[I] = 0.0
        sigma = np.linalg.norm(r) / np.sqrt(m)
        J = np.flatnonzero(np.abs(y) > cfg.t * sigma)
        if J.size == 0:
            halt = HALT_PROXY_INFNORM
            break
        if I.size + J.size > m:
            # keep the largest entries so the fit stays determined
            keep = top_k(y[J], m - I.size)
            J = J[keep]
        I = np.union1d(I, J).astype(np.intp)
        x_hat = pseudoinverse_apply(A, I, u)
        r = u - A @ x_hat
        history.append(float(np.linalg.norm(r)))
        if np.linalg.norm(r) <= RESIDUAL_TOL:
            halt = HALT_RESIDUAL_ZERO
            break
        if I.size >= m:
            halt = HALT_SUPPORT_FULL
            break
    return RecoveryReport(x_hat, I, stages, history, halt)


def romp(A, u, s):
    """Regularized OMP: select up to s proxy coordinates, keep a maximal-
    energy comparable subset, re-fit, repeat.

    Halts when the residual norm is at most ``ROMP_RESIDUAL_TOL``, the index
    set reaches 2s columns, or after s rounds.  The report's
    ``selection_history`` holds each round's selected subset.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    if s < 1:
        raise ValueError("sparsity s must be >= 1")
    if 2 * s > m:
        warnings.warn(
            f"romp with 2s={2 * s} > m={m} measurements is outside the "
            "recommended regime", stacklevel=2)
    I = np.zeros(0, dtype=np.intp)
    x_hat = np.zeros(d)
    r = u.copy()
    history = []
    selections = []
    it = 0
    while True:
        if np.linalg.norm(r) <= ROMP_RESIDUAL_TOL:
            halt = HALT_RESIDUAL_ZERO
            break
        if I.size >= 2 * s:
            halt = HALT_SUPPORT_FULL
            break
        if it >= s:
            halt = HALT_MAX_ITERATIONS
            break
        y = A.T @ r
        y[I] = 0.0
        nonzero = int(np.count_nonzero(y))
        if nonzero == 0:
            halt = HALT_PROXY_INFNORM
            break
        k = min(s, nonzero)
        order = np.argsort(-np.abs(y), kind="stable")[:k]
        J0 = regularize(order, y[order])
        if I.size + J0.size > m:
            # outside the recommended regime: keep the fit determined
            J0 = J0[top_k(y[J0], m - I.size)]
        I = np.union1d(I, J0).astype(np.intp)
        x_hat = pseudoinverse_apply(A, I, u)
        r = u - A @ x_hat
        it += 1
        history.append(float(np.linalg.norm(r)))
        selections.append(J0)
    return RecoveryReport(x_hat, I, it, history, halt,
                          selection_history=selections)


def cosamp(A, u, cfg):
    """Compressive sampling matching pursuit.

    Per iteration: proxy from the current samples, identify 2s entries,
    merge with the running support (at most 3s columns), least-squares
    estimate warm-started from the previous approximation, prune to s,
    update the samples.  The report's ``estimate_history`` holds the
    estimate after each iteration.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    s = cfg.s
    if 4 * s > m:
        warnings.warn(
            f"cosamp with 4s={4 * s} > m={m} measurements is outside the "
            "recommended regime", stacklevel=2)
    a = np.zeros(d)
    v = u.copy()
    history = []
    estimates = []
    cap = cfg.iteration_cap
    it = 0
    while True:
        vnorm = float(np.linalg.norm(v))
        if cfg.halting == "sample_norm" and halting_check(
                "sample_norm", vnorm, epsilon=cfg.halt_value):
            halt = HALT_SAMPLE_NORM
            break
        if vnorm <= cfg.residual_tol:
            halt = HALT_RESIDUAL_ZERO
            break
        if it >= cap:
            halt = HALT_MAX_ITERATIONS
            break
        y = A.T @ v
        if cfg.halting == "proxy_infnorm" and halting_check(
                "proxy_infnorm", float(np.max(np.abs(y))),
                eta=cfg.halt_value, s=s):
            halt = HALT_PROXY_INFNORM
            break
        omega = top_k(y, min(2 * s, d))
        omega = omega[y[omega] != 0.0]
        cur = support(a)
        if cur.size + omega.size > m:
            # outside the recommended regime: keep the fit determined
            omega = omega[top_k(y[omega], m - cur.size)]
        T = np.union1d(omega, cur).astype(np.intp)
        if T.size > 3 * s:
            raise RuntimeError(
                f"cosamp merged support has {T.size} > 3s={3 * s} columns")
        a = prune(pseudoinverse_apply(A, T, u, COSAMP_LS, z0=a), s)
        v = u - A @ a
        it += 1
        history.append(float(np.linalg.norm(v)))
        estimates.append(a.copy())
    return RecoveryReport(a, support(a), it, history, halt,
                          estimate_history=estimates)
