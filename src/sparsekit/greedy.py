"""Greedy sparse recovery: OMP, StOMP, ROMP, and CoSaMP.

All solvers take a measurement matrix A (m x d), a sample vector u (length
m), and return a :class:`RecoveryReport` whose estimate is a dense length-d
vector with tracked support.  Selection ties always break toward the
smaller index.

A least-squares fit is determined on at most m columns, so no solver's
index set grows past m: a step whose candidates would pass m keeps the
largest-magnitude ones (``_cap_columns``), and OMP runs min(s, m) rounds.

Each solver also takes ``adjoint``, a function r -> A'r (such as
``ensembles.fast_adjoint(spec)`` for a partial DCT), and forms its proxy
through it in place of the dense product.  Least squares always reads A's
own columns, so an estimate depends only on the index sets selected.  Those
match the dense run's unless two proxy entries tie to within rounding,
which for the partial DCT is a few 1e-13 of the largest entry.

OMP, ROMP and CoSaMP gather one block A[:, I] an iteration, fit on it with
``linalg.least_squares`` and form the residual from the same block (CoSaMP
from the columns that its prune keeps), so with a fast adjoint an iteration
reads no m x d block of A.  OMP's block grows by the one column it selects:
it holds A[:, I] transposed, C-ordered, and inserts each new column as a
row, so a round reads one column of A.  Every block is F-ordered, as
``A[:, I]`` of a C-ordered A is: conjugate gradient's BLAS products round a
C-ordered block otherwise.  StOMP fits through ``pseudoinverse_apply`` and
keeps the full product A x_hat: its threshold t ||r|| / sqrt(m) acts on a
residual near the noise floor, and the support-column sum, rounded in
another order, moves some of its selections.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (
    LsConfig,
    as_count,
    as_indices,
    as_matrix,
    as_vector,
    pseudoinverse_apply,
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
        if isinstance(self.t, (bool, np.bool_)) or not 0 < self.t < np.inf:
            raise ValueError(
                "threshold parameter t must be > 0 and finite, not a boolean")
        object.__setattr__(self, "max_stages", as_count(self.max_stages, "max_stages"))


@dataclass(frozen=True)
class CosampConfig:
    """CoSaMP settings.

    ``halting`` is one of ``fixed_iterations`` (run ``max_iters``
    iterations), ``sample_norm`` (halt_value = epsilon >= 0; halts when
    ||v|| <= epsilon), or ``proxy_infnorm`` (halt_value = eta >= 0; halts
    when ||A'v||_inf <= eta/sqrt(2s)).  Both tests include the boundary;
    ``fixed_iterations`` takes no halt_value.  ``max_iters``, a whole
    number >= 1 when given, caps every rule (default 6(s+1)).  The least-
    squares step is always ``COSAMP_LS``: three conjugate-gradient
    iterations warm-started from the running estimate.
    """

    s: int
    halting: str = "fixed_iterations"
    halt_value: float | None = None
    max_iters: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "s", as_count(self.s, "sparsity s"))
        if self.halting not in ("fixed_iterations", "sample_norm", "proxy_infnorm"):
            raise ValueError(f"unknown halting rule {self.halting!r}")
        if self.halting == "fixed_iterations":
            if self.halt_value is not None:
                raise ValueError("fixed_iterations takes max_iters, not halt_value")
        elif self.halt_value is None or not self.halt_value >= 0:
            raise ValueError(f"halting rule {self.halting!r} needs halt_value >= 0")
        if self.max_iters is not None:
            object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))

    @property
    def iteration_cap(self):
        return self.max_iters or cosamp_cap(self.s)


def cosamp_cap(s):
    """CoSaMP's iteration cap when none is set: 6(s+1) (Needell-Tropp)."""
    return 6 * (s + 1)


def prune(b, s):
    """Keep the s largest-magnitude entries (ties to smaller index), zero the rest."""
    b = as_vector(b)
    out = np.zeros_like(b)
    keep = top_k(b, min(as_count(s, "s", low=0), b.size))
    out[keep] = b[keep]
    return out


def _cap_columns(y, J, held, m):
    """J, or its m - held largest-magnitude proxy entries y[J] (ties to the
    smaller index) when held + |J| would pass m columns."""
    room = m - held
    return J if J.size <= room else J[top_k(y[J], room)]


def regularize(indices, values):
    """Maximal-energy subset with pairwise comparable magnitudes.

    Candidates are contiguous intervals of mag, the magnitudes in a stable
    descending sort.  With ``ends[i]`` one past the last entry within a
    factor 2 of mag[i], the greedy runs (w, ends[w]) start at w = 0 and at
    each run's end.  The dyadic shells (norm 2^-k, norm 2^(1-k)], k = 1..k0,
    with norm = ||values||_2, are the rest.  Every candidate satisfies
    |v_i| <= 2 |v_j| for all members; the first maximal-energy candidate
    wins.  Returns the selected indices sorted ascending.
    """
    indices = as_indices(indices, "indices")
    values = as_vector(values, indices.size, "values")
    if indices.size == 0:
        raise ValueError("regularize needs a nonempty index set")
    order = np.argsort(-np.abs(values), kind="stable")
    mag = np.abs(values)[order]
    neg = -mag
    ends = np.searchsorted(neg, neg / 2.0, side="right")
    candidates, w = [], 0
    while w < mag.size:
        candidates.append((w, ends[w]))
        w = ends[w]
    norm = float(np.linalg.norm(mag))
    if norm > 0:
        k0 = int(np.ceil(np.log2(max(mag.size, 2)))) + 1
        edges = np.searchsorted(neg, -(norm * 2.0 ** -np.arange(k0 + 1)))
        candidates += [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    best = np.argmax([np.sum(mag[a:b] ** 2) for a, b in candidates])
    start, stop = candidates[best]
    return np.sort(indices[order[start:stop]])


def omp(A, u, s, adjoint=None):
    """Orthogonal matching pursuit: min(s, m, d) rounds of single-index
    selection.

    Each round picks the largest coordinate of the proxy A'r (through
    ``adjoint`` when given) among the still-unselected columns, then re-fits
    by least squares on the running index set.  It halts with
    ``residual_zero`` once ||r|| <= RESIDUAL_TOL, else with
    ``max_iterations`` after its rounds; with no columns that is at once,
    with an empty estimate.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    s = min(as_count(s, "sparsity s"), m, d)
    # the first k entries of idx are I, ascending, and the first k rows of
    # rows are A[:, I] transposed, so rows[:k].T is F-ordered as A[:, I] is
    idx = np.empty(s, dtype=np.intp)
    rows = np.empty((s, m))
    I = idx[:0]
    z = np.zeros(0)
    r = u.copy()
    rnorm = float(np.linalg.norm(r))
    history = []
    for k in range(s):
        if rnorm <= RESIDUAL_TOL:
            break
        y = np.abs(A.T @ r if adjoint is None else adjoint(r))
        y[I] = -1.0
        lam = int(np.argmax(y))
        at = int(np.searchsorted(I, lam))
        idx[at + 1:k + 1] = idx[at:k]
        rows[at + 1:k + 1] = rows[at:k]
        idx[at] = lam
        rows[at] = A[:, lam]
        I, A_I = idx[:k + 1], rows[:k + 1].T
        z, _ = linalg.least_squares(A_I, u)
        r = u - A_I @ z
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
    x_hat = np.zeros(d)
    x_hat[I] = z
    halt = HALT_RESIDUAL_ZERO if rnorm <= RESIDUAL_TOL else HALT_MAX_ITERATIONS
    return RecoveryReport(x_hat, I, len(history), history, halt)


def stomp(A, u, cfg=None, adjoint=None):
    """Stagewise OMP: threshold the proxy at t * ||r||/sqrt(m) per stage.

    The proxy goes through ``adjoint`` when given; the residual is always
    u - A x_hat over all of A (see the module docstring).
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    cfg = cfg or StompConfig()
    I = np.zeros(0, dtype=np.intp)
    x_hat = np.zeros(d)
    r = u.copy()
    rnorm = float(np.linalg.norm(r))
    history = []
    halt = HALT_MAX_ITERATIONS
    stages = 0
    while stages < cfg.max_stages:
        stages += 1
        y = A.T @ r if adjoint is None else adjoint(r)
        y[I] = 0.0
        sigma = rnorm / np.sqrt(max(m, 1))     # u = 0 when m = 0
        J = np.flatnonzero(np.abs(y) > cfg.t * sigma)
        if J.size == 0:
            halt = HALT_PROXY_INFNORM
            break
        J = _cap_columns(y, J, I.size, m)
        I = np.union1d(I, J)
        x_hat = pseudoinverse_apply(A, I, u)
        r = u - A @ x_hat
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= RESIDUAL_TOL:
            halt = HALT_RESIDUAL_ZERO
            break
        if I.size >= m:
            halt = HALT_SUPPORT_FULL
            break
    return RecoveryReport(x_hat, I, stages, history, halt)


def romp(A, u, s, adjoint=None):
    """Regularized OMP: select up to s proxy coordinates (the proxy through
    ``adjoint`` when given), keep a maximal-energy comparable subset,
    re-fit, repeat.

    Halts when the residual norm is at most ``ROMP_RESIDUAL_TOL``, the index
    set reaches 2s columns, or after s rounds.  The report's
    ``selection_history`` holds each round's selected subset.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    s = as_count(s, "sparsity s")
    if 2 * s > m:
        warnings.warn(
            f"romp with 2s={2 * s} > m={m} measurements is outside the "
            "recommended regime", stacklevel=2)
    I = np.zeros(0, dtype=np.intp)
    z = np.zeros(0)
    r = u.copy()
    rnorm = float(np.linalg.norm(r))
    history = []
    selections = []
    while True:
        if rnorm <= ROMP_RESIDUAL_TOL:
            halt = HALT_RESIDUAL_ZERO
            break
        if I.size >= 2 * s:
            halt = HALT_SUPPORT_FULL
            break
        if len(history) >= s:
            halt = HALT_MAX_ITERATIONS
            break
        y = A.T @ r if adjoint is None else adjoint(r)
        y[I] = 0.0
        nonzero = int(np.count_nonzero(y))
        if nonzero == 0:
            halt = HALT_PROXY_INFNORM
            break
        J = top_k(y, min(s, nonzero))
        J0 = _cap_columns(y, regularize(J, y[J]), I.size, m)
        I = np.union1d(I, J0)
        A_I = A[:, I]
        z, _ = linalg.least_squares(A_I, u)
        r = u - A_I @ z
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        selections.append(J0)
    x_hat = np.zeros(d)
    x_hat[I] = z
    return RecoveryReport(x_hat, I, len(history), history, halt,
                          selection_history=selections)


def cosamp(A, u, cfg, adjoint=None):
    """Compressive sampling matching pursuit.

    Per iteration: proxy from the current samples (through ``adjoint`` when
    given), identify 2s entries, merge with the running support (at most
    min(3s, m) columns), least-squares estimate warm-started from the
    previous approximation, prune it over the merged support to s entries,
    update the samples from the kept columns.  Before each iteration the
    run halts with ``sample_norm_criterion`` when the rule is ``sample_norm``
    and ||v|| <= halt_value, with ``residual_zero`` when ||v|| <=
    RESIDUAL_TOL, or at ``cfg.iteration_cap``; once the proxy y = A'v is
    formed, the ``proxy_infnorm`` rule halts when max|y| <= halt_value /
    sqrt(2s), and every rule halts with ``proxy_infnorm_criterion`` when
    the merged support is empty (y = 0 and no support held).  The report's
    ``estimate_history`` holds the estimate after each iteration.
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
    cur = np.zeros(0, dtype=np.intp)
    v = u.copy()
    history = []
    estimates = []
    cap = cfg.iteration_cap
    vnorm = float(np.linalg.norm(v))
    while True:
        if cfg.halting == "sample_norm" and vnorm <= cfg.halt_value:
            halt = HALT_SAMPLE_NORM
            break
        if vnorm <= RESIDUAL_TOL:
            halt = HALT_RESIDUAL_ZERO
            break
        if len(history) >= cap:
            halt = HALT_MAX_ITERATIONS
            break
        y = A.T @ v if adjoint is None else adjoint(v)
        if (cfg.halting == "proxy_infnorm"
                and np.max(np.abs(y)) <= cfg.halt_value / np.sqrt(2 * s)):
            halt = HALT_PROXY_INFNORM
            break
        omega = top_k(y, min(2 * s, d))
        omega = omega[y[omega] != 0.0]
        if omega.size + cur.size > m:  # only new columns count toward m
            omega = _cap_columns(
                y, np.setdiff1d(omega, cur, assume_unique=True), cur.size, m)
        T = np.union1d(omega, cur)
        if T.size == 0:                # y = 0 and no support held
            halt = HALT_PROXY_INFNORM
            break
        A_T = A[:, T]
        zT, _ = linalg.least_squares(A_T, u, a[T], COSAMP_LS)
        # the estimate is zero outside T, so pruning T prunes all of it: a
        # is prune(zT, s) on T, and cur its support
        pos = top_k(zT, min(s, T.size))
        a = np.zeros(d)
        a[T[pos]] = zT[pos]
        pos = pos[zT[pos] != 0.0]
        cur = T[pos]
        v = u - A_T[:, pos] @ zT[pos]
        vnorm = float(np.linalg.norm(v))
        history.append(vnorm)
        estimates.append(a.copy())
    return RecoveryReport(a, cur, len(history), history, halt,
                          estimate_history=estimates)
