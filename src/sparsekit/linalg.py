"""Deterministic dense linear algebra kernels.

Input validation (counts, matrices, vectors, index sets), iterative least
squares (Richardson and conjugate gradient on the normal equations), extreme
singular values via cyclic Jacobi on the Gram matrix, and magnitude top-k
selection.  Everything here is a pure function of its inputs; no
randomness, no shared state.

Every kernel checks the entries it reads for finiteness.
``least_squares`` checks the column block it is given, and
``pseudoinverse_apply`` reads only its support columns, so it checks only
those; callers that loop over supports (the greedy solvers) check the whole
matrix once up front.  StOMP fits through ``pseudoinverse_apply`` with the
default settings; OMP, ROMP and CoSaMP gather their own block and call
``least_squares`` on it, since they form the residual from that block.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

LS_METHODS = ("richardson", "conjugate_gradient")


class DivergenceError(RuntimeError):
    """Richardson iteration diverged (splitting norm >= 1)."""


class JacobiSweepCapError(RuntimeError):
    """Cyclic Jacobi still rotated in its last allowed sweep."""


@dataclass(frozen=True)
class LsConfig:
    """Iterative least-squares settings.

    ``max_iters=None`` means 3*|T| for a T-column system; ``tol`` is the
    relative normal-equation residual target (0 disables early stopping).
    """

    method: str = "conjugate_gradient"
    max_iters: int | None = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.method not in LS_METHODS:
            raise ValueError(f"unknown least-squares method {self.method!r}")
        if self.max_iters is not None:
            object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")


def is_whole(value, low=-math.inf):
    """Whether ``value`` is a whole number >= ``low`` (3.0 is; 2.5, NaN, "3" not)."""
    try:
        return bool(value >= low and float(value).is_integer())
    except (TypeError, ValueError, OverflowError):
        return False


def as_count(value, name, low=1):
    """``int(value)`` for a whole number >= ``low``, else ``ValueError``;
    a boolean is not a count."""
    if isinstance(value, (bool, np.bool_)) or not is_whole(value, low):
        raise ValueError(f"{name} must be a whole number >= {low}")
    return int(value)


def as_indices(indices, name):
    """Flat intp ``indices``.  Integer input passes on its dtype alone; other
    input must hold whole numbers in the intp range.  Anything else, a
    boolean mask included, raises ``ValueError``."""
    idx = np.asarray(indices).reshape(-1)
    if idx.dtype.kind == "b":
        raise ValueError(f"{name} must be indices, not a boolean mask")
    if idx.dtype.kind in "iu":
        return idx.astype(np.intp, copy=False)
    whole = idx.astype(float)
    if not ((np.abs(whole) < 2.0**63) & (whole == np.trunc(whole))).all():
        raise ValueError(f"{name} must hold whole numbers")
    return whole.astype(np.intp)


_DEFAULT_LS = LsConfig()
_TINY = np.finfo(float).tiny


def _as_2d(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    return A


def as_matrix(A):
    A = _as_2d(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(x, length=None, name="vector"):
    x = np.asarray(x, dtype=float).reshape(-1)
    if length is not None and x.size != length:
        raise ValueError(f"{name} has length {x.size}, expected {length}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} entries must be finite")
    return x


def as_index_set(indices, d):
    """Validate a strictly increasing set of column indices in [0, d)."""
    idx = as_indices(indices, "index set")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= d:
            raise IndexError(f"index out of range for {d} columns")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("index set must be strictly increasing")
    return idx


def least_squares(A_T, u, z0=None, cfg=None):
    """Iteratively solve min_z ||A_T z - u||_2.

    Richardson uses the splitting M = A_T' A_T - I (requires ||M|| < 1);
    conjugate gradient runs on the normal equations.  Stops when the
    relative normal-equation residual drops below ``cfg.tol`` or after
    ``cfg.max_iters`` updates.  Returns (z, iterations_used).

    The greedy benchmark references are byte-exact and every greedy fit
    runs through conjugate gradient, so it takes the same IEEE operations
    in the same order as the kernel first written (kept frozen in the
    tests as ``cgnr_reference``).  Work vectors written in place only cut
    the per-iteration overhead.  A cold start (``z0=None``) skips the matvec
    with z = 0: its residual is u and its first A_T' r is A_T' u.
    """
    A_T = as_matrix(A_T)
    m, k = A_T.shape
    u = as_vector(u, m, "u")
    cfg = cfg or _DEFAULT_LS
    if k == 0:
        return np.zeros(0), 0
    z = None if z0 is None else as_vector(z0, k, "z0")
    max_iters = cfg.max_iters or 3 * k

    atu = A_T.T @ u
    target = cfg.tol * math.sqrt(atu.dot(atu))

    if cfg.method == "richardson":
        z = np.zeros(k) if z is None else z
        return _richardson(A_T, z, atu, target, max_iters)
    return _cgnr(A_T, u, z, atu, target, max_iters)


def _richardson(A_T, z, atu, target, max_iters):
    gram_z = A_T.T @ (A_T @ z)
    res0 = np.linalg.norm(gram_z - atu)
    for it in range(1, max_iters + 1):
        # z <- A'u - M z with M = A'A - I
        z = atu - (gram_z - z)
        gram_z = A_T.T @ (A_T @ z)
        res = np.linalg.norm(gram_z - atu)
        if res <= target:
            return z, it
        if res > 10.0 * max(res0, _TINY):
            raise DivergenceError(
                "Richardson iteration diverged; the restricted Gram matrix "
                "is not close enough to the identity"
            )
    return z, max_iters


def _cgnr(A_T, u, z, atu, target, max_iters):
    m, k = A_T.shape
    if z is None:
        z = np.zeros(k)
        r, s = u.copy(), atu
    else:
        z = z.copy()
        r = u - A_T @ z
        s = A_T.T @ r
    if A_T.flags.forc:
        # the BLAS call that `@` makes on a C- or F-ordered block
        matvec, rmatvec = A_T.dot, A_T.T.dot
    else:
        # `@` may sum a strided block in its own loop, where dot would copy
        # it for BLAS and round otherwise
        matvec, rmatvec = partial(np.matmul, A_T), partial(np.matmul, A_T.T)
    p = s.copy()
    q, step, zstep = np.empty(m), np.empty(m), np.empty(k)
    gamma = s.dot(s)
    # bound and local names, and out as a positional argument, because the
    # call overhead is most of the cost at these lengths
    mul, add, sub = np.multiply, np.add, np.subtract
    it = 0
    while it < max_iters:
        matvec(p, q)
        qq = q.dot(q)
        if qq <= _TINY:
            break
        it += 1
        alpha = gamma / qq
        mul(p, alpha, zstep)            # z <- z + alpha p
        add(z, zstep, z)
        mul(q, alpha, step)             # r <- r - alpha q
        sub(r, step, r)
        rmatvec(r, s)
        gamma_new = s.dot(s)
        if math.sqrt(gamma_new) <= target:
            break
        mul(p, gamma_new / gamma, p)    # p <- s + (gamma_new / gamma) p
        add(s, p, p)
        gamma = gamma_new
    return z, it


def pseudoinverse_apply(A, T, u):
    """Least-squares solution on the columns T, zero elsewhere, through
    ``least_squares`` with its default settings.

    Only the columns in T are read, and only they are checked for finite
    entries: a NaN or inf in a column of T raises ``ValueError``, while one
    outside T does not affect the result.  u is checked for every T, the
    empty one too.  StOMP, its one caller here, checks all of A once on
    entry, so this call skips the m x d scan it would repeat every stage.
    """
    A = _as_2d(A)
    m, d = A.shape
    idx = as_index_set(T, d)
    if idx.size > m:
        raise ValueError(f"support size {idx.size} exceeds row count {m}")
    x = np.zeros(d)
    x[idx], _ = least_squares(A[:, idx], u)
    return x


def _jacobi_eigenvalues(G, tol=1e-15, max_sweeps=60):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    The Kaczmarz benchmark references are byte-exact, and R comes from the
    smallest of these eigenvalues, so every entry goes through the same
    IEEE operations in the same order as the kernel first written (kept
    frozen in the tests).  Python floats, and ufuncs writing through row
    and column views built once into two fixed buffers, only cut the
    per-rotation overhead.

    A sweep runs while the off-diagonal norm exceeds ``tol`` times the
    Frobenius norm (at least 1).  That norm is the square root of a
    difference of sums, so cancellation can hold it near 1e-8 of the scale
    long after the rotations stop.  So a sweep that rotates no pair also
    ends the loop: G is unchanged and every later sweep would skip every
    pair.  Still rotating after ``max_sweeps`` sweeps raises
    ``JacobiSweepCapError``.
    """
    G = np.array(G, dtype=float)
    k = G.shape[0]
    if k == 1:
        return G[0, :1].copy()
    scale = max(np.linalg.norm(G), 1.0)
    skip = tol * scale * 1e-3
    cols, rows = list(G.T), list(G)
    cs = np.empty((2, 1))             # [[c], [s]]
    sc = cs[::-1]                     # [[s], [c]]
    prod_a, prod_b = np.empty((2, k)), np.empty((2, k))
    ca, sa = prod_a
    sb, cb = prod_b
    # local names, and out as the third positional argument, because the
    # ufunc call overhead is most of the cost at these lengths
    mul, sub, add = np.multiply, np.subtract, np.add
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(G**2) - np.sum(np.diag(G) ** 2), 0.0))
        if off <= tol * scale:
            break
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = G.item(p, q)
                if abs(apq) <= skip:
                    continue
                rotated = True
                theta = (G.item(q, q) - G.item(p, p)) / (2.0 * apq)
                t = -1.0 if theta < 0 else 1.0
                t = t / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                cs[0, 0] = c
                cs[1, 0] = t * c
                # columns p, q, then rows p, q:
                # (a, b) <- (c a - s b, s a + c b)
                for a, b in ((cols[p], cols[q]), (rows[p], rows[q])):
                    mul(a, cs, prod_a)
                    mul(b, sc, prod_b)
                    sub(ca, sb, a)
                    add(sa, cb, b)
        if not rotated:
            break
    else:
        raise JacobiSweepCapError(
            f"cyclic Jacobi still rotating after {max_sweeps} sweeps")
    return np.sort(np.diag(G))


def extreme_singular_values(A_T):
    """Smallest and largest singular values of a column submatrix."""
    A_T = as_matrix(A_T)
    if A_T.shape[1] == 0:
        raise ValueError("need at least one column")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A_T.T @ A_T
    if not np.isfinite(gram).all():
        raise ValueError("the Gram matrix A_T' A_T overflows; rescale A_T")
    eigs = _jacobi_eigenvalues(gram)
    eigs = np.clip(eigs, 0.0, None)
    return float(np.sqrt(eigs[0])), float(np.sqrt(eigs[-1]))


def top_k(v, k):
    """Indices of the k largest-magnitude entries, ties to the smaller index.

    Returned sorted ascending.
    """
    v = as_vector(v)
    k = as_count(k, "k", low=0)
    if k > v.size:
        raise ValueError(f"k={k} exceeds vector length {v.size}")
    order = np.argsort(-np.abs(v), kind="stable")
    return np.sort(order[:k])


def support(x, tol=0.0):
    """Indices with |x_i| > tol, sorted ascending."""
    x = as_vector(x)
    return np.flatnonzero(np.abs(x) > tol)
