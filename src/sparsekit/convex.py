"""L1-minimization recovery: basis pursuit (``bp_equality`` for Az = u,
``bp_denoise`` for ||Az - u||_2 <= eps) and its reweighted iteration.
Weighted problems are reduced to the unweighted solver by column scaling.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_count, as_matrix, as_vector, support
from .reports import HALT_MAX_ITERATIONS, RecoveryReport


class SolverError(RuntimeError):
    """Interior-point or barrier solve failed to converge."""


class InfeasibleError(SolverError):
    """The constraint set is empty (u outside the reachable set)."""


# contract tolerances: feasibility of the returned point and relative
# distance of its objective from the optimum
FEAS_CONTRACT = 1e-8
GAP_CONTRACT = 1e-6
BP_FEAS_TOL = 1e-10          # bp_equality stops at this feasibility,
BP_GAP_TOL = 1e-10           # this relative duality gap,
BP_MAX_ITERS = 60            # or this many interior-point steps
BARRIER_GAP_TARGET = 1e-8    # bp_denoise: final duality-gap target,
NEWTON_TOL = 1e-6            # Newton decrement tolerance and
MAX_NEWTON = 60              # Newton-step cap per barrier stage
GRAM_MIN_RCOND = 1e-8        # bp_equality solves through AA^T above this


def _scale_columns(A, weights, d):
    """``(A / w, w)`` for positive column weights w (all ones when none are
    given); the scaled problem's solution z' maps back as z = z' / w."""
    if weights is None:
        return A, np.ones(d)
    w = as_vector(weights, d, "weights")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return A / w[None, :], w


def _max_step(pairs):
    """Longest step in (0, 1] keeping ``f + step * df <= 0`` for every pair
    ``(f, df)``; the bound lambda >= 0 enters as ``(-lambda, -dlambda)``.
    Each pair costs one masked quotient: entries with ``df <= 0`` never
    bind, so their division by zero or overflow is masked and silenced."""
    step = 1.0
    with np.errstate(all="ignore"):
        for f, df in pairs:
            step = min(step, float(
                np.where(df > 0, -f / df, np.inf).min(initial=np.inf)))
    return step


def _solve(H, b):
    """``H^-1 b``, or the least-squares answer when H is singular."""
    try:
        return np.linalg.solve(H, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, b, rcond=None)[0]


def _trial_steps(step, z, t, dz, dt):
    """The line search of both interior-point methods: of step, step/2, ...
    (32 tries), yield ``(step, z', t', z' - t', -z' - t')`` where -t' < z' < t'."""
    for _ in range(32):
        zn = z + step * dz
        tn = t + step * dt
        f1n = zn - tn
        f2n = -zn - tn
        if np.all(f1n < 0) and np.all(f2n < 0):
            yield step, zn, tn, f1n, f2n
        step *= 0.5


def _range_solvers(A):
    """``(least_norm, dual_least_squares)`` for an m x d matrix A:
    ``least_norm(r)`` is the minimum-norm least-squares solution of Az = r,
    ``dual_least_squares(b)`` the least-squares solution of A^T nu = b.

    Both come from the m x m Gram matrix G = AA^T, as in l1-magic's
    ``l1eq_pd``: A^T G^-1 r and G^-1 A b.  The normal equations square
    cond(A), so when A is rank-deficient or nearly so both fall back to SVD
    ``lstsq``: when the Cholesky factor L of G does not exist, or when
    (min diag L / max diag L)^2, which estimates 1/cond(G) from above, is
    below GRAM_MIN_RCOND.  Without the fallback, two rows 1e-7 apart made
    the interior-point method fail where lstsq recovers the vertex, and
    rows 1e-9 apart gave a point below the true l1 optimum.  The threshold
    is 1e-8 because at 1e-10 some 6 x 12 instances just above it ended 5e-4
    from the vertex, where lstsq ended within 4e-6."""
    G = A @ A.T
    try:
        diag = np.diag(np.linalg.cholesky(G))
        well_posed = (diag.min() / diag.max()) ** 2 >= GRAM_MIN_RCOND
    except np.linalg.LinAlgError:
        well_posed = False
    if well_posed:
        return (lambda r: A.T @ np.linalg.solve(G, r),
                lambda b: np.linalg.solve(G, A @ b))
    return (lambda r: np.linalg.lstsq(A, r, rcond=None)[0],
            lambda b: np.linalg.lstsq(A.T, b, rcond=None)[0])


def bp_equality(A, u, weights=None):
    """Minimum (weighted) l1-norm solution of Az = u: l1-magic's ``l1eq_pd``
    on the recast min sum(t) s.t. -t <= z <= t, Az = u, with m x m Schur
    solves and the shared line search ``_trial_steps``.  A converged z is
    returned as is.  After a stalled search or BP_MAX_ITERS steps, z is put
    back onto {Az = u} and returned if it meets the contract tolerances;
    otherwise ``SolverError`` says which."""
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    A, w = _scale_columns(A, weights, d)
    uscale = max(1.0, np.linalg.norm(u))

    least_norm, dual_least_squares = _range_solvers(A)
    z = least_norm(u)
    r_pri = A @ z - u
    if np.linalg.norm(r_pri) > 1e-8 * uscale:
        raise InfeasibleError("u is not in the range of the measurement matrix")
    if np.linalg.norm(u) == 0:
        return np.zeros(d)

    t = 0.95 * np.abs(z) + 0.10 * np.max(np.abs(z))
    fu1 = z - t
    fu2 = -z - t
    lam1 = -1.0 / fu1
    lam2 = -1.0 / fu2
    nu = dual_least_squares(-(lam1 - lam2))
    Atnu = A.T @ nu
    mu = 10.0

    def residuals(fu1, fu2, lam1, lam2, Atnu, r_pri, tau):
        return np.concatenate([lam1 - lam2 + Atnu, 1.0 - lam1 - lam2,
                               -lam1 * fu1 - 1.0 / tau,
                               -lam2 * fu2 - 1.0 / tau, r_pri])

    reason = None
    for _ in range(BP_MAX_ITERS):
        sdg = -(fu1 @ lam1 + fu2 @ lam2)
        if (sdg <= BP_GAP_TOL * max(1.0, float(np.sum(t)))
                and np.linalg.norm(r_pri) <= BP_FEAS_TOL * uscale):
            break
        tau = mu * 2 * d / sdg

        sig1 = -lam1 / fu1 - lam2 / fu2          # > 0
        sig2 = lam1 / fu1 - lam2 / fu2
        # sig1 - sig2^2/sig1 in a cancellation-free form
        sigx = 4.0 * (lam1 / fu1) * (lam2 / fu2) / sig1
        rhs_z = -Atnu - (1.0 / tau) * (-1.0 / fu1 + 1.0 / fu2)
        rhs_t = -1.0 - (1.0 / tau) * (1.0 / fu1 + 1.0 / fu2)
        w1p = rhs_z - (sig2 / sig1) * rhs_t

        Hnu = (A / sigx[None, :]) @ A.T
        rhs_nu = A @ (w1p / sigx) + r_pri
        dnu = _solve(Hnu, rhs_nu)
        dz = (w1p - A.T @ dnu) / sigx
        dt = (rhs_t - sig2 * dz) / sig1
        dlam1 = (lam1 / fu1) * (-dz + dt) - lam1 - 1.0 / (tau * fu1)
        dlam2 = (lam2 / fu2) * (dz + dt) - lam2 - 1.0 / (tau * fu2)

        # longest step keeping lambda >= 0 and f < 0
        step = 0.99 * _max_step(((-lam1, -dlam1), (-lam2, -dlam2),
                                 (fu1, dz - dt), (fu2, -dz - dt)))

        res_norm = np.linalg.norm(residuals(fu1, fu2, lam1, lam2, Atnu, r_pri, tau))
        for step, zn, tn, f1n, f2n in _trial_steps(step, z, t, dz, dt):
            l1n = lam1 + step * dlam1
            l2n = lam2 + step * dlam2
            nun = nu + step * dnu
            r_pri_n = A @ zn - u
            Atnu_n = A.T @ nun
            new_res = residuals(f1n, f2n, l1n, l2n, Atnu_n, r_pri_n, tau)
            if np.linalg.norm(new_res) <= (1 - 0.01 * step) * res_norm:
                break
        else:  # no further progress in double precision
            reason = "interior-point line search stalled"
            break
        z, t, fu1, fu2, lam1, lam2, nu = zn, tn, f1n, f2n, l1n, l2n, nun
        r_pri, Atnu = r_pri_n, Atnu_n
    else:
        sdg = -(fu1 @ lam1 + fu2 @ lam2)
        reason = "interior-point method hit the iteration limit"
    if reason is not None:
        # least-norm correction back onto {Az = u}: it moves the objective
        # by at most sqrt(d) times the residual, far inside the gap contract
        z = z + least_norm(u - A @ z)
        if not (sdg <= GAP_CONTRACT * max(1.0, float(np.sum(t)))
                and np.linalg.norm(A @ z - u) <= FEAS_CONTRACT * uscale):
            raise SolverError(reason)
    return z / w


def bp_denoise(A, u, eps, weights=None):
    """Minimum (weighted) l1-norm solution with ||Az - u||_2 <= eps, by a
    log-barrier Newton method on the quadratically constrained form."""
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    if not eps >= 0:                  # NaN eps fails too
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return bp_equality(A, u, weights)
    if np.linalg.norm(u) <= eps:
        return np.zeros(d)
    A, w = _scale_columns(A, weights, d)

    z, *_ = np.linalg.lstsq(A, u, rcond=None)
    r = A @ z - u
    if np.linalg.norm(r) >= eps:
        raise InfeasibleError(
            "no interior point: the reachable set misses the eps-ball")
    t = 0.95 * np.abs(z) + 0.10 * np.max(np.abs(z))
    AtA = np.asfortranarray(A.T @ A)      # column-major, like H in _qc_newton

    tau = max((2 * d + 1) / np.sum(t), 1.0)
    mu = 10.0
    n_outer = int(np.ceil(
        np.log((2 * d + 1) / (tau * BARRIER_GAP_TARGET)) / np.log(mu)))

    for _ in range(max(n_outer, 1)):
        z, t = _qc_newton(A, AtA, u, eps, z, t, tau)
        tau *= mu
    return z / w


def _newton_matrix(AtA, atr, sigx, fe, H, B):
    """``diag(sigx) - AtA / fe + outer(atr, atr) / fe**2`` written into H,
    using B as workspace; both are d x d and column-major like AtA.

    Every entry goes through the same IEEE operations in the same order as
    that expression, so the result has the same bits, provided AtA holds no
    -0.0 (A.T @ A gives +0.0 for its exact zeros).  Off the diagonal,
    (0 - a) + r equals r - a exactly; the diagonal is (sigx - a) + r.
    """
    np.multiply.outer(atr, atr, out=H)
    H /= fe**2
    np.divide(AtA, fe, out=B)
    diag = (sigx - np.diagonal(B)) + np.diagonal(H)
    np.subtract(H, B, out=H)
    np.fill_diagonal(H, diag)
    return H


def _qc_newton(A, AtA, u, eps, z, t, tau):
    """Newton steps of one barrier stage at weight tau, each through the
    shared line search ``_trial_steps``; returns the last accepted (z, t).

    The d x d Newton matrix is built in place, into two column-major
    buffers allocated once per call, so a step makes no d x d temporary of
    its own and ``np.linalg.solve`` copies it without transposing.  It
    has the same bits as the plain expression (see ``_newton_matrix``).
    The bits matter: stages that stop at MAX_NEWTON amplify any change in
    rounding.  An algebraically equal Woodbury (m x m) solve moved 100 of
    the 128 noise and reweighted-l1 benchmark references past perfbench's
    1e-3 check.
    """
    d = z.size
    H = np.empty((d, d), order="F")
    B = np.empty((d, d), order="F")
    r = A @ z - u
    fu1 = z - t
    fu2 = -z - t
    fe = 0.5 * (r @ r - eps**2)

    def value(t, fu1, fu2, fe):
        return tau * np.sum(t) - np.sum(np.log(-fu1)) - np.sum(np.log(-fu2)) \
            - np.log(-fe)

    fval = value(t, fu1, fu2, fe)
    for _ in range(MAX_NEWTON):
        atr = A.T @ r
        ntgz = 1.0 / fu1 - 1.0 / fu2 + atr / fe
        ntgt = -tau - 1.0 / fu1 - 1.0 / fu2
        sig11 = 1.0 / fu1**2 + 1.0 / fu2**2
        sig12 = -1.0 / fu1**2 + 1.0 / fu2**2
        # sig11 - sig12^2/sig11 in a cancellation-free form
        sigx = 4.0 / (fu1**2 * fu2**2) / sig11

        H11p = _newton_matrix(AtA, atr, sigx, fe, H, B)
        w1p = ntgz - (sig12 / sig11) * ntgt
        dz = _solve(H11p, w1p)
        dt = (ntgt - sig12 * dz) / sig11

        # decrement uses the gradient (= -[ntgz; ntgt]) against the step
        decrement = float(ntgz @ dz + ntgt @ dt)
        if decrement / 2.0 <= NEWTON_TOL:
            break

        # longest step keeping every constraint strictly feasible
        step = _max_step(((fu1, dz - dt), (fu2, -dz - dt)))
        adz = A @ dz
        q2 = float(adz @ adz)
        q1 = float(r @ adz)
        q0 = float(r @ r - eps**2)
        if q2 > 0:
            root = (-q1 + np.sqrt(q1 * q1 - q2 * q0)) / q2
            if root > 0:
                step = min(step, root)
        elif q1 > 0:
            step = min(step, -q0 / (2 * q1))
        step *= 0.99

        for step, zn, tn, f1n, f2n in _trial_steps(step, z, t, dz, dt):
            rn = A @ zn - u
            fen = 0.5 * (rn @ rn - eps**2)
            fnew = value(tn, f1n, f2n, fen) if fen < 0 else np.nan
            if fnew <= fval - 0.01 * step * decrement:
                break
        else:
            break  # no further progress possible at this barrier weight
        z, t, r, fu1, fu2, fe, fval = zn, tn, rn, f1n, f2n, fen, fnew
    return z, t


# ---------------------------------------------------------------------------
# Reweighted l1

@dataclass(frozen=True)
class RwConfig:
    """Reweighted iteration settings.

    ``epsilon`` is the noise bound handed to each weighted solve (0 means
    the equality-constrained problem).  ``max_iters`` (a whole number >= 1)
    weighted solves are performed; the weight-stability parameter is fixed
    (see ``reweighted_l1``).
    """

    epsilon: float = 0.0
    max_iters: int = 9

    def __post_init__(self):
        if not self.epsilon >= 0:     # NaN epsilon fails too
            raise ValueError("epsilon must be >= 0")
        object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))


def reweighted_l1(A, u, cfg=None):
    """Iteratively reweighted l1-minimization.

    Starts from unit weights, then resets them to 1/(|estimate| + a_k)
    after the k-th solve, with the stability parameter a_k = 1/(1000 k).
    The report's ``estimate_history`` holds every solve's estimate, so
    errors against a reference signal are computed by the caller.
    """
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    cfg = cfg or RwConfig()
    weights = np.ones(d)
    estimates = []
    residuals = []
    for k in range(1, cfg.max_iters + 1):
        x = bp_denoise(A, u, cfg.epsilon, weights=weights)
        estimates.append(x.copy())
        residuals.append(float(np.linalg.norm(u - A @ x)))
        weights = 1.0 / (np.abs(x) + 1.0 / (1000.0 * k))
    supp = support(x, 1e-8 * max(1.0, float(np.max(np.abs(x)))))
    return RecoveryReport(x, supp, cfg.max_iters, residuals,
                          HALT_MAX_ITERATIONS, estimate_history=estimates)


# ---------------------------------------------------------------------------
# Theoretical error recursion for the reweighted iteration

@dataclass
class RwBounds:
    rho: float
    alpha: float
    E: np.ndarray              # E[k-1] bounds the error after k solves
    L: float                   # limit of the recursion
    iters_to_converge: int     # first k with |E(k) - L| <= tol


def rw_constants(delta):
    """The contraction and amplification constants for a given RIC delta."""
    if not 0 <= delta < np.sqrt(2) - 1:
        raise ValueError("delta must lie in [0, sqrt(2) - 1)")
    rho = np.sqrt(2) * delta / (1.0 - delta)
    alpha = 2.0 * np.sqrt(1.0 + delta) / np.sqrt(1.0 - delta)
    return rho, alpha


def rw_error_recursion(mu, eps, delta, tol=1e-3):
    """Evaluate the per-iteration error bound sequence and its limit.

    E(1) = 2 alpha eps / (1 - rho); thereafter
    E(k+1) = (1 + E(k)/(mu - E(k))) alpha eps / (1 - rho E(k)/(mu - E(k))).
    Requires mu >= 4 alpha eps / (1 - rho).  Returns the sequence up to the
    first term within ``tol`` of the closed-form limit; ``tol`` must be > 0.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    rho, alpha = rw_constants(delta)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    # at eps = 0 the hypothesis reads mu >= 0; NaN mu fails it too
    if not mu >= 4.0 * alpha * eps / (1.0 - rho):
        raise ValueError(
            "hypothesis violated: mu must be at least 4*alpha*eps/(1-rho)")
    if eps == 0:
        return RwBounds(rho, alpha, np.zeros(1), 0.0, 1)
    ratio = 4.0 * alpha * eps / mu
    L = 2.0 * alpha * eps / (1.0 + np.sqrt(1.0 - ratio - ratio * rho))
    E = [2.0 * alpha * eps / (1.0 - rho)]
    while abs(E[-1] - L) > tol:
        if len(E) >= 100_000:
            raise SolverError("error recursion failed to approach its limit")
        frac = E[-1] / (mu - E[-1])
        E.append((1.0 + frac) * alpha * eps / (1.0 - rho * frac))
    return RwBounds(rho, alpha, np.asarray(E), float(L), len(E))
