"""L1-minimization recovery: basis pursuit and its reweighted iteration.

``bp_equality`` solves  min ||z||_1  s.t.  Az = u  through the standard
linear-program recast (variables (z, t), objective sum(t), constraints
-t <= z <= t) with a primal-dual interior-point method and dense Schur
solves.  Its start point, dual start and final feasibility restore solve
through the Gram matrix AA^T, falling back to SVD least squares when A is
nearly rank-deficient.  ``bp_denoise`` solves  min ||z||_1  s.t.
||Az - u||_2 <= eps  with a log-barrier Newton method on the quadratically
constrained form.
Weighted problems are reduced to the unweighted solver by column scaling.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, support
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
    ``(f, df)``; the bound lambda >= 0 enters as ``(-lambda, -dlambda)``."""
    step = 1.0
    for f, df in pairs:
        pos = df > 0
        if np.any(pos):
            step = min(step, float(np.min(-f[pos] / df[pos])))
    return step


def bp_equality(A, u, weights=None):
    """Minimum (weighted) l1-norm solution of Az = u."""
    z, _ = _bp_equality_full(A, u, weights)
    return z


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


def _bp_equality_full(A, u, weights=None):
    A = as_matrix(A)
    m, d = A.shape
    u = as_vector(u, m, "u")
    A, w = _scale_columns(A, weights, d)
    uscale = max(1.0, np.linalg.norm(u))

    least_norm, dual_least_squares = _range_solvers(A)
    z0 = least_norm(u)
    if np.linalg.norm(A @ z0 - u) > 1e-8 * uscale:
        raise InfeasibleError("u is not in the range of the measurement matrix")
    if np.linalg.norm(u) == 0:
        return np.zeros(d), np.zeros(d)

    z = z0
    t = 0.95 * np.abs(z) + 0.10 * np.max(np.abs(z))
    fu1 = z - t
    fu2 = -z - t
    lam1 = -1.0 / fu1
    lam2 = -1.0 / fu2
    nu = dual_least_squares(-(lam1 - lam2))
    mu = 10.0

    def residuals(z, fu1, fu2, lam1, lam2, nu, tau):
        r_dual = np.concatenate([lam1 - lam2 + A.T @ nu, 1.0 - lam1 - lam2])
        r_cent = np.concatenate([-lam1 * fu1, -lam2 * fu2]) - 1.0 / tau
        r_pri = A @ z - u
        return r_dual, r_cent, r_pri

    def restore_feasibility(z):
        # least-norm correction back onto {Az = u}; moves the objective by
        # at most sqrt(d) times the residual, far inside the gap contract
        return z + least_norm(u - A @ z)

    def within_contract(z, t, sdg):
        return (sdg <= GAP_CONTRACT * max(1.0, float(np.sum(t)))
                and np.linalg.norm(A @ z - u) <= FEAS_CONTRACT * uscale)

    for _ in range(BP_MAX_ITERS):
        sdg = -(fu1 @ lam1 + fu2 @ lam2)
        obj = float(np.sum(t))
        if (sdg <= BP_GAP_TOL * max(1.0, obj)
                and np.linalg.norm(A @ z - u) <= BP_FEAS_TOL * uscale):
            return z / w, t
        tau = mu * 2 * d / sdg

        sig1 = -lam1 / fu1 - lam2 / fu2          # > 0
        sig2 = lam1 / fu1 - lam2 / fu2
        # sig1 - sig2^2/sig1 in a cancellation-free form
        sigx = 4.0 * (lam1 / fu1) * (lam2 / fu2) / sig1
        rhs_z = -(A.T @ nu) - (1.0 / tau) * (-1.0 / fu1 + 1.0 / fu2)
        rhs_t = -1.0 - (1.0 / tau) * (1.0 / fu1 + 1.0 / fu2)
        w1p = rhs_z - (sig2 / sig1) * rhs_t
        r_pri = A @ z - u

        Hnu = (A / sigx[None, :]) @ A.T
        rhs_nu = A @ (w1p / sigx) + r_pri
        try:
            dnu = np.linalg.solve(Hnu, rhs_nu)
        except np.linalg.LinAlgError:
            dnu, *_ = np.linalg.lstsq(Hnu, rhs_nu, rcond=None)
        dz = (w1p - A.T @ dnu) / sigx
        dt = (rhs_t - sig2 * dz) / sig1
        dlam1 = (lam1 / fu1) * (-dz + dt) - lam1 - 1.0 / (tau * fu1)
        dlam2 = (lam2 / fu2) * (dz + dt) - lam2 - 1.0 / (tau * fu2)

        # longest step keeping lambda >= 0 and f < 0
        step = 0.99 * _max_step(((-lam1, -dlam1), (-lam2, -dlam2),
                                 (fu1, dz - dt), (fu2, -dz - dt)))

        res = np.concatenate(residuals(z, fu1, fu2, lam1, lam2, nu, tau))
        res_norm = np.linalg.norm(res)
        for _ in range(32):
            zn = z + step * dz
            tn = t + step * dt
            f1n = zn - tn
            f2n = -zn - tn
            l1n = lam1 + step * dlam1
            l2n = lam2 + step * dlam2
            nun = nu + step * dnu
            if np.all(f1n < 0) and np.all(f2n < 0):
                new_res = np.concatenate(
                    residuals(zn, f1n, f2n, l1n, l2n, nun, tau))
                if np.linalg.norm(new_res) <= (1 - 0.01 * step) * res_norm:
                    break
            step *= 0.5
        else:
            # no further progress in double precision; the iterate is
            # acceptable if it already meets the contract tolerances
            z = restore_feasibility(z)
            if within_contract(z, t, sdg):
                return z / w, t
            raise SolverError("interior-point line search stalled")
        z, t, fu1, fu2, lam1, lam2, nu = zn, tn, f1n, f2n, l1n, l2n, nun

    sdg = -(fu1 @ lam1 + fu2 @ lam2)
    z = restore_feasibility(z)
    if within_contract(z, t, sdg):
        return z / w, t
    raise SolverError("interior-point method hit the iteration limit")


def bp_denoise(A, u, eps, weights=None):
    """Minimum (weighted) l1-norm solution with ||Az - u||_2 <= eps."""
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
    AtA = A.T @ A

    tau = max((2 * d + 1) / np.sum(t), 1.0)
    mu = 10.0
    n_outer = int(np.ceil(
        np.log((2 * d + 1) / (tau * BARRIER_GAP_TARGET)) / np.log(mu)))

    for _ in range(max(n_outer, 1)):
        z, t = _qc_newton(A, AtA, u, eps, z, t, tau)
        tau *= mu
    return z / w


def _qc_newton(A, AtA, u, eps, z, t, tau):
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

        H11p = np.diag(sigx) - AtA / fe + np.outer(atr, atr) / fe**2
        w1p = ntgz - (sig12 / sig11) * ntgt
        try:
            dz = np.linalg.solve(H11p, w1p)
        except np.linalg.LinAlgError:
            dz, *_ = np.linalg.lstsq(H11p, w1p, rcond=None)
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

        grad_dot = -decrement
        for _ in range(32):
            zn = z + step * dz
            tn = t + step * dt
            rn = A @ zn - u
            f1n = zn - tn
            f2n = -zn - tn
            fen = 0.5 * (rn @ rn - eps**2)
            if np.all(f1n < 0) and np.all(f2n < 0) and fen < 0:
                fnew = value(tn, f1n, f2n, fen)
                if fnew <= fval + 0.01 * step * grad_dot:
                    break
            step *= 0.5
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
    the equality-constrained problem).  ``max_iters`` weighted solves are
    performed; the weight-stability parameter is fixed (see
    ``reweighted_l1``).
    """

    epsilon: float = 0.0
    max_iters: int = 9

    def __post_init__(self):
        if not self.epsilon >= 0:     # NaN epsilon fails too
            raise ValueError("epsilon must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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
    x = np.zeros(d)
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
    first term within ``tol`` of the closed-form limit.
    """
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
