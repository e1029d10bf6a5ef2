"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``) in addition to the usual pytest verdict.  Tolerances are
fixed here, not tuned at runtime.
"""


import numpy as np
import pytest

from helpers import l1_vertex_oracle, near_orthonormal, noisy_reweighted_instance

import sparsekit as sk
from sparsekit import bench
from sparsekit.cli import main as cli_main
from sparsekit.rng import CounterRng, stream_seed


def report(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def planted_instance(d, s, seed, kind="flat"):
    x = sk.gen_signal(sk.SignalSpec(d, s, kind, p=0.5,
                                    seed=stream_seed("acc-sig", seed)))
    return x


def test_01_exact_recovery_orthogonal():
    """All four solvers recover every planted signal through an orthogonal
    operator to 1e-8."""
    ok = True
    for d in (16, 64):
        A = sk.gen_matrix(sk.EnsembleSpec("partial_dct", d, d, seed=d))
        for s in (1, 2, 4, 8):
            if 4 * s > d:
                continue
            for seed in range(3):
                for kind in ("flat", "compressible"):
                    x = planted_instance(d, s, stream_seed(d, s, seed), kind)
                    u = A @ x
                    outs = [
                        sk.omp(A, u, s).estimate,
                        sk.romp(A, u, s).estimate,
                        sk.cosamp(A, u, sk.CosampConfig(
                            s, halting="sample_norm", halt_value=1e-12)).estimate,
                        sk.bp_equality(A, u),
                    ]
                    ok &= all(np.linalg.norm(est - x) <= 1e-8 for est in outs)
    report(1, "exact recovery sanity (orthogonal operator)", ok)


def test_02_romp_selection_majority_support():
    """On instances with verified tiny isometry constants, every ROMP
    round places at least half of its new picks inside the true support."""
    ok = True
    instances = 0
    # s = 2 instances (threshold 0.03) and s = 4 instances (0.03/sqrt(2))
    cases = [(2, 20, 16, 0.0015, 0.03, 45), (4, 24, 20, 0.0007, 0.03 / np.sqrt(2), 8)]
    for s, m, d, noise, threshold, want in cases:
        found = 0
        for seed in range(3 * want):
            if found >= want:
                break
            A = near_orthonormal(m, d, noise, stream_seed("acc2", s, seed))
            if sk.ric_exact(A, 2 * s).delta > threshold:
                continue
            found += 1
            rng = CounterRng(stream_seed("acc2-x", s, seed))
            x = np.zeros(d)
            sup = rng.permutation(d)[:s]
            x[sup] = rng.normal(s) + np.sign(rng.normal(s))
            rep = sk.romp(A, A @ x, s)
            supp_set = set(sup.tolist())
            for J0 in rep.selection_history:
                hits = len(supp_set & set(J0.tolist()))
                ok &= J0.size > 0 and hits >= J0.size / 2.0
            ok &= np.linalg.norm(rep.estimate - x) <= 1e-6
        instances += found
    ok &= instances >= 50
    report(2, f"romp 50%-support selection ({instances} instances)", ok)


def test_03_cosamp_iteration_cap():
    """Noiseless d=256, m=128: successful runs finish within 6(s+1)
    iterations; success rate at least 90% for s <= 4."""
    ok = True
    for s in (2, 4, 8):
        successes = 0
        for trial in range(100):
            seed = stream_seed("acc3", s, trial)
            A = sk.gen_matrix(sk.EnsembleSpec("gaussian", 128, 256,
                                              seed=stream_seed(seed, "mat")))
            x = sk.gen_signal(sk.SignalSpec(256, s,
                                            seed=stream_seed(seed, "sig")))
            u = A @ x
            cfg = sk.CosampConfig(s, halting="sample_norm",
                                  halt_value=1e-9 * np.linalg.norm(u),
                                  max_iters=max(10 * s, 60))
            rep = sk.cosamp(A, u, cfg)
            if np.linalg.norm(rep.estimate - x) <= 1e-5:
                successes += 1
                ok &= rep.iterations <= 6 * (s + 1)
        if s <= 4:
            ok &= successes >= 90
    report(3, "cosamp iteration cap and success rate", ok)


def test_04_property_batteries():
    """Property batteries, 1000 cases each, zero violations allowed."""
    ok = True

    # tail l2 vs scaled l1, all truncation levels
    rng = CounterRng(stream_seed("acc4-tails"))
    for _ in range(1000):
        dim = 2 + int(rng.uniform(1)[0] * 62)
        v = rng.normal(dim)
        l1 = np.linalg.norm(v, 1)
        for T in range(1, dim + 1):
            tail = v - sk.prune(v, T)
            ok &= np.linalg.norm(tail) <= l1 / (2 * np.sqrt(T)) + 1e-12

    # regularization: comparability and the energy floor
    rng = CounterRng(stream_seed("acc4-reg"))
    for _ in range(1000):
        dim = 2 + int(rng.uniform(1)[0] * 4094)
        v = rng.normal(dim)
        J0 = sk.regularize(np.arange(dim), v)
        mags = np.abs(v[J0])
        ok &= np.max(mags) <= 2 * np.min(mags) * (1 + 1e-12)
        floor = np.linalg.norm(v) / (2.5 * np.sqrt(np.log2(dim)))
        ok &= np.linalg.norm(v[J0]) >= floor * (1 - 1e-12)

    # pruning within a factor two of any sparse target
    rng = CounterRng(stream_seed("acc4-prune"))
    for _ in range(1000):
        dim = 8 + int(rng.uniform(1)[0] * 56)
        s = 1 + int(rng.uniform(1)[0] * (dim // 4))
        x = np.zeros(dim)
        x[rng.permutation(dim)[:s]] = rng.normal(s)
        b = x + 0.5 * rng.normal(dim)
        ok &= (np.linalg.norm(x - sk.prune(b, s))
               <= 2 * np.linalg.norm(x - b) + 1e-12)

    # support merger size
    rng = CounterRng(stream_seed("acc4-merge"))
    for _ in range(1000):
        dim = 16 + int(rng.uniform(1)[0] * 48)
        s = 1 + int(rng.uniform(1)[0] * (dim // 4))
        a = np.zeros(dim)
        a[rng.permutation(dim)[:s]] = rng.normal(s)
        y = rng.normal(dim)
        omega = sk.top_k(y, min(2 * s, dim))
        T = np.union1d(omega, np.flatnonzero(a))
        ok &= T.size <= 3 * s

    # energy bound with exact constants on small matrices
    for mat_seed, r in ((1, 2), (2, 3)):
        A = sk.gen_matrix(sk.EnsembleSpec("gaussian", 8, 12, seed=mat_seed))
        delta = sk.ric_exact(A, r).delta
        rng = CounterRng(stream_seed("acc4-energy", mat_seed))
        for _ in range(1000):
            x = rng.normal(12)
            lhs = np.linalg.norm(A @ x)
            rhs = np.sqrt(1 + delta) * (np.linalg.norm(x)
                                        + np.linalg.norm(x, 1) / np.sqrt(r))
            ok &= lhs <= rhs * (1 + 1e-12)

    # order scaling of exact constants
    for mat_seed in (3, 4):
        A = sk.gen_matrix(sk.EnsembleSpec("gaussian", 8, 10, seed=mat_seed))
        deltas = {r: sk.ric_exact(A, r).delta for r in range(1, 9)}
        for r in (1, 2):
            for c in (2, 3, 4):
                if c * r <= 8:
                    ok &= deltas[c * r] <= c * deltas[2 * r] + 1e-12

    report(4, "norm and selection property batteries", ok)


def test_05_richardson_contraction():
    """Column sets with verified splitting norm <= 0.1 contract the error
    tenfold per sweep (1e-6 relative tolerance)."""
    ok = True
    checked = 0
    for seed in range(10):
        A = near_orthonormal(24, 4, 0.005, seed, label="acc5")
        if np.linalg.norm(A.T @ A - np.eye(4), 2) > 0.1:
            continue
        checked += 1
        u = CounterRng(stream_seed("acc5-rhs", seed)).normal(24)
        z_star = np.linalg.lstsq(A, u, rcond=None)[0]
        err0 = np.linalg.norm(z_star)  # starting iterate is zero
        for ell in (1, 2, 3, 4):
            z, _ = sk.least_squares(
                A, u, cfg=sk.LsConfig("richardson", max_iters=ell, tol=0.0))
            ok &= np.linalg.norm(z - z_star) <= 0.1**ell * err0 * (1 + 1e-6)
    ok &= checked >= 8
    report(5, "richardson tenfold contraction", ok)


def test_06_halting_criteria():
    """Norm-based halting: the error bounds hold whenever a criterion
    fires, and each criterion fires as soon as its trigger condition is
    met, on 100 verified well-conditioned noisy instances."""
    ok = True
    s, m, d = 2, 16, 12
    instances = 0
    for seed in range(120):
        if instances >= 100:
            break
        A = near_orthonormal(m, d, 0.005, stream_seed("acc6", seed))
        if sk.ric_exact(A, 2 * s).delta > 0.1:
            continue
        instances += 1
        rng = CounterRng(stream_seed("acc6-x", seed))
        x = np.zeros(d)
        x[rng.permutation(d)[:s]] = rng.normal(s) + np.sign(rng.normal(s))
        e = rng.normal(m)
        e *= 0.05 / np.linalg.norm(e)
        u = A @ x + e
        e_norm = float(np.linalg.norm(e))

        # sample-norm halting, at a generous and at a tight threshold
        for eps in (2.0 * e_norm, 1.01 * e_norm):
            rep = sk.cosamp(A, u, sk.CosampConfig(
                s, halting="sample_norm", halt_value=eps, max_iters=80))
            ok &= rep.halt_reason == "sample_norm_criterion"
            ok &= np.linalg.norm(x - rep.estimate) <= 1.06 * (eps + e_norm)
            for a in [np.zeros(d)] + (rep.estimate_history or []):
                if np.linalg.norm(x - a) <= 0.95 * (eps - e_norm):
                    ok &= np.linalg.norm(u - A @ a) <= eps

        # proxy infinity-norm halting
        eta = 2.0 * np.sqrt(2 * s) * np.max(np.abs(A.T @ e))
        rep = sk.cosamp(A, u, sk.CosampConfig(
            s, halting="proxy_infnorm", halt_value=eta, max_iters=80))
        ok &= rep.halt_reason == "proxy_infnorm_criterion"
        ok &= (np.max(np.abs(x - rep.estimate))
               <= 1.12 * eta + 1.17 * e_norm)
        trigger = 0.45 * eta / s - 0.68 * e_norm / np.sqrt(s)
        for a in [np.zeros(d)] + (rep.estimate_history or []):
            if np.max(np.abs(x - a)) <= trigger:
                ok &= np.max(np.abs(A.T @ (u - A @ a))) <= eta / np.sqrt(2 * s)
    ok &= instances >= 100
    report(6, f"halting criteria ({instances} instances)", ok)


def test_07_kaczmarz_identity_sharpness_and_contraction():
    """Identity system with unit noise settles at sqrt(n); Gaussian systems
    respect the expected-contraction envelope with 1.2x slack."""
    ok = True
    n = 100
    finals = []
    for seed in range(50):
        run = sk.rk_solve(np.eye(n), np.ones(n), np.zeros(n), 2000,
                          seed=stream_seed("acc7", seed),
                          log_stride=2000, x_ref=np.zeros(n))
        finals.append(run.iterates_logged[-1][1])
    mean_final = float(np.mean(finals))
    ok &= 9.0 <= mean_final <= 11.0

    A = sk.gen_matrix(sk.EnsembleSpec("gaussian", 100, 50, seed=77,
                                      normalize=False))
    R, _ = sk.rk_theory(A)
    x = CounterRng(stream_seed("acc7-x")).normal(50)
    b = A @ x
    base = float(np.linalg.norm(x)) ** 2   # starting iterate is zero
    ks = (100, 500, 1000)
    acc = {k: 0.0 for k in ks}
    runs = 200
    for t in range(runs):
        run = sk.rk_solve(A, b, np.zeros(50), 1000,
                          seed=stream_seed("acc7-run", t), log_stride=100,
                          x_ref=x)
        logged = dict(run.iterates_logged)
        for k in ks:
            acc[k] += logged[k] ** 2
    for k in ks:
        ok &= acc[k] / runs <= 1.2 * (1 - 1 / R) ** k * base
    report(7, f"kaczmarz sharpness (mean {mean_final:.3f}) and contraction", ok)


def test_08_reweighted_recursion_closed_forms():
    """Recursion start and limit agree with independent closed-form
    evaluation to 1e-9; the limit obeys its simple bound; iteration counts
    grow with the isometry constant."""
    ok = True
    mu = 10.0
    for delta in (0.05, 0.1, 0.2, 0.3):
        for eps in (0.01, 0.1):
            rho = np.sqrt(2) * delta / (1 - delta)
            alpha = 2 * np.sqrt(1 + delta) / np.sqrt(1 - delta)
            if mu < 4 * alpha * eps / (1 - rho):
                continue
            b = sk.rw_error_recursion(mu, eps, delta, tol=1e-3)
            e1 = 2 * alpha * eps / (1 - rho)
            ratio = 4 * alpha * eps / mu
            limit = 2 * alpha * eps / (1 + np.sqrt(1 - ratio - ratio * rho))
            ok &= abs(b.E[0] - e1) <= 1e-9
            ok &= abs(b.L - limit) <= 1e-9
            ok &= b.L <= 2 * alpha * eps / (1 + rho) + 1e-12
    rows = bench.run_rw_bounds(mu, [0.1], [0.05, 0.1, 0.2, 0.3, 0.4])
    its = [r["iterations"] for r in rows if r["hypothesis_ok"]]
    ok &= len(its) >= 4 and its == sorted(its)
    report(8, "reweighted error recursion closed forms", ok)


def test_09_bp_matches_vertex_oracle():
    """The interior-point solution equals the brute-force vertex optimum
    to 1e-6 on every unique-minimizer instance."""
    ok = True
    checked = 0
    for d, m in ((8, 5), (10, 6), (12, 8)):
        for seed in range(14):
            A = sk.gen_matrix(sk.EnsembleSpec(
                "gaussian", m, d, seed=stream_seed("acc9", d, seed)))
            x = sk.gen_signal(sk.SignalSpec(
                d, 1 + seed % 2, seed=stream_seed("acc9-sig", d, seed)))
            u = A @ x
            oracle, unique = l1_vertex_oracle(A, u)
            if oracle is None or not unique:
                continue
            xh = sk.bp_equality(A, u)
            ok &= np.linalg.norm(xh - oracle) <= 1e-6
            checked += 1
    ok &= checked >= 30
    report(9, f"basis pursuit vs vertex oracle ({checked} instances)", ok)


@pytest.mark.nightly
def test_10_reweighted_improvement_direction():
    """d=256, m=128, s=30, 20% relative measurement noise, 100 seeds: the
    ninth reweighted iterate beats the first in median."""
    ratios = []
    for seed in range(100):
        A, x, u, eps = noisy_reweighted_instance(seed)
        rep = sk.reweighted_l1(A, u, sk.RwConfig(epsilon=eps, max_iters=9))
        first, ninth = rep.estimate_history[0], rep.estimate_history[8]
        ratios.append(np.linalg.norm(x - ninth) / np.linalg.norm(x - first))
    median = float(np.median(ratios))
    report(10, f"reweighted improvement direction (median {median:.3f})",
           median < 1.0)


def _capture(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def test_11_cli_determinism(capsys, tmp_path):
    """Every subcommand emits byte-identical output across reruns and
    thread settings."""
    ok = True
    A = sk.gen_matrix(sk.EnsembleSpec("gaussian", 8, 16, seed=1))
    x = sk.gen_signal(sk.SignalSpec(16, 2, seed=2))
    amat, sig = str(tmp_path / "A.csv"), str(tmp_path / "x.csv")
    sk.save_matrix_csv(amat, A, seed=1)
    sk.save_vector_csv(sig, x, seed=2)

    grids = [
        ["phase", "--algo", "cosamp", "--d", "32", "--m", "16,24", "--s",
         "1,2", "--trials", "5", "--seed", "3"],
        ["trend", "--algo", "omp", "--d", "32", "--m", "16", "--s", "1,2,3",
         "--trials", "5", "--seed", "3", "--level", "0.5"],
        ["noise", "--algo", "romp", "--d", "32", "--m", "24", "--s", "2",
         "--trials", "5", "--seed", "3", "--noise-norm", "0.2"],
        ["iters", "--algo", "romp", "--d", "32", "--m", "24", "--s", "1,2",
         "--trials", "5", "--seed", "3"],
    ]
    others = [
        ["kaczmarz", "--m", "24", "--n", "6", "--trials", "3", "--iters",
         "200", "--noise-fraction", "0.1", "--seed", "4"],
        ["rwbounds", "--mu", "10", "--eps", "0.05,0.2", "--delta", "0.1,0.2"],
        ["ric", "--d", "12", "--m", "8", "--r", "2", "--seed", "5"],
        ["recover", "--matrix", amat, "--signal", sig, "--algo", "omp"],
    ]
    for argv in grids + others:
        code1, out1 = _capture(capsys, list(argv))
        code2, out2 = _capture(capsys, list(argv))
        ok &= code1 == 0 and code2 == 0 and out1 == out2 and out1 != ""
    for argv in grids:
        _, out1 = _capture(capsys, list(argv) + ["--threads", "1"])
        _, out4 = _capture(capsys, list(argv) + ["--threads", "4"])
        ok &= out1 == out4
    report(11, "CLI determinism across reruns and thread counts", ok)
