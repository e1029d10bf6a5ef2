"""Basis pursuit: equality-constrained and noise-tolerant forms.

Run:  python3 demos/basis_pursuit.py
"""

import numpy as np

import sparsekit as sk

d, m, s = 128, 64, 6

A = sk.gen_matrix(sk.EnsembleSpec("gaussian", m, d, seed=21))
x = sk.gen_signal(sk.SignalSpec(d, s, seed=22, random_signs=True))

# noiseless: the l1 minimizer coincides with the planted signal
u = A @ x
xh = sk.bp_equality(A, u)
print(f"noiseless recovery error: {np.linalg.norm(xh - x):.2e}")
print(f"objective {np.abs(xh).sum():.6f} vs planted l1 {np.abs(x).sum():.6f}")

# noisy: search within an eps-ball around the samples
for noise_norm in (0.05, 0.25, 0.5):
    e = sk.gen_noise(sk.NoiseSpec(m, noise_norm, seed=23))
    xh = sk.bp_denoise(A, u + e, noise_norm)
    print(f"noise {noise_norm:4.2f}: error {np.linalg.norm(xh - x):.3f}, "
          f"error/noise {np.linalg.norm(xh - x) / noise_norm:.2f}")

# reweighting sharpens the noisy estimate over a few iterations
e = sk.gen_noise(sk.NoiseSpec(m, 0.5, seed=24))
rep = sk.reweighted_l1(A, u + e, sk.RwConfig(epsilon=0.5, max_iters=6))
print("\nreweighted error per iteration:",
      ["%.3f" % np.linalg.norm(x - est) for est in rep.estimate_history])
