"""The two-point gradient estimator and its smoothing guarantees, checked
by Monte Carlo.

Three classical properties of Gaussian smoothing drive the whole method:
  1. the smoothed value sits in a narrow band above the true value,
  2. the estimator is unbiased for the smoothed gradient,
  3. its second moment is bounded by (p+4)^2 D^2 on D-Lipschitz costs.
"""
import numpy as np

from rgfopt import OracleConfig, gradient_free_oracle, norm_stream, smoothed_value_mc_stats
from rgfopt.experiments import quadratic_norm_stream, sandwich_table

print("=== 1. smoothing sandwich on f(x) = |x| (1-Lipschitz) ===")
rows = sandwich_table(n_samples=50_000, seed=1)
print(f"{'x':>8} {'f(x)':>8} {'f_mu est':>9} {'band':>22}")
for row in rows:
    print(f"{row['x']:>8.3f} {row['f']:>8.4f} {row['f_mu_est']:>9.4f} "
          f"[{row['lower']:.4f}, {row['upper']:.4f}]  "
          f"{'ok' if row['within'] else 'VIOLATED'}")

print("\n=== 2. unbiasedness on f(x) = ||x||^2 in R^3 ===")
dim, mu, n = 3, 0.01, 40_000
stream = quadratic_norm_stream(dim)
cfg = OracleConfig(1, mu, dim, rng_seed=42)
x = np.array([0.5, -0.3, 0.8])
total = np.zeros(dim)
for t in range(n):
    total += gradient_free_oracle(stream, cfg, 0, t, x)
mean = total / n
print("oracle mean of", n, "draws:", np.round(mean, 4))
print("gradient of the smoothed cost (= 2x for a quadratic):", 2 * x)

est, se = smoothed_value_mc_stats(lambda pts: (pts ** 2).sum(axis=1), x, mu, 50_000, seed=7)
exact = float(x @ x) + mu ** 2 * dim
print(f"smoothed value estimate {est:.6f} +- {se:.1e} "
      f"(closed form {exact:.6f})")

print("\n=== 3. second moment stays under the (p+4)^2 D^2 ceiling ===")
for p in (1, 2, 5):
    s = norm_stream(1, dim=p)
    c = OracleConfig(1, 1e-3, p, rng_seed=p)
    xp = np.linspace(0.2, 0.9, p)
    acc = 0.0
    draws = 20_000
    for t in range(draws):
        g = gradient_free_oracle(s, c, 0, t, xp)
        acc += g @ g
    print(f"  p={p}: mean ||g||^2 = {acc / draws:6.2f}   ceiling = {(p + 4) ** 2}")

print("\nsame seed, same draw: the oracle is a pure function of (seed, agent, t)")
g1 = gradient_free_oracle(stream, cfg, 0, 123, x)
g2 = gradient_free_oracle(stream, cfg, 0, 123, x)
print("repeat draw identical:", np.array_equal(g1, g2))
