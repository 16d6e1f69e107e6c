"""The hypergeometric Renyi accountant, noise calibration, and the power bound.

One training step draws m of the N training subgraphs without replacement;
a node present in at most T of them shifts the clipped gradient sum by at
most rho * Delta, where rho is its occurrence count in the batch and
Delta = 2C per subgraph.  The accountant takes the moment of that
hypergeometric mixture, composes it over steps, and converts to
(epsilon, delta).
"""

import dpgraphlab as dg

# --- the degenerate anchor: T=1, m=N is the plain Gaussian mechanism ----

alpha, sigma = 8.0, 4.0
anchor = dg.make_accountant(sigma, 100, 1, 100, orders=[alpha])
print("per-step RDP, T=1, m=N:", anchor.per_step_costs[0])
print("plain Gaussian alpha/(2 sigma^2):", alpha / (2 * sigma**2))

# subsampling amplifies: with m < N the cost drops strictly below the anchor
for m in (25, 50, 100):
    cost = dg.make_accountant(sigma, 100, 1, m, orders=[alpha]).per_step_costs[0]
    print(f"  m={m:3d}: {cost:.6f}")

# --- composing a training run and calibrating sigma ---------------------

N, T, m, steps = 560, 6, 64, 1000
delta = dg.recommend_delta(N)
print(f"\ntraining-run accounting: N={N}, T={T}, m={m}, steps={steps}, delta={delta:.3g}")
for epsilon in (20, 15, 10, 5):
    sigma = dg.calibrate_sigma(epsilon, delta, steps, N, T, m)
    spent = dg.compose_and_convert(dg.make_accountant(sigma, N, T, m), steps, delta)
    print(f"  eps target {epsilon:5.1f} -> sigma {sigma:7.2f} (spends {spent:.4f})")

# --- what the guarantee buys against membership inference ---------------

print("\nsupremum attack power at delta = 1.31e-4:")
print(f"{'epsilon':>8} {'fpr=0.001':>10} {'fpr=0.005':>10} {'fpr=0.01':>10}")
for epsilon in (5, 10, 15, 20):
    powers = [dg.supremum_power(epsilon, 1.31e-4, f) for f in (0.001, 0.005, 0.01)]
    print(f"{epsilon:>8} " + " ".join(f"{p:>10.4f}" for p in powers))

print("\ntight two-sided bound at (eps=5, fpr=0.01):",
      f"{dg.supremum_power(5, 1.31e-4, 0.01, tight=True):.4f}")
