"""What the per-sample MI scores are and how the estimator is validated.

Every labeled sample gets a local mutual-information contribution

    score_i = psi(k) + psi(N) - psi(n_x(i) + 1) - psi(n_y(i) + 1)

and the global MI estimate is just the mean of those contributions.
This script sanity-checks the estimator on three instances where the right
answer is known: a correlated bivariate Gaussian with a closed-form MI,
labels that are pure noise, and clusters so well separated that the labels
are fully predictable from position.
"""

import math

import numpy as np

import miselect as ms

# --- 1. closed form: bivariate Gaussian, MI = -0.5 ln(1 - rho^2) ----------

rho = 0.9
target = -0.5 * math.log(1 - rho**2)
rng = np.random.default_rng(0)
xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2000)
scores = ms.score_continuous(xy[:, 0], xy[:, 1], k=3)
print("bivariate Gaussian, rho = 0.9")
print(f"  estimated MI : {scores.global_mi:.4f} nats")
print(f"  closed form  : {target:.4f} nats")
print(f"  error        : {abs(scores.global_mi - target):.4f}")

# --- 2. independent labels: MI should be ~0 -------------------------------

pts = rng.standard_normal((500, 4))
labels = rng.integers(0, 4, 500)
emb = ms.LabeledDataset.from_arrays(pts, labels)
indep = ms.score_discrete(emb, k=3)
print("\nlabels independent of positions")
print(f"  estimated MI : {indep.global_mi:+.4f} nats (should be near 0)")

# --- 3. deterministic limit: perfectly separable classes -> MI = H(Y) -----

blobs = ms.generate_synthetic(4, 200, dim=4, class_stddev=0.01, class_separation=100.0, seed=1)
det = ms.score_discrete(blobs, k=3)
print("\nfour tight, far-apart clusters (labels fully predictable)")
print(f"  estimated MI : {det.global_mi:.4f} nats")
print(f"  ln(4)        : {math.log(4):.4f} nats")

# --- what the local scores look like ---------------------------------------

print("\nlocal score distribution on the separable instance:")
summary = ms.per_class_summary(det, blobs.labels)
for c in range(4):
    s = summary[c]
    print(f"  class {c}: mean={s['mean']:.3f} sd={s['stddev']:.3f} "
          f"min={s['min']:.3f} max={s['max']:.3f} (n={s['count']})")
