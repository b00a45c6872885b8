"""MI tells harmful input corruption apart from benign variation.

Three kinds of input modification hit 30% of a synthetic image corpus:

  * strong affine warps that destroy the pattern's identity,
  * heavy additive Gaussian pixel noise (clamped to [0, 1]),
  * mild affine warps like the ones used for data augmentation.

Samples whose semantics are destroyed score far below their clean peers;
noisy-but-recognizable samples keep ordinary scores, so a score-based
filter removes the former and keeps the latter.
"""

import numpy as np

import miselect as ms


def render(img, height, width):
    chars = " .:-=+*#%@"
    rows = []
    for r in range(height):
        row = img.reshape(height, width)[r]
        rows.append("".join(chars[min(9, int(v * 9.999))] for v in row))
    return rows


H = W = 16
base = ms.generate_pattern_images(4, 200, height=H, width=W, noise=0.05, jitter_px=1, seed=0)

results = {}
for kind in ("affine_strong", "gaussian", "affine_mild"):
    if kind == "gaussian":
        noisy = ms.add_gaussian(base, 0.9, 0.3, seed=5)
    else:
        params = ms.STRONG_AFFINE if kind == "affine_strong" else ms.MILD_AFFINE
        noisy = ms.affine_warp(base, params, 0.3, 5, kind=kind)
    model = ms.fit_pca(noisy, 8)
    emb = ms.transform(model, noisy)
    scores = ms.score_discrete(emb, k=3)
    hit = emb.input_corruption != ""
    gap = scores.local_scores[~hit].mean() - scores.local_scores[hit].mean()
    sel = ms.select(scores, emb.labels, ms.SelectionPlan("global", "top", 0.8))
    kept = np.zeros(emb.n, dtype=bool)
    kept[sel.retained_indices] = True
    results[kind] = (gap, kept[hit].mean(), noisy, hit)

print("clean-minus-corrupted mean local MI and survival under top-80% selection:")
for kind, (gap, kept_frac, _, _) in results.items():
    print(f"  {kind:<14} gap = {gap:+.3f} nats   corrupted kept = {100 * kept_frac:.0f}%")

print("\nstrong warps get filtered; Gaussian noise and mild warps survive,")
print("which is exactly what you want when the noisy samples are still valid.")

# show one victim of the strong warp next to its clean original
_, _, warped_ds, hit = results["affine_strong"]
victim = int(np.flatnonzero(hit)[0])
print(f"\nsample {victim} (class {warped_ds.labels[victim]}), before and after the strong warp:")
left = render(base.features[victim], H, W)
right = render(warped_ds.features[victim], H, W)
for a, b in zip(left, right):
    print(f"  {a}   {b}")
