"""Filtering by MI score beats random subsampling under label noise.

With 30% of the training labels flipped, we sweep the retention ratio and
compare selection strategies: keep the top-scored samples (globally or per
class), keep the bottom-scored ones, or sample at random. Test accuracy
comes from a multinomial logistic regression trained on each retained
subset and evaluated on a clean test split.
"""

import numpy as np

import miselect as ms

full = ms.generate_synthetic(4, 150, dim=8, class_stddev=1.0, class_separation=3.0, seed=0)
train_ds, test_ds = ms.train_test_split(full, 0.25, seed=1)
noisy = ms.flip_labels(train_ds, 0.3, seed=2)

model = ms.fit_pca(noisy, 4)
etr, ete = ms.transform(model, noisy), ms.transform(model, test_ds)
scores = ms.score_discrete(etr, k=3)
print(f"train N={etr.n} with {int(etr.label_flipped.sum())} flipped labels, "
      f"global MI = {scores.global_mi:.3f} nats\n")

strategies = [
    ("global/top", "global", "top"),
    ("class_wise/top", "class_wise", "top"),
    ("global/random", "global", "random"),
    ("global/bottom", "global", "bottom"),
]
ratios = (0.2, 0.4, 0.6, 0.8, 1.0)

print(f"{'strategy':>15} " + " ".join(f"r={r:<4}" for r in ratios))
for name, scope, band in strategies:
    row = []
    for ratio in ratios:
        plan = ms.SelectionPlan(scope, band, ratio, seed=7 if band == "random" else None)
        sel = ms.select(scores, etr.labels, plan)
        clf = ms.train(etr, sel.retained_indices, epochs=300)
        row.append(ms.evaluate(clf, ete)["accuracy"])
    print(f"{name:>15} " + " ".join(f"{a:.3f}" for a in row))

print("\nthe top bands shed the mislabeled points first, so they hold their")
print("accuracy as the training set shrinks; the bottom band collects them")
print("and collapses. class-wise selection also keeps the class mix stable:")
plan = ms.SelectionPlan("class_wise", "top", 0.4)
sel = ms.select(scores, etr.labels, plan)
print(f"  class_wise/top @ 0.4 per-class counts: {sel.per_class_counts.tolist()}")
plan = ms.SelectionPlan("global", "top", 0.4)
sel = ms.select(scores, etr.labels, plan)
print(f"  global/top     @ 0.4 per-class counts: {sel.per_class_counts.tolist()}")
