"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line
per criterion. Statistical criteria use fixed seed sets; thresholds are
pinned here and never loosened at run time.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import miselect as ms
from miselect import neighbors
from miselect.experiment import run_experiment
from miselect.logreg import loss_and_gradient
import _oracle

SEEDS = (0, 1, 2, 3, 4)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _separated_blobs(num_classes, per_class, seed, dim=8, sep=10.0, stddev=0.5):
    return ms.generate_synthetic(num_classes, per_class, dim, stddev, class_separation=sep,
                                 seed=seed)


def _score_flipped(ds, rate, flip_seed, d=8, k=3):
    noisy = ms.flip_labels(ds, rate, seed=flip_seed)
    model = ms.fit_pca(noisy, d)
    emb = ms.transform(model, noisy)
    return emb, ms.score_discrete(emb, k)


def ranking_auc(clean, corrupted):
    both = np.concatenate([corrupted, clean])
    order = both.argsort(kind="stable")
    ranks = np.empty(len(both))
    ranks[order] = np.arange(1, len(both) + 1)
    for v in np.unique(both):
        tie = both == v
        if tie.sum() > 1:
            ranks[tie] = ranks[tie].mean()
    n_c, n_k = len(corrupted), len(clean)
    return (ranks[n_c:].sum() - n_k * (n_k + 1) / 2) / (n_k * n_c)


# ---------------------------------------------------------------------------


def test_c1_estimator_closed_form_gaussian():
    rho = 0.9
    target = -0.5 * math.log(1.0 - rho * rho)
    start = time.monotonic()
    estimates = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        xy = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=2000)
        estimates.append(ms.score_continuous(xy[:, 0], xy[:, 1], 3).global_mi)
    elapsed = time.monotonic() - start
    err = abs(float(np.mean(estimates)) - target)
    _report(
        "C1 closed-form Gaussian MI",
        err <= 0.05 and elapsed < 10.0,
        f"mean={np.mean(estimates):.4f} target={target:.4f} err={err:.4f} time={elapsed:.1f}s",
    )


def test_c2_independence_zero():
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(100 + seed)
        pts = rng.standard_normal((500, 4))
        labels = rng.integers(0, 4, 500)
        emb = ms.LabeledDataset.from_arrays(pts, labels)
        worst = max(worst, abs(ms.score_discrete(emb, 3).global_mi))
    _report("C2 independence zero", worst <= 0.05, f"worst |MI|={worst:.4f} <= 0.05")


def test_c3_deterministic_limits():
    two = _separated_blobs(2, 100, seed=0, dim=4, sep=100.0, stddev=0.01)
    emb2 = ms.LabeledDataset.from_arrays(two.features, two.labels)
    mi2 = ms.score_discrete(emb2, 3).global_mi
    four = _separated_blobs(4, 200, seed=1, dim=4, sep=100.0, stddev=0.01)
    emb4 = ms.LabeledDataset.from_arrays(four.features, four.labels)
    mi4 = ms.score_discrete(emb4, 3).global_mi
    err2 = abs(mi2 - math.log(2))
    err4 = abs(mi4 - math.log(4))
    _report(
        "C3 deterministic limits",
        err2 <= 0.05 and err4 <= 0.07,
        f"2-class err={err2:.4f} (<=0.05), 4-class err={err4:.4f} (<=0.07)",
    )


def test_c4_noise_monotone_in_flip_rate():
    all_ok = True
    detail = []
    for seed in SEEDS:
        ds = _separated_blobs(4, 200, seed=seed)
        mis = []
        for rate in (0.0, 0.2, 0.5, 0.8):
            _, scores = _score_flipped(ds, rate, flip_seed=7000 + seed)
            mis.append(scores.global_mi)
        decreasing = all(a > b for a, b in zip(mis, mis[1:]))
        all_ok &= decreasing
        detail.append(f"s{seed}:{'>'.join(f'{m:.2f}' for m in mis)}")
    _report("C4 flip-rate monotonicity", all_ok, "; ".join(detail))


def test_c5_mislabeled_separation():
    all_ok = True
    aucs = []
    for seed in SEEDS:
        ds = _separated_blobs(4, 200, seed=seed)
        emb, scores = _score_flipped(ds, 0.1, flip_seed=8000 + seed)
        flipped = emb.label_flipped
        auc = ranking_auc(scores.local_scores[~flipped], scores.local_scores[flipped])
        means_ok = scores.local_scores[flipped].mean() < scores.local_scores[~flipped].mean()
        all_ok &= (auc >= 0.85) and means_ok
        aucs.append(auc)
    _report(
        "C5 mislabeled separation",
        all_ok,
        f"AUCs={[f'{a:.3f}' for a in aucs]} all >= 0.85, flipped means lower",
    )


def test_c6_selection_benefit():
    tops, rands, bottoms = [], [], []
    for seed in SEEDS:
        full = ms.generate_synthetic(4, 150, 8, 1.0, class_separation=3.0, seed=seed)
        train_ds, test_ds = ms.train_test_split(full, 0.25, seed=1000 + seed)
        noisy = ms.flip_labels(train_ds, 0.3, seed=2000 + seed)
        model = ms.fit_pca(noisy, 4)
        etr, ete = ms.transform(model, noisy), ms.transform(model, test_ds)
        scores = ms.score_discrete(etr, 3)
        accs = {}
        for band in ("top", "random", "bottom"):
            plan = ms.SelectionPlan(
                "global", band, 0.4, seed=3000 + seed if band == "random" else None
            )
            sel = ms.select(scores, etr.labels, plan)
            clf = ms.train(etr, sel.retained_indices, epochs=300)
            accs[band] = ms.evaluate(clf, ete)["accuracy"]
        tops.append(accs["top"])
        rands.append(accs["random"])
        bottoms.append(accs["bottom"])
    wins = sum(t > r for t, r in zip(tops, rands))
    gap = float(np.mean(tops) - np.mean(rands))
    bottom_below = float(np.mean(bottoms)) < float(np.mean(rands))
    _report(
        "C6 selection benefit",
        wins >= 4 and gap > 0.02 and bottom_below,
        f"top wins {wins}/5, mean gap {100 * gap:.1f}pp (>2pp), "
        f"bottom {np.mean(bottoms):.3f} < random {np.mean(rands):.3f}",
    )


def test_c7_benign_vs_harmful_input_noise():
    def corrupted_stats(seed, kind):
        ds = ms.generate_pattern_images(4, 200, height=16, width=16, noise=0.05,
                                        jitter_px=1, seed=seed)
        if kind == "gaussian":
            noisy = ms.add_gaussian(ds, 0.9, 0.3, seed=500 + seed)
        else:
            params = ms.STRONG_AFFINE if kind == "affine_strong" else ms.MILD_AFFINE
            noisy = ms.affine_warp(ds, params, 0.3, 500 + seed, 16, 16, kind=kind)
        model = ms.fit_pca(noisy, 8)
        emb = ms.transform(model, noisy)
        scores = ms.score_discrete(emb, 3)
        hit = emb.input_corruption != ""
        gap = float(scores.local_scores[~hit].mean() - scores.local_scores[hit].mean())
        sel = ms.select(scores, emb.labels, ms.SelectionPlan("global", "top", 0.8))
        kept = np.zeros(emb.n, dtype=bool)
        kept[sel.retained_indices] = True
        return gap, float(kept[hit].mean())

    all_ok = True
    details = []
    for seed in SEEDS:
        strong_gap, _ = corrupted_stats(seed, "affine_strong")
        gauss_gap, gauss_kept = corrupted_stats(seed, "gaussian")
        mild_gap, _ = corrupted_stats(seed, "affine_mild")
        ok = (
            strong_gap > 0
            and gauss_gap < strong_gap
            and mild_gap < strong_gap
            and gauss_kept >= 0.70
        )
        all_ok &= ok
        details.append(
            f"s{seed}: strong={strong_gap:.2f} gauss={gauss_gap:.2f} "
            f"mild={mild_gap:.2f} kept={gauss_kept:.2f}"
        )
    _report("C7 benign vs harmful input noise", all_ok, "; ".join(details))


def test_c8a_tree_vs_brute_oracle(monkeypatch):
    """The blocked bulk kernel against the linear-scan oracle, under a
    block of one row, a row count that does not divide N, and one block."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 220))
        d = int(rng.integers(1, 7))
        pts = np.round(rng.standard_normal((n, d)) * 2.0, 1)
        idx = ms.NeighborIndex(pts)
        k = int(rng.integers(1, n))
        kth = _oracle.kth_distances(pts, k)
        radii = rng.uniform(0.0, 4.0, size=n)
        radii[::3] = kth[::3]  # radii on exact distance ties
        radii[::7] = 0.0
        counts = {strict: _oracle.radius_counts(pts, radii, strict) for strict in (True, False)}
        mask = rng.random(n) < 0.5
        members = np.flatnonzero(mask)
        kk = int(rng.integers(1, len(members))) if len(members) >= 2 else 0
        among = _oracle.kth_distances(pts, kk, mask)[members] if kk else []
        sub = ms.NeighborIndex(pts[members]) if kk else None
        rows = next((r for r in range(2, n) if n % r), 1)
        for budget in (1, 8 * n * rows, 8 * n * n):
            monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
            if not np.array_equal(idx.kth_distance_bulk(k), kth):
                mismatches += 1
            for strict in (True, False):
                if not np.array_equal(idx.count_within_bulk(radii, strict), counts[strict]):
                    mismatches += 1
            if kk and not np.array_equal(sub.kth_distance_bulk(kk), among):
                mismatches += 1
    _report("C8a blocked bulk kernel vs linear-scan oracle", mismatches == 0,
            f"{mismatches} mismatches over 100 instances")


EULER_GAMMA = 0.57721566490153286061


def _psi_int(n):
    return -EULER_GAMMA + sum(1.0 / j for j in range(1, n))


def test_c8b_hand_instance_term_by_term():
    points = np.arange(12, dtype=np.float64)
    labels = np.array([0, 1] * 6)
    k = 2
    expected = []
    for i in range(12):
        same = [j for j in range(12) if j != i and labels[j] == labels[i]]
        dists = sorted(abs(points[j] - points[i]) for j in same)
        r = dists[k - 1]
        n_x = sum(1 for j in range(12) if j != i and abs(points[j] - points[i]) < r)
        n_y = len(same)
        expected.append(
            _psi_int(k) + _psi_int(12) - _psi_int(n_x + 1) - _psi_int(n_y + 1)
        )
    emb = ms.LabeledDataset.from_arrays(points[:, None], labels)
    result = ms.score_discrete(emb, k)
    worst = float(np.max(np.abs(result.local_scores - np.asarray(expected))))
    _report("C8b hand-instance local scores", worst < 1e-10, f"max |diff|={worst:.2e}")


def test_c8c_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = np.hstack([rng.standard_normal((5, 3)), np.ones((5, 1))])
    labels = np.array([0, 1, 2, 1, 0])
    w = rng.standard_normal((3, 4)) * 0.7
    _, grad = loss_and_gradient(w, x, labels, l2=0.02)
    eps = 1e-6
    worst = 0.0
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            lp, _ = loss_and_gradient(wp, x, labels, l2=0.02)
            lm, _ = loss_and_gradient(wm, x, labels, l2=0.02)
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
            worst = max(worst, abs(grad[i, j] - numeric) / denom)
    _report("C8c analytic gradient", worst < 1e-5, f"worst relative diff={worst:.2e}")


DIGAMMA_ORACLE = {
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.7: 1.1671535393615113859,
    10.0: 2.2517525890667211076,
    100.0: 4.6001618527380874002,
}


def test_c8d_digamma_against_high_precision_oracle():
    worst = max(abs(ms.digamma(x) - v) for x, v in DIGAMMA_ORACLE.items())
    _report("C8d digamma accuracy", worst < 1e-10, f"worst |err|={worst:.2e}")


DETERMINISM_CONFIG = {
    "schema_version": 1,
    "seed": 42,
    "dataset": {
        "type": "synthetic",
        "num_classes": 3,
        "per_class_count": 40,
        "dim": 5,
        "class_separation": 3.0,
        "class_stddev": 1.0,
        "test_fraction": 0.25,
    },
    "embedding": {"dim": 3, "whiten": False},
    "corruptions": [{"kind": "label_flip", "rate": 0.2}],
    "estimator": {"variant": "discrete_label", "k": 3, "strict": True},
    "selection": {
        "plans": [
            {"scope": "global", "band": "top"},
            {"scope": "class_wise", "band": "random"},
        ],
        "ratios": [0.4, 0.8],
    },
    "classifier": {"learning_rate": 0.1, "epochs": 60, "l2": 1e-4},
}


def test_c9_end_to_end_determinism(tmp_path):
    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*"))
            if p.is_file()
        }

    run_experiment(DETERMINISM_CONFIG, out_dir=tmp_path / "a", threads=1)
    run_experiment(DETERMINISM_CONFIG, out_dir=tmp_path / "b", threads=1)
    run_experiment(DETERMINISM_CONFIG, out_dir=tmp_path / "c", threads=3)
    a, b, c = tree(tmp_path / "a"), tree(tmp_path / "b"), tree(tmp_path / "c")
    same_names = sorted(a) == sorted(b) == sorted(c)
    same_bytes = same_names and all(a[k] == b[k] == c[k] for k in a)
    _report(
        "C9 end-to-end determinism",
        same_bytes,
        f"{len(a)} files byte-identical across reruns and thread counts",
    )


def test_c10_selection_invariant_battery():
    rng = np.random.default_rng(31337)
    cases = 0
    failures = []
    while cases < 1000:
        n = int(rng.integers(2, 150))
        classes = int(rng.integers(1, 6))
        labels = rng.integers(0, classes, n).astype(np.int64)
        scores = np.round(rng.standard_normal(n), 1)
        if rng.random() < 0.15:
            scores[rng.integers(0, n)] = -np.inf
        ratio = float(rng.uniform(0.05, 1.0))
        m = round(ratio * n)
        if m == 0:
            continue
        cases += 1
        scope = "global" if rng.random() < 0.5 else "class_wise"
        band = ("top", "middle", "bottom", "random")[int(rng.integers(0, 4))]
        plan = ms.SelectionPlan(scope, band, ratio, seed=int(rng.integers(0, 10_000)))
        result = ms.select(scores, labels, plan, num_classes=classes)
        if result.size != m or len(np.unique(result.retained_indices)) != m:
            failures.append(f"cardinality case {cases}")
        if scope == "class_wise":
            counts = np.bincount(labels, minlength=classes)
            for c in range(classes):
                if abs(result.per_class_counts[c] - m * counts[c] / n) > 1.0 + 1e-9:
                    failures.append(f"balance case {cases}")
        if scope == "global" and band == "top":
            kept = np.zeros(n, dtype=bool)
            kept[result.retained_indices] = True
            if (~kept).any() and scores[kept].min() < scores[~kept].max():
                failures.append(f"dominance case {cases}")
            shifted = ms.select(scores + 3.25, labels, plan, num_classes=classes)
            scaled = ms.select(scores * 1.75, labels, plan, num_classes=classes)
            if not (np.array_equal(result.retained_indices, shifted.retained_indices)
                    and np.array_equal(result.retained_indices, scaled.retained_indices)):
                failures.append(f"affine case {cases}")
            if ratio < 1.0:
                bigger = ms.select(
                    scores, labels,
                    ms.SelectionPlan(scope, band, min(1.0, ratio + 0.3)),
                    num_classes=classes,
                )
                if not set(result.retained_indices).issubset(set(bigger.retained_indices)):
                    failures.append(f"nesting case {cases}")
    _report(
        "C10 selection invariants",
        not failures,
        f"1000 randomized cases, {len(failures)} failures",
    )
