"""Plain-numpy oracles: a linear scan for the bulk queries of
``miselect.neighbors``, the ranking AUC of clean over corrupted scores, and
the selection rule written out per scope and per band.

Every query scans all points with plain numpy: no sorting, windows or
blocks. Distances are Chebyshev, and max and abs are exact, so the bulk
queries must equal these results bit for bit. A point is never its own
neighbour.
"""

import math
from fractions import Fraction

import numpy as np


def distances(points, q):
    """Chebyshev distances from every point to point ``q``."""
    points = np.asarray(points, dtype=np.float64)
    return np.abs(points - points[q]).max(axis=1)


def knn(points, q, k, mask=None):
    """(indices, distances) of the k points nearest to point ``q``, other
    than ``q`` and among ``mask`` when given, ranked by (distance, index)."""
    d = distances(points, q)
    cand = np.arange(len(d)) if mask is None else np.flatnonzero(mask)
    cand = cand[cand != q]
    if len(cand) < k:
        raise ValueError(f"only {len(cand)} candidates besides {q}, need {k}")
    order = np.lexsort((cand, d[cand]))[:k]
    return cand[order], d[cand[order]]


def kth_distances(points, k, mask=None):
    """For every point, the distance to its kth nearest other point, among
    ``mask`` when given."""
    return np.array([knn(points, q, k, mask)[1][-1] for q in range(len(points))])


def radius_counts(points, radii, strict=True):
    """For every point q, the number of other points at distance < radii[q]
    (strict) or <= radii[q]; a scalar radius applies to every point."""
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (len(points),))
    counts = np.empty(len(points), dtype=np.int64)
    for q in range(len(points)):
        d = distances(points, q)
        hit = d < radii[q] if strict else d <= radii[q]
        hit[q] = False
        counts[q] = np.count_nonzero(hit)
    return counts


def ranking_auc(clean_scores, corrupted_scores):
    """Probability that a random clean sample out-scores a random corrupted one."""
    both = np.concatenate([corrupted_scores, clean_scores])
    order = both.argsort(kind="stable")
    ranks = np.empty(len(both))
    ranks[order] = np.arange(1, len(both) + 1)
    # midranks for ties
    for v in np.unique(both):
        tie = both == v
        if tie.sum() > 1:
            ranks[tie] = ranks[tie].mean()
    n_c = len(corrupted_scores)
    n_k = len(clean_scores)
    return (ranks[n_c:].sum() - n_k * (n_k + 1) / 2) / (n_k * n_c)


def largest_remainder_quotas(m, counts):
    """Apportion ``m`` items across groups proportionally to ``counts``, in
    rational arithmetic: the floor of each exact share, then one more for
    the groups with the largest remainders, ties to the lower group id."""
    total = sum(counts)
    if m < 0 or m > total:
        raise ValueError(f"cannot apportion {m} items across {total}")
    shares = [Fraction(m * int(count), total) for count in counts]
    quotas = [math.floor(share) for share in shares]
    by_remainder = sorted(range(len(counts)), key=lambda g: (quotas[g] - shares[g], g))
    for g in by_remainder[: m - sum(quotas)]:
        quotas[g] += 1
    return np.array(quotas, dtype=np.int64)


def band_pick(local, positions, m, band, rng):
    """Pick m of ``positions`` (global indices) by the band rule on their scores."""
    if band == "random":
        picked = rng.choice(len(positions), size=m, replace=False)
        return positions[picked]
    scores = local[positions]
    if band == "top":
        order = np.lexsort((positions, -scores))
        return positions[order[:m]]
    if band == "bottom":
        order = np.lexsort((positions, scores))
        return positions[order[:m]]
    # middle: rank window centered on the median of the descending order
    order = np.lexsort((positions, -scores))
    start = (len(positions) - m) // 2
    return positions[order[start : start + m]]


def select(local, labels, scope, band, m, num_classes, seed=None):
    """(retained indices, per-class counts) of m samples kept by ``band``
    over all samples (global scope) or within each class's largest-remainder
    quota (class_wise), one code path per scope."""
    local = np.asarray(local, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rng = None if band != "random" else np.random.default_rng(seed)
    if scope == "global":
        retained = band_pick(local, np.arange(len(local), dtype=np.int64), m, band, rng)
    else:
        counts = np.bincount(labels, minlength=num_classes)
        quotas = largest_remainder_quotas(m, counts)
        parts = []
        for c in range(num_classes):
            if quotas[c] == 0:
                continue
            members = np.flatnonzero(labels == c)
            parts.append(band_pick(local, members, int(quotas[c]), band, rng))
        retained = np.concatenate(parts)
    retained = np.sort(retained.astype(np.int64))
    return retained, np.bincount(labels[retained], minlength=num_classes)
