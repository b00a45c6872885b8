"""Linear-scan oracle for the bulk queries of ``miselect.neighbors``.

Every query scans all points with plain numpy: no sorting, windows or
blocks. Distances are Chebyshev, and max and abs are exact, so the bulk
queries must equal these results bit for bit. A point is never its own
neighbour.
"""

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
