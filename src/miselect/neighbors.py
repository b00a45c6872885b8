"""Exact nearest-neighbor queries under the Chebyshev (max) metric.

The bulk queries (kth neighbor distance, radius counts) walk the distance
matrix one cache-sized row block at a time; the single queries are a linear
scan per point and serve as their oracle. Max and abs are exact, so both
give identical distances. Single queries rank neighbors by (distance, point
index). Queries address an indexed point by its index and exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, InsufficientNeighborsError

JITTER_SCALE = 1e-10
BLOCK_BYTES = 1 << 19  # size of each (rows, N) working buffer of the bulk kernel


def chebyshev(points, q):
    """Max-norm distances from row vectors ``points`` to a single point ``q``."""
    return np.abs(points - q).max(axis=1)


def add_jitter(points, seed):
    """``points`` plus a deterministic uniform jitter in [-1e-10, 1e-10].

    Breaks exact duplicates; returns ``points`` unchanged when ``seed`` is None.
    """
    if seed is None:
        return points
    rng = np.random.default_rng(seed)
    return points + rng.uniform(-JITTER_SCALE, JITTER_SCALE, size=points.shape)


def _block_rows(n):
    return max(1, min(n, BLOCK_BYTES // (8 * n)))


def _chebyshev_blocks(points):
    """Yield (start, stop, block): distances from rows start:stop to every point.

    ``block`` is a (stop - start, N) view of a buffer that the next step
    overwrites. It is built as a running maximum of |x_a - y_a| over the
    coordinates a, read from a transposed contiguous copy of the points.
    """
    n, d = points.shape
    columns = np.ascontiguousarray(points.T)
    rows = _block_rows(n)
    dist = np.empty((rows, n))
    diff = np.empty((rows, n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block, tmp = dist[: stop - start], diff[: stop - start]
        np.subtract(points[start:stop, 0, None], columns[0], out=block)
        np.abs(block, out=block)
        for a in range(1, d):
            np.subtract(points[start:stop, a, None], columns[a], out=tmp)
            np.abs(tmp, out=tmp)
            np.maximum(block, tmp, out=block)
        yield start, stop, block


@dataclass(frozen=True)
class NeighborResult:
    """k nearest neighbors: distances non-decreasing, ties by smaller index."""

    indices: np.ndarray
    distances: np.ndarray


class NeighborIndex:
    """Immutable index over a fixed point set; supports concurrent queries.

    When ``jitter_seed`` is given, ``add_jitter`` is applied once at build
    time to break exact duplicates.
    """

    def __init__(self, points, jitter_seed=None):
        # always a copy, so freezing it never freezes the caller's array
        points = np.array(points, dtype=np.float64, order="C")
        if points.ndim != 2 or points.shape[0] < 1:
            raise ConfigError("index needs a non-empty 2-D point array")
        if not np.all(np.isfinite(points)):
            raise ConfigError("index points must be finite")
        points = add_jitter(points, jitter_seed)
        points.flags.writeable = False
        self.points = points
        self.jitter_seed = jitter_seed

    @property
    def n(self):
        return self.points.shape[0]

    def _check_query(self, q_index, k=None):
        if not (0 <= q_index < self.n):
            raise ConfigError(f"query index {q_index} out of range [0, {self.n})")
        if k is not None and not (1 <= k <= self.n - 1):
            raise ConfigError(f"k={k} must lie in [1, N-1={self.n - 1}]")

    # -- single queries (linear scan; the oracle for the bulk queries) ---

    def knn(self, q_index, k):
        """k nearest neighbors of an indexed point, self excluded."""
        self._check_query(q_index, k)
        return self._knn_scan(q_index, k, None)

    def knn_among(self, q_index, k, candidate_mask):
        """knn restricted to points where ``candidate_mask`` is True."""
        self._check_query(q_index)
        mask = np.asarray(candidate_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ConsistencyError("candidate_mask must have one entry per indexed point")
        available = int(mask.sum()) - (1 if mask[q_index] else 0)
        if k < 1:
            raise ConfigError("k must be positive")
        if available < k:
            raise InsufficientNeighborsError(
                f"only {available} candidates besides self, need {k}"
            )
        return self._knn_scan(q_index, k, mask)

    def count_within(self, q_index, radius, strict=True):
        """Number of other points at distance < radius (strict) or <= radius."""
        self._check_query(q_index)
        if radius < 0:
            raise ConfigError("radius must be non-negative")
        d = chebyshev(self.points, self.points[q_index])
        hit = d < radius if strict else d <= radius
        hit[q_index] = False
        return int(hit.sum())

    def _knn_scan(self, q_index, k, mask):
        d = chebyshev(self.points, self.points[q_index])
        cand = np.arange(self.n) if mask is None else np.flatnonzero(mask)
        cand = cand[cand != q_index]
        dc = d[cand]
        order = np.lexsort((cand, dc))[:k]
        return NeighborResult(indices=cand[order].astype(np.int64), distances=dc[order])

    # -- bulk queries (same results as looping the single queries) ------

    def kth_distance_bulk(self, k):
        """Distance to the kth nearest neighbor for every indexed point."""
        if not (1 <= k <= self.n - 1):
            raise ConfigError(f"k={k} must lie in [1, N-1={self.n - 1}]")
        out = np.empty(self.n)
        for start, stop, block in _chebyshev_blocks(self.points):
            rows = np.arange(stop - start)
            block[rows, rows + start] = np.inf
            block.partition(k - 1, axis=1)
            out[start:stop] = block[:, k - 1]
        return out

    def count_within_bulk(self, radii, strict=True):
        """count_within for every indexed point with per-point radii."""
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (self.n,):
            raise ConsistencyError("radii must have one entry per indexed point")
        compare = np.less if strict else np.less_equal
        hit_buffer = np.empty((_block_rows(self.n), self.n), dtype=bool)
        out = np.empty(self.n, dtype=np.int64)
        for start, stop, block in _chebyshev_blocks(self.points):
            rows = np.arange(stop - start)
            hit = hit_buffer[: stop - start]
            compare(block, radii[start:stop, None], out=hit)
            hit[rows, rows + start] = False
            out[start:stop] = np.count_nonzero(hit, axis=1)
        return out


def build_index(points, jitter_seed=None):
    """Build a NeighborIndex over the given points."""
    return NeighborIndex(points, jitter_seed=jitter_seed)


def knn(index, q_index, k):
    return index.knn(q_index, k)


def knn_among(index, q_index, k, candidate_mask):
    return index.knn_among(q_index, k, candidate_mask)


def count_within(index, q_index, radius, strict=True):
    return index.count_within(q_index, radius, strict)
