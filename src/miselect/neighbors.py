"""Exact nearest-neighbor queries under the Chebyshev (max) metric.

The bulk queries walk the distance matrix one cache-sized block at a time:
the kth neighbor distance over every row, the radius counts only over the
window of points whose gap on one sorting coordinate can lie within the
radius. The single queries are a linear scan per point and serve as their
oracle. Max and abs are exact, so both give identical distances. Single
queries rank neighbors by (distance, point index). Queries address an
indexed point by its index and exclude it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, InsufficientNeighborsError

JITTER_SCALE = 1e-10
BLOCK_BYTES = 1 << 19  # size of each (rows, N) working buffer of the bulk kernel
_UFUNC_BUFSIZE = 256  # numpy iteration buffer, in elements, while a bulk query runs


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


@contextmanager
def _row_broadcast_buffers():
    """Run ufuncs with a small iteration buffer.

    The block ops broadcast one value per row against a row of points. With
    numpy's default 8192-element buffer, numpy 2.4 copies such an op
    through its buffer whenever three rows fit into it, which measured 2-4x
    slower than the plain per-row loop that a 256-element buffer keeps for
    rows longer than 85 points. Results do not depend on the buffer size;
    the setting is per thread and restored on exit.
    """
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _block_rows(n):
    return max(1, min(n, BLOCK_BYTES // (8 * n)))


def _chebyshev_into(dist, tmp, rows, cols):
    """dist[i, j] = max_a |rows[a, i] - cols[a, j]|, with ``tmp`` as scratch.

    ``rows`` and ``cols`` are coordinate-major, (d, m) and (d, w).
    """
    np.subtract(rows[0, :, None], cols[0], out=dist)
    np.abs(dist, out=dist)
    for a in range(1, len(rows)):
        np.subtract(rows[a, :, None], cols[a], out=tmp)
        np.abs(tmp, out=tmp)
        np.maximum(dist, tmp, out=dist)


def _chebyshev_blocks(points):
    """Yield (start, stop, block): distances from rows start:stop to every point.

    ``block`` is a (stop - start, N) view of a buffer that the next step
    overwrites.
    """
    n = points.shape[0]
    columns = np.ascontiguousarray(points.T)
    rows = _block_rows(n)
    dist = np.empty((rows, n))
    diff = np.empty((rows, n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = dist[: stop - start]
        _chebyshev_into(block, diff[: stop - start], columns[:, start:stop], columns)
        yield start, stop, block


def _window_blocks(order, lo, hi, budget):
    """Split the rows ``order`` into consecutive runs; yield (rows, lo, hi),
    a run and the union of its windows, with len(rows) * (hi - lo) at most
    ``budget`` unless the run is a single row."""
    lows, highs = lo[order].tolist(), hi[order].tolist()
    start, b_lo, b_hi = 0, lows[0], highs[0]
    for j in range(1, len(order)):
        new_lo, new_hi = min(b_lo, lows[j]), max(b_hi, highs[j])
        if (j - start + 1) * (new_hi - new_lo) > budget:
            yield order[start:j], b_lo, b_hi
            start, new_lo, new_hi = j, lows[j], highs[j]
        b_lo, b_hi = new_lo, new_hi
    yield order[start:], b_lo, b_hi


def _check_radius(radius):
    # `not >=` also rejects NaN
    if not np.all(np.asarray(radius) >= 0):
        raise ConfigError("radius must be non-negative (inf allowed, NaN not)")


@dataclass(frozen=True)
class NeighborResult:
    """k nearest neighbors: distances non-decreasing, ties by smaller index."""

    indices: np.ndarray
    distances: np.ndarray


class NeighborIndex:
    """Immutable index over a fixed point set; supports concurrent queries."""

    def __init__(self, points):
        # always a copy, so freezing it never freezes the caller's array
        points = np.array(points, dtype=np.float64, order="C")
        if points.ndim != 2 or points.shape[0] < 1:
            raise ConfigError("index needs a non-empty 2-D point array")
        if not np.all(np.isfinite(points)):
            raise ConfigError("index points must be finite")
        points.flags.writeable = False
        self.points = points

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
        _check_radius(radius)
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
        with _row_broadcast_buffers():
            for start, stop, block in _chebyshev_blocks(self.points):
                rows = np.arange(stop - start)
                block[rows, rows + start] = np.inf
                block.partition(k - 1, axis=1)
                out[start:stop] = block[:, k - 1]
        return out

    def count_within_bulk(self, radii, strict=True):
        """count_within for every indexed point with per-point radii.

        A sweep over the points sorted on their widest-ranging coordinate:
        column j can count for row i only when key_j lies within
        key_i +- (r_i + slack), where the slack of a few ulps covers the
        rounding of the window bounds, because outside it the rounded gap
        on that coordinate, and so the Chebyshev distance, exceeds r_i.
        Rows are grouped by window width in power-of-two bands, then by
        sort position, so that a wide window does not widen the blocks of
        narrow ones; each block compares its rows with the union of their
        windows.
        """
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (self.n,):
            raise ConsistencyError("radii must have one entry per indexed point")
        _check_radius(radii)
        n = self.n
        axis = int(np.argmax(np.ptp(self.points, axis=0)))
        sort = np.argsort(self.points[:, axis], kind="stable")
        columns = np.ascontiguousarray(self.points[sort].T)
        key, r = columns[axis], radii[sort]
        finite = r[np.isfinite(r)]
        bound = max(-key[0], key[-1]) + (finite.max() if finite.size else 0.0)
        slack = 8 * np.spacing(min(bound, np.finfo(np.float64).max))
        lo = np.searchsorted(key, key - r - slack, side="left")
        hi = np.searchsorted(key, key + r + slack, side="right")
        # rows by power-of-two band of window width, then by sort position
        order = np.argsort(np.frexp(hi - lo)[1], kind="stable")

        compare = np.less if strict else np.less_equal
        budget = BLOCK_BYTES // 8
        size = min(n * n, max(budget, n))
        dist_buf, tmp_buf = np.empty(size), np.empty(size)
        hit_buf = np.empty(size, dtype=bool)
        counts = np.empty(n, dtype=np.int64)
        with _row_broadcast_buffers():
            for rows, b_lo, b_hi in _window_blocks(order, lo, hi, budget):
                shape = (len(rows), b_hi - b_lo)
                dist = dist_buf[: shape[0] * shape[1]].reshape(shape)
                _chebyshev_into(dist, tmp_buf[: dist.size].reshape(shape),
                                columns[:, rows], columns[:, b_lo:b_hi])
                hit = hit_buf[: dist.size].reshape(shape)
                compare(dist, r[rows, None], out=hit)
                counts[rows] = np.count_nonzero(hit, axis=1)
        # every row's window holds the row itself, at distance 0
        counts -= (r > 0) if strict else 1
        out = np.empty(n, dtype=np.int64)
        out[sort] = counts
        return out
