"""Exact nearest-neighbor queries under the Chebyshev (max) metric.

An index answers two bulk queries for all of its points at once: the
distance to each point's kth nearest neighbor, and the number of points
within each point's radius. Both drive one sweep: the points are sorted on
one coordinate and each row is compared, one cache-sized block at a time,
with its window, the sorted points whose gap on that coordinate can lie
within the row's radius. The radius counts prune to those windows; the kth
neighbor distance has no radius, so its windows are the whole set. Every
query excludes the point itself. Max and abs are exact, so the results are
those of a linear scan per point, bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ._util import frozen, is_int
from .errors import ConfigError, ConsistencyError

JITTER_SCALE = 1e-10
BLOCK_BYTES = 1 << 19  # size of each (rows, window) working buffer of the sweep
_UFUNC_BUFSIZE = 256  # numpy iteration buffer, in elements, while a bulk query runs


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


def _block_capacity(n):
    """Elements in each sweep buffer: BLOCK_BYTES / 8, but at least one row."""
    return min(n * n, max(BLOCK_BYTES // 8, n))


def _sweep(points, radii):
    """Yield (rows, own, dist): the Chebyshev distances from a block of
    points to the union of their windows.

    The points are sorted stably on their widest-ranging coordinate. The
    window of point i holds the points whose key lies within
    key_i +- (radii_i + slack), where the slack of a few ulps covers the
    rounding of the window bounds, because outside it the rounded gap on
    that coordinate, and so the Chebyshev distance, exceeds radii_i; an
    infinite radius makes the window every point. Rows are grouped by
    window width in power-of-two bands, then by sort position, so that a
    wide window does not widen the blocks of narrow ones. ``rows`` holds
    the point indices of a block, ``own`` the column of each row's own
    point in ``dist``, and ``dist`` is a (len(rows), window) view of a
    buffer that the next block overwrites. The small ufunc buffer of
    ``_row_broadcast_buffers`` is in effect while a block is out.
    """
    n = len(points)
    axis = int(np.argmax(np.ptp(points, axis=0)))
    sort = np.argsort(points[:, axis], kind="stable")
    columns = np.ascontiguousarray(points[sort].T)
    key, r = columns[axis], radii[sort]
    finite = r[np.isfinite(r)]
    # near the float64 limit a bound overflows to inf, which still bounds it
    with np.errstate(over="ignore"):
        bound = max(-key[0], key[-1]) + (finite.max() if finite.size else 0.0)
        slack = 8 * np.spacing(min(bound, np.finfo(np.float64).max))
        lo = np.searchsorted(key, key - r - slack, side="left")
        hi = np.searchsorted(key, key + r + slack, side="right")
    # rows by power-of-two band of window width, then by sort position
    order = np.argsort(np.frexp(hi - lo)[1], kind="stable")

    size = _block_capacity(n)
    dist_buf, tmp_buf = np.empty(size), np.empty(size)
    with _row_broadcast_buffers():
        for rows, b_lo, b_hi in _window_blocks(order, lo, hi, BLOCK_BYTES // 8):
            shape = (len(rows), b_hi - b_lo)
            dist = dist_buf[: shape[0] * shape[1]].reshape(shape)
            _chebyshev_into(dist, tmp_buf[: dist.size].reshape(shape),
                            columns[:, rows], columns[:, b_lo:b_hi])
            yield sort[rows], rows - b_lo, dist


class NeighborIndex:
    """Immutable index over a fixed point set; supports concurrent queries."""

    def __init__(self, points):
        # always a copy, so a later change to the caller's array never reaches the index
        points = np.array(points, dtype=np.float64, order="C")
        if points.ndim != 2 or 0 in points.shape:
            raise ConfigError("index needs a non-empty 2-D point array")
        if not np.all(np.isfinite(points)):
            raise ConfigError("index points must be finite")
        self.points = frozen(points)

    def kth_distance_bulk(self, k):
        """Distance to the kth nearest neighbor for every indexed point."""
        n = len(self.points)
        if not (is_int(k, 1) and k <= n - 1):
            raise ConfigError(f"k={k} must be an integer in [1, N-1={n - 1}]")
        out = np.empty(n)
        # no radius bounds the kth, so every window is the whole set
        for rows, own, dist in _sweep(self.points, np.full(n, np.inf)):
            dist[np.arange(len(rows)), own] = np.inf
            dist.partition(k - 1, axis=1)
            out[rows] = dist[:, k - 1]
        return out

    def count_within_bulk(self, radii, strict=True):
        """For every indexed point, the number of other points at distance
        < its radius (strict) or <= it.

        Each row is compared only with its window of the sweep: the points
        whose gap on the sorting coordinate can lie within its radius.
        """
        n = len(self.points)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (n,):
            raise ConsistencyError("radii must have one entry per indexed point")
        # `not >=` also rejects NaN
        if not np.all(radii >= 0):
            raise ConfigError("radius must be non-negative (inf allowed, NaN not)")
        compare = np.less if strict else np.less_equal
        hit_buf = np.empty(_block_capacity(n), dtype=bool)
        counts = np.empty(n, dtype=np.int64)
        for rows, _, dist in _sweep(self.points, radii):
            hit = hit_buf[: dist.size].reshape(dist.shape)
            compare(dist, radii[rows, None], out=hit)
            counts[rows] = np.count_nonzero(hit, axis=1)
        # every row's window holds the row itself, at distance 0
        counts -= (radii > 0) if strict else 1
        return counts
