import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miselect as ms
from miselect import neighbors
from miselect.errors import ConfigError, ConsistencyError
import _oracle


# ---------------------------------------------------------------------------
# plain-Python linear scan, the reference for the numpy one in _oracle.py
# ---------------------------------------------------------------------------

def oracle_knn(points, q, k, mask=None):
    entries = []
    for j in range(len(points)):
        if j == q or (mask is not None and not mask[j]):
            continue
        d = max(abs(points[j][a] - points[q][a]) for a in range(len(points[q])))
        entries.append((d, j))
    entries.sort()
    picked = entries[:k]
    return [j for _, j in picked], [d for d, _ in picked]


def oracle_count(points, q, radius, strict):
    count = 0
    for j in range(len(points)):
        if j == q:
            continue
        d = max(abs(points[j][a] - points[q][a]) for a in range(len(points[q])))
        if (d < radius) if strict else (d <= radius):
            count += 1
    return count


def block_layouts(n):
    """BLOCK_BYTES values for one row per block, a row count that does not
    divide n (for n >= 3), and a single block covering all n rows."""
    rows = next((r for r in range(2, n) if n % r), 1)
    return (1, 8 * n * rows, 8 * n * n)


def assert_bulk_matches_oracle(idx, k, radii, monkeypatch):
    """Bulk kth distances and counts equal the linear-scan oracle under
    every block layout."""
    kth = _oracle.kth_distances(idx.points, k)
    counts = {strict: _oracle.radius_counts(idx.points, radii, strict) for strict in (True, False)}
    for budget in block_layouts(len(idx.points)):
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        assert np.array_equal(idx.kth_distance_bulk(k), kth)
        for strict in (True, False):
            assert np.array_equal(idx.count_within_bulk(radii, strict), counts[strict])


LINE = np.array([[0.0], [1.0], [3.0]])


# Every hand case runs under two block layouts of the bulk kernel: "kdtree"
# is one row per block, "brute" all rows in one block. The ids are the names
# these cases ran under when they compared a kd-tree with a brute-force
# table, kept so that test results stay comparable across versions.
@pytest.fixture(params=["kdtree", "brute"])
def structure(request, monkeypatch):
    monkeypatch.setattr(neighbors, "BLOCK_BYTES", 1 if request.param == "kdtree" else 1 << 20)
    return request.param


class TestHandGeometry:
    def test_knn_collinear(self, structure):
        idx = ms.NeighborIndex(LINE)
        assert idx.kth_distance_bulk(1).tolist() == [1.0, 1.0, 2.0]
        indices, distances = _oracle.knn(LINE, 1, 1)
        assert list(indices) == [0]
        assert list(distances) == [1.0]

    def test_knn_from_endpoint(self, structure):
        idx = ms.NeighborIndex(LINE)
        assert idx.kth_distance_bulk(2).tolist() == [3.0, 2.0, 3.0]
        indices, distances = _oracle.knn(LINE, 2, 2)
        assert list(indices) == [1, 0]
        assert list(distances) == [2.0, 3.0]

    def test_knn_all_others(self, structure):
        # with k = N - 1 every other point is a neighbour: the kth is the farthest
        idx = ms.NeighborIndex(LINE)
        assert idx.kth_distance_bulk(2).tolist() == [3.0, 2.0, 3.0]
        assert sorted(_oracle.knn(LINE, 0, 2)[0].tolist()) == [1, 2]

    def test_count_boundary_semantics(self, structure):
        idx = ms.NeighborIndex(LINE)
        # the neighbour at distance exactly 1 counts only in the closed ball
        assert idx.count_within_bulk(np.ones(3), strict=True).tolist() == [0, 0, 0]
        assert idx.count_within_bulk(np.ones(3), strict=False).tolist() == [1, 1, 0]
        radii = np.array([1.0, 1.0, 2.0])
        assert idx.count_within_bulk(radii, strict=True).tolist() == [0, 0, 0]
        assert idx.count_within_bulk(radii, strict=False).tolist() == [1, 1, 1]

    def test_count_radius_beyond_diameter(self, structure):
        idx = ms.NeighborIndex(LINE)
        assert idx.count_within_bulk(np.full(3, 100.0)).tolist() == [2, 2, 2]

    def test_duplicates_retrievable(self, structure):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        idx = ms.NeighborIndex(pts)
        # an exact duplicate of a point is its neighbour at distance 0
        assert idx.kth_distance_bulk(1).tolist() == [0.0, 0.0, 4.0]
        assert idx.kth_distance_bulk(2).tolist() == [4.0, 4.0, 4.0]
        assert idx.count_within_bulk(np.zeros(3), strict=False).tolist() == [1, 1, 0]
        assert idx.count_within_bulk(np.zeros(3), strict=True).tolist() == [0, 0, 0]

    def test_mask_singleton(self, structure):
        indices, distances = _oracle.knn(LINE, 0, 1, np.array([False, False, True]))
        assert list(indices) == [2]
        assert list(distances) == [3.0]
        # the kth among a mask is the bulk kth over the masked points, here
        # with the query point joined to the singleton
        assert ms.NeighborIndex(LINE[[0, 2]]).kth_distance_bulk(1).tolist() == [3.0, 3.0]

    def test_mask_all_true_equals_knn(self, structure):
        idx = ms.NeighborIndex(LINE)
        everyone = np.ones(3, dtype=bool)
        for k in (1, 2):
            among = _oracle.kth_distances(LINE, k, everyone)
            assert np.array_equal(among, idx.kth_distance_bulk(k))

    def test_errors(self, structure):
        idx = ms.NeighborIndex(LINE)
        with pytest.raises(ConfigError):
            idx.kth_distance_bulk(3)  # k >= N
        with pytest.raises(ConfigError):
            idx.kth_distance_bulk(0)
        with pytest.raises(ConfigError):
            ms.NeighborIndex(LINE[:1]).kth_distance_bulk(1)
        with pytest.raises(ConsistencyError):
            idx.count_within_bulk(np.ones(2))
        with pytest.raises(ConsistencyError):
            idx.count_within_bulk(np.ones((3, 1)))


def test_build_index_validation():
    with pytest.raises(ConfigError):
        ms.NeighborIndex(np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        ms.NeighborIndex(np.zeros((5, 0)))
    with pytest.raises(ConfigError):
        ms.NeighborIndex(np.array([[0.0, np.nan]]))


@pytest.mark.parametrize("jitter_seed", [None, 7])
def test_index_leaves_caller_array_writeable_and_unchanged(jitter_seed):
    pts = np.arange(8.0).reshape(4, 2)
    before = pts.copy()
    idx = ms.NeighborIndex(neighbors.add_jitter(pts, jitter_seed))
    assert pts.flags.writeable
    assert np.array_equal(pts, before)
    assert not idx.points.flags.writeable
    pts[0, 0] = 100.0
    assert idx.points[0, 0] < 1.0  # the index reads its own copy


def test_tree_equals_brute_on_random_instances(monkeypatch):
    """Blocked bulk kernel vs linear-scan oracle on tie-heavy instances."""
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(4, 160))
        d = int(rng.integers(1, 6))
        # coarse rounding forces plenty of exact distance ties
        pts = np.round(rng.standard_normal((n, d)) * 2.0, 1)
        idx = ms.NeighborIndex(pts)
        k = int(rng.integers(1, n))
        # random radii, exact kth distances (ties at the boundary) and zeros
        radii = rng.uniform(0, 4, size=n)
        radii[::3] = _oracle.kth_distances(pts, k)[::3]
        radii[::7] = 0.0
        assert_bulk_matches_oracle(idx, k, radii, monkeypatch)
        # kth among a mask, as the same-class radius is taken: bulk over the
        # masked subset equals the oracle's masked scan of the full set
        mask = rng.random(n) < 0.5
        members = np.flatnonzero(mask)
        if len(members) >= 2:
            kk = int(rng.integers(1, len(members)))
            among = _oracle.kth_distances(pts, kk, mask)[members]
            sub = ms.NeighborIndex(pts[members])
            for budget in block_layouts(len(members)):
                monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
                assert np.array_equal(sub.kth_distance_bulk(kk), among)


def test_results_match_python_oracle():
    """The numpy linear scan against the plain-Python one."""
    rng = np.random.default_rng(77)
    pts = np.round(rng.uniform(-3, 3, size=(40, 3)), 1)
    mask = (np.arange(40) % 3) == 0
    counts = {strict: _oracle.radius_counts(pts, 1.7, strict) for strict in (True, False)}
    kth = _oracle.kth_distances(pts, 5)
    kth_among = _oracle.kth_distances(pts, 3, mask)
    for q in range(0, 40, 7):
        ref_idx, ref_d = oracle_knn(pts.tolist(), q, 5)
        indices, distances = _oracle.knn(pts, q, 5)
        assert indices.tolist() == ref_idx
        assert distances.tolist() == ref_d
        assert kth[q] == ref_d[-1]
        for strict in (True, False):
            assert counts[strict][q] == oracle_count(pts.tolist(), q, 1.7, strict)
        ref_idx, ref_d = oracle_knn(pts.tolist(), q, 3, mask)
        indices, distances = _oracle.knn(pts, q, 3, mask)
        assert indices.tolist() == ref_idx
        assert kth_among[q] == ref_d[-1]


def test_bulk_queries_match_single_queries(monkeypatch):
    rng = np.random.default_rng(5)
    pts = np.round(rng.standard_normal((60, 4)), 1)
    idx = ms.NeighborIndex(pts)
    radii = rng.uniform(0, 2, size=60)
    for k in (1, 3, 10, 59):
        assert_bulk_matches_oracle(idx, k, radii, monkeypatch)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bulk_kernel_property_matches_oracle(data):
    n = data.draw(st.integers(2, 24), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    # a coarse integer grid makes exact duplicates and distance ties common
    grid = data.draw(
        st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d), label="grid"
    )
    pts = np.asarray(grid, dtype=np.float64).reshape(n, d) * 0.5
    k = data.draw(st.integers(1, n - 1), label="k")
    rows = data.draw(st.integers(1, n + 1), label="rows per block")
    idx = ms.NeighborIndex(pts)
    kth = _oracle.kth_distances(pts, k)
    # radii drawn from zero, the kth distances themselves and the grid steps
    choices = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n), label="radii")
    radii = np.where(np.asarray(choices) == 4, kth, np.asarray(choices) * 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "BLOCK_BYTES", 8 * n * rows)
        assert np.array_equal(idx.kth_distance_bulk(k), kth)
        for strict in (True, False):
            counts = _oracle.radius_counts(pts, radii, strict)
            assert np.array_equal(idx.count_within_bulk(radii, strict), counts)


# coordinates on a coarse grid of float spacings around 0, +-1e15 (where
# one grid step is the spacing, so window bounds round) and +-1e308 (where
# distances and the slack's bound overflow)
_OFFSETS = (0.0, 1e15, -1e15, 1e308, -1e308)


# distances between +-1e308 overflow to inf, in the oracle as in the kernel
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_window_pruned_count_matches_oracle(data):
    """The sorted-window bulk count equals the oracle's, strict and closed,
    and so does the bulk kth distance, under every block layout."""
    n = data.draw(st.integers(2, 20), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    offsets = data.draw(st.lists(st.sampled_from(_OFFSETS), min_size=n * d, max_size=n * d),
                        label="offsets")
    steps = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d),
                      label="steps")
    pts = np.asarray(offsets).reshape(n, d) + 0.125 * np.asarray(steps).reshape(n, d)
    if data.draw(st.booleans(), label="all points share the sort coordinate"):
        pts[:] = pts[0]
    idx = ms.NeighborIndex(pts)
    # radii: 0, inf, grid steps, and exact pairwise distances and their
    # float neighbours, so that many points sit on a window's boundary
    radii = np.empty(n)
    for i in range(n):
        kind = data.draw(st.sampled_from(["zero", "inf", "grid", "pair", "below", "above"]))
        j = data.draw(st.integers(0, n - 1))
        pair = float(np.abs(idx.points[i] - idx.points[j]).max())
        radii[i] = {
            "zero": 0.0,
            "inf": np.inf,
            "grid": 0.125 * data.draw(st.integers(1, 8)),
            "pair": pair,
            "below": np.nextafter(pair, 0.0),
            "above": np.nextafter(pair, np.inf),
        }[kind]
    counts = {strict: _oracle.radius_counts(idx.points, radii, strict).tolist()
              for strict in (True, False)}
    k = data.draw(st.integers(1, n - 1), label="k")
    kth = _oracle.kth_distances(idx.points, k).tolist()
    for budget in block_layouts(n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "BLOCK_BYTES", budget)
            assert idx.kth_distance_bulk(k).tolist() == kth
            for strict in (True, False):
                assert idx.count_within_bulk(radii, strict).tolist() == counts[strict]


def _walked_blocks(order, lo, hi, budget):
    """Greedy runs: each takes the next rows while their count times the
    width of their windows' union stays within ``budget``; the oracle for
    _window_blocks."""
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and (end + 1 - start) * (
                hi[order[start : end + 1]].max() - lo[order[start : end + 1]].min()) <= budget:
            end += 1
        run = order[start:end]
        yield run, int(lo[run].min()), int(hi[run].max())
        start = end


@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("budget", [1, 5, 299, 300, 1000, 1 << 16])
@pytest.mark.parametrize("whole", [True, False])
def test_window_blocks_match_the_row_walk(n, budget, whole):
    order = np.random.default_rng(n).permutation(n)
    lo, hi = np.zeros(n, dtype=np.intp), np.full(n, n, dtype=np.intp)
    if not whole:
        hi[order[-1]] = n - 1
    got = [(r.tolist(), a, b) for r, a, b in neighbors._window_blocks(order, lo, hi, budget)]
    want = [(r.tolist(), a, b) for r, a, b in _walked_blocks(order, lo, hi, budget)]
    assert got == want


@pytest.mark.parametrize("bad", [-1.0, -np.inf, np.nan])
def test_count_rejects_negative_or_nan_radius(bad):
    idx = ms.NeighborIndex(LINE)
    radii = np.array([1.0, bad, 1.0])
    for strict in (True, False):
        with pytest.raises(ConfigError):
            idx.count_within_bulk(radii, strict)


def test_count_allows_infinite_radius():
    idx = ms.NeighborIndex(LINE)
    for strict in (True, False):
        assert idx.count_within_bulk(np.full(3, np.inf), strict).tolist() == [2, 2, 2]


def test_count_within_bulk_memory_is_bounded():
    rng = np.random.default_rng(0)
    idx = ms.NeighborIndex(rng.standard_normal((4000, 32)))
    radii = np.full(4000, 1.5)
    tracemalloc.start()
    try:
        idx.count_within_bulk(radii)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_chebyshev_metric_axioms():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 4))
        dab = float(np.abs(a - b).max())
        dba = float(np.abs(b - a).max())
        dac = float(np.abs(a - c).max())
        dcb = float(np.abs(c - b).max())
        assert dab == dba
        assert dab <= dac + dcb + 1e-12


def test_count_monotone_in_radius_and_knn_prefix_consistent():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((50, 3))
    idx = ms.NeighborIndex(pts)
    radii = np.sort(rng.uniform(0, 3, size=10))
    counts = np.array([idx.count_within_bulk(np.full(50, r)) for r in radii])
    assert np.all(np.diff(counts, axis=0) >= 0)
    # the kth distances for k = 1..20 are the sorted distances to the 20 nearest
    kth = np.array([idx.kth_distance_bulk(k) for k in range(1, 21)])
    assert np.all(np.diff(kth, axis=0) >= 0)
    for q in (0, 7, 49):
        assert np.array_equal(kth[:, q], _oracle.knn(pts, q, 20)[1])


def test_jitter_breaks_duplicates_deterministically():
    pts = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]])
    a = ms.NeighborIndex(neighbors.add_jitter(pts, 42))
    b = ms.NeighborIndex(neighbors.add_jitter(pts, 42))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, pts)
    assert np.max(np.abs(a.points - pts)) <= 1e-10
    # duplicates are now at distinct positions
    d = a.kth_distance_bulk(1)
    assert np.all(d[:5] > 0)
    assert neighbors.add_jitter(pts, None) is pts
