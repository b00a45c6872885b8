import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miselect as ms
from miselect import neighbors
from miselect.errors import ConfigError, ConsistencyError, InsufficientNeighborsError


# ---------------------------------------------------------------------------
# independent linear-scan oracle (plain Python, no package machinery)
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


def assert_bulk_matches_singles(idx, k, radii, monkeypatch):
    """Bulk kth distances and counts equal the single-query oracle under
    every block layout."""
    kth = np.array([idx.knn(i, k).distances[-1] for i in range(idx.n)])
    counts = {
        strict: np.array([idx.count_within(i, float(radii[i]), strict) for i in range(idx.n)])
        for strict in (True, False)
    }
    for budget in block_layouts(idx.n):
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
        res = idx.knn(1, 1)
        assert list(res.indices) == [0]
        assert list(res.distances) == [1.0]
        assert idx.kth_distance_bulk(1).tolist() == [1.0, 1.0, 2.0]

    def test_knn_from_endpoint(self, structure):
        idx = ms.NeighborIndex(LINE)
        res = idx.knn(2, 2)
        assert list(res.indices) == [1, 0]
        assert list(res.distances) == [2.0, 3.0]
        assert idx.kth_distance_bulk(2).tolist() == [3.0, 2.0, 3.0]

    def test_knn_all_others(self, structure):
        idx = ms.NeighborIndex(LINE)
        res = idx.knn(0, 2)
        assert sorted(res.indices.tolist()) == [1, 2]

    def test_count_boundary_semantics(self, structure):
        idx = ms.NeighborIndex(LINE)
        assert idx.count_within(0, 1.0, strict=True) == 0
        assert idx.count_within(0, 1.0, strict=False) == 1
        radii = np.array([1.0, 1.0, 2.0])
        assert idx.count_within_bulk(radii, strict=True).tolist() == [0, 0, 0]
        assert idx.count_within_bulk(radii, strict=False).tolist() == [1, 1, 1]

    def test_count_radius_beyond_diameter(self, structure):
        idx = ms.NeighborIndex(LINE)
        assert idx.count_within(1, 100.0, strict=True) == 2
        assert idx.count_within_bulk(np.full(3, 100.0)).tolist() == [2, 2, 2]

    def test_duplicates_retrievable(self, structure):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        idx = ms.NeighborIndex(pts)
        res = idx.knn(2, 2)
        assert sorted(res.indices.tolist()) == [0, 1]
        assert list(res.distances) == [4.0, 4.0]
        # exact duplicate of the query point is a neighbor at distance 0
        assert idx.knn(0, 1).indices[0] == 1
        assert idx.knn(0, 1).distances[0] == 0.0
        assert idx.kth_distance_bulk(1).tolist() == [0.0, 0.0, 4.0]
        assert idx.count_within_bulk(np.zeros(3), strict=False).tolist() == [1, 1, 0]

    def test_mask_singleton(self, structure):
        idx = ms.NeighborIndex(LINE)
        mask = np.array([False, False, True])
        res = idx.knn_among(0, 1, mask)
        assert list(res.indices) == [2]
        assert list(res.distances) == [3.0]

    def test_mask_all_true_equals_knn(self, structure):
        idx = ms.NeighborIndex(LINE)
        a = idx.knn_among(1, 2, np.ones(3, dtype=bool))
        b = idx.knn(1, 2)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)

    def test_errors(self, structure):
        idx = ms.NeighborIndex(LINE)
        with pytest.raises(ConfigError):
            idx.knn(0, 3)  # k >= N
        with pytest.raises(ConfigError):
            idx.knn(5, 1)
        with pytest.raises(InsufficientNeighborsError):
            idx.knn_among(0, 2, np.array([True, True, False]))
        with pytest.raises(ConsistencyError):
            idx.knn_among(0, 1, np.ones(4, dtype=bool))
        with pytest.raises(ConfigError):
            idx.kth_distance_bulk(3)
        with pytest.raises(ConsistencyError):
            idx.count_within_bulk(np.ones(2))


def test_build_index_validation():
    with pytest.raises(ConfigError):
        ms.NeighborIndex(np.zeros((0, 2)))
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
    """Blocked bulk kernel vs single-query oracle on tie-heavy instances."""
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
        radii[::3] = np.array([idx.knn(i, k).distances[-1] for i in range(n)])[::3]
        radii[::7] = 0.0
        assert_bulk_matches_singles(idx, k, radii, monkeypatch)
        # kth among a mask, as the same-class radius is taken: bulk over the
        # masked subset equals knn_among on the full index
        mask = rng.random(n) < 0.5
        members = np.flatnonzero(mask)
        if len(members) >= 2:
            kk = int(rng.integers(1, len(members)))
            among = [idx.knn_among(int(q), kk, mask).distances[-1] for q in members]
            sub = ms.NeighborIndex(pts[members])
            for budget in block_layouts(len(members)):
                monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
                assert np.array_equal(sub.kth_distance_bulk(kk), among)


def test_results_match_python_oracle():
    rng = np.random.default_rng(77)
    pts = np.round(rng.uniform(-3, 3, size=(40, 3)), 1)
    idx = ms.NeighborIndex(pts)
    for q in range(0, 40, 7):
        ref_idx, ref_d = oracle_knn(pts.tolist(), q, 5)
        res = idx.knn(q, 5)
        assert res.indices.tolist() == ref_idx
        assert np.allclose(res.distances, ref_d)
        for strict in (True, False):
            assert idx.count_within(q, 1.7, strict) == oracle_count(
                pts.tolist(), q, 1.7, strict
            )
        mask = (np.arange(40) % 3) == 0
        mask_q = mask.copy()
        ref_idx, ref_d = oracle_knn(pts.tolist(), q, 3, mask_q)
        res = idx.knn_among(q, 3, mask_q)
        assert res.indices.tolist() == ref_idx


def test_bulk_queries_match_single_queries(monkeypatch):
    rng = np.random.default_rng(5)
    pts = np.round(rng.standard_normal((60, 4)), 1)
    idx = ms.NeighborIndex(pts)
    radii = rng.uniform(0, 2, size=60)
    for k in (1, 3, 10, 59):
        assert_bulk_matches_singles(idx, k, radii, monkeypatch)


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
    kth = np.array([idx.knn(i, k).distances[-1] for i in range(n)])
    # radii drawn from zero, the kth distances themselves and the grid steps
    choices = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n), label="radii")
    radii = np.where(np.asarray(choices) == 4, kth, np.asarray(choices) * 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "BLOCK_BYTES", 8 * n * rows)
        assert np.array_equal(idx.kth_distance_bulk(k), kth)
        for strict in (True, False):
            singles = [idx.count_within(i, float(radii[i]), strict) for i in range(n)]
            assert idx.count_within_bulk(radii, strict).tolist() == singles


# coordinates on a coarse grid of float spacings around 0, +-1e15 (where
# one grid step is the spacing, so window bounds round) and +-1e308 (where
# distances and the slack's bound overflow)
_OFFSETS = (0.0, 1e15, -1e15, 1e308, -1e308)


# distances between +-1e308 overflow to inf, in the oracle as in the kernel
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_window_pruned_count_matches_oracle(data):
    """The sorted-window bulk count equals count_within, strict and closed,
    under every block layout."""
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
    singles = {
        strict: [idx.count_within(i, float(radii[i]), strict) for i in range(n)]
        for strict in (True, False)
    }
    for budget in block_layouts(n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "BLOCK_BYTES", budget)
            for strict in (True, False):
                assert idx.count_within_bulk(radii, strict).tolist() == singles[strict]


@pytest.mark.parametrize("bad", [-1.0, -np.inf, np.nan])
def test_count_rejects_negative_or_nan_radius(bad):
    idx = ms.NeighborIndex(LINE)
    with pytest.raises(ConfigError):
        idx.count_within(0, bad)
    radii = np.array([1.0, bad, 1.0])
    for strict in (True, False):
        with pytest.raises(ConfigError):
            idx.count_within_bulk(radii, strict)


def test_count_allows_infinite_radius():
    idx = ms.NeighborIndex(LINE)
    for strict in (True, False):
        assert idx.count_within(0, np.inf, strict) == 2
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
    counts = [idx.count_within(7, float(r)) for r in radii]
    assert counts == sorted(counts)
    full = idx.knn(7, 20)
    for k in range(1, 20):
        part = idx.knn(7, k)
        assert np.array_equal(part.indices, full.indices[:k])
        assert np.array_equal(part.distances, full.distances[:k])


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
