import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miselect as ms
from miselect import _lapack
from miselect.embedding import fit_pca_in_place
from miselect.errors import ConfigError, ConsistencyError, DegenerateInputError


def _random_ds(n=50, dim=8, seed=0, classes=2):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, dim))
    labels = rng.integers(0, classes, n)
    return ms.LabeledDataset.from_arrays(feats, labels, num_classes=classes)


# ---------------------------------------------------------------------------
# independent eigendecomposition oracle: power iteration with deflation
# ---------------------------------------------------------------------------

def power_iteration_components(cov, d, iters=20000):
    cov = cov.copy()
    comps = []
    for j in range(d):
        v = np.ones(cov.shape[0]) / np.sqrt(cov.shape[0])
        for _ in range(iters):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            v = w / norm
        lam = float(v @ cov @ v)
        comps.append(v)
        cov = cov - lam * np.outer(v, v)
    return np.asarray(comps)


def test_components_match_power_iteration_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 8)) @ np.diag([4, 3, 2.5, 1, 1, 0.5, 0.3, 0.2])
    model = ms.fit_pca(ms.LabeledDataset.from_arrays(x, np.zeros(len(x), dtype=int)), 3)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (len(x) - 1)
    oracle = power_iteration_components(cov, 3)
    for j in range(3):
        a, b = model.components[j], oracle[j]
        if np.dot(a, b) < 0:
            b = -b
        assert np.allclose(a, b, atol=1e-6)


def test_rank_one_data_captured_by_first_component():
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(10)
    t = rng.standard_normal(40)
    x = np.outer(t, direction) + 3.0
    model = ms.fit_pca(ms.LabeledDataset.from_arrays(x, np.zeros(len(x), dtype=int)), 1)
    total = np.var(x - x.mean(axis=0), axis=0, ddof=1).sum()
    assert model.explained_variance[0] / total > 0.9999


def test_full_dim_projection_preserves_distances():
    ds = _random_ds(n=30, dim=5)
    model = ms.fit_pca(ds, 5)
    emb = ms.transform(model, ds)
    for i in range(0, 30, 7):
        for j in range(i + 1, 30, 5):
            orig = np.linalg.norm(ds.features[i] - ds.features[j])
            proj = np.linalg.norm(emb.features[i] - emb.features[j])
            assert abs(orig - proj) < 1e-8


def test_transform_centers_training_data():
    ds = _random_ds(n=60, dim=6, seed=2)
    model = ms.fit_pca(ds, 4)
    emb = ms.transform(model, ds)
    assert np.all(np.abs(emb.features.mean(axis=0)) < 1e-8)


def test_transform_is_affine():
    ds = _random_ds(n=40, dim=6, seed=3)
    model = ms.fit_pca(ds, 3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        pair = ms.transform(model, ms.LabeledDataset.from_arrays(np.vstack([a, b]), [0, 0]))
        lhs = pair.features[:1] - pair.features[1:]
        rhs = (a - b) @ model.components.T
        assert np.allclose(lhs[0], rhs, atol=1e-10)


def test_test_points_land_near_class_clusters():
    full = ms.generate_synthetic(3, 60, 6, class_stddev=0.5, class_separation=20.0, seed=8)
    train, test = ms.train_test_split(full, 0.25, seed=1)
    model = ms.fit_pca(train, 3)
    etr = ms.transform(model, train)
    ete = ms.transform(model, test)
    centroids = np.vstack([etr.features[etr.labels == c].mean(axis=0) for c in range(3)])
    preds = np.argmin(
        np.linalg.norm(ete.features[:, None, :] - centroids[None], axis=2), axis=1
    )
    assert (preds == ete.labels).mean() > 0.95


def test_component_orthonormality():
    ds = _random_ds(n=80, dim=10, seed=4)
    model = ms.fit_pca(ds, 6)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(6), atol=1e-8)


def test_reconstruction_error_non_increasing_in_d():
    ds = _random_ds(n=60, dim=8, seed=6)
    errs = []
    for d in range(1, 9):
        model = ms.fit_pca(ds, d)
        # least-squares lift of the projection back into the source space
        lifted = ms.transform(model, ds).features @ model.components + model.mean
        errs.append(float(np.mean((ds.features - lifted) ** 2)))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_labels_and_provenance_passthrough():
    ds = _random_ds(n=30, dim=5, seed=9, classes=3)
    flipped = ms.flip_labels(ds, 0.2, seed=5)
    model = ms.fit_pca(flipped, 3)
    emb = ms.transform(model, flipped)
    assert np.array_equal(emb.labels, flipped.labels)
    assert np.array_equal(emb.original_labels, flipped.original_labels)
    assert np.array_equal(emb.label_flipped, flipped.label_flipped)
    assert np.array_equal(emb.provenance(), flipped.provenance())


def test_whiten_flag_scales_to_unit_variance():
    ds = _random_ds(n=100, dim=6, seed=10)
    model = ms.fit_pca(ds, 3, whiten=True)
    emb = ms.transform(model, ds)
    assert np.allclose(emb.features.std(axis=0, ddof=1), 1.0, atol=1e-8)


def test_fit_pca_svd_branch_matches_eigh_of_the_covariance(monkeypatch):
    # more than 1,024 features (images of 33 x 33 and up) take the SVD of the
    # centred data; a rank-4 signal with spectrum 50 > 30 > 20 > 10 over small noise
    rng = np.random.default_rng(12)
    n, dim, spectrum = 60, 1100, np.array([50.0, 30.0, 20.0, 10.0])
    left = rng.standard_normal((n, 4))
    left = np.linalg.qr(left - left.mean(axis=0))[0]
    right = np.linalg.qr(rng.standard_normal((dim, 4)))[0]
    x = (left * spectrum) @ right.T + 1e-3 * rng.standard_normal((n, dim)) + rng.uniform(size=dim)
    ds = ms.LabeledDataset.from_arrays(x, np.zeros(n, dtype=int))
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svd_calls.append(1) or svd(*a, **kw))
    model = ms.fit_pca(ds, 4)
    assert svd_calls == [1]

    xc = x - x.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(xc.T @ xc / (n - 1))
    want = eigvecs[:, ::-1][:, :4].T
    # the sign convention: each component's largest-magnitude coordinate is positive
    want *= np.sign(want[np.arange(4), np.abs(want).argmax(axis=1)])[:, None]
    assert np.all(model.components[np.arange(4), np.abs(model.components).argmax(axis=1)] > 0)
    assert np.allclose(model.components, want, atol=1e-9)
    assert np.allclose(model.explained_variance, eigvals[::-1][:4], rtol=1e-9)
    assert np.allclose(model.explained_variance, spectrum**2 / (n - 1), rtol=1e-3)

    whitened = ms.transform(ms.fit_pca(ds, 4, whiten=True), ds)
    assert np.allclose(whitened.features.std(axis=0, ddof=1), 1.0, atol=1e-8)


def test_fit_pca_errors():
    ds = _random_ds(n=10, dim=4)
    with pytest.raises(ConfigError):
        ms.fit_pca(ds, 5)  # d > dim
    with pytest.raises(ConfigError):
        ms.fit_pca(ds, 0)
    constant = ms.LabeledDataset.from_arrays(np.ones((6, 3)), [0] * 6, num_classes=1)
    with pytest.raises(DegenerateInputError):
        ms.fit_pca(constant, 2)


# rows of +-t centre to themselves (the mean is exactly 0); 1e-170 squares to
# zero while 1e-160 squares to a subnormal, so only the first has no variance
@pytest.mark.parametrize("tiny, degenerate", [(1e-170, True), (1e-162, True), (1e-160, False)])
def test_fit_pca_zero_variance_means_every_centred_square_is_zero(tiny, degenerate):
    x = np.array([[tiny, -tiny], [-tiny, tiny], [tiny, tiny], [-tiny, -tiny]])
    ds = ms.LabeledDataset.from_arrays(x, [0] * 4, num_classes=1)
    if degenerate:
        with pytest.raises(DegenerateInputError):
            ms.fit_pca(ds, 1)
    else:
        assert ms.fit_pca(ds, 1).explained_variance[0] > 0.0


# the centred values' sum of squares overflows: a mean near the float64
# limit, or a spread whose squares pass it
@pytest.mark.parametrize("x", [
    [[1e308, 0.0], [1.7e308, 1.0], [1.7e308, 2.0]],
    [[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]],
])
def test_fit_pca_rejects_an_overflowing_spread_without_a_warning(x):
    ds = ms.LabeledDataset.from_arrays(np.array(x), [0, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateInputError, match="overflows"):
            ms.fit_pca(ds, 1)


def test_fit_pca_peak_memory_is_one_centred_copy():
    n, dim = 4000, 200
    ds = _random_ds(n=n, dim=dim)
    tracemalloc.start()
    try:
        ms.fit_pca(ds, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the centred copy plus a few (dim, dim) arrays: covariance and eigenvectors
    assert peak <= 1.15 * n * dim * 8 + 2 * dim * dim * 8


def test_transform_dim_mismatch():
    ds = _random_ds(n=10, dim=4)
    model = ms.fit_pca(ds, 2)
    other = _random_ds(n=5, dim=6)
    with pytest.raises(ConsistencyError):
        ms.transform(model, other)


def test_transform_returns_labeled_dataset_with_provenance():
    images = ms.generate_pattern_images(3, 10, height=6, width=6, seed=2)
    flipped = ms.flip_labels(images, 0.3, seed=4)
    model = ms.fit_pca(flipped, 3)
    emb = ms.transform(model, flipped)
    assert isinstance(emb, ms.LabeledDataset)
    assert emb.image_shape is None
    plain = ms.LabeledDataset.from_arrays(flipped.features, flipped.labels)
    assert np.array_equal(emb.features, ms.transform(model, plain).features)
    assert np.array_equal(emb.labels, flipped.labels)
    assert np.array_equal(emb.provenance(), flipped.provenance())
    assert emb.num_classes == flipped.num_classes


# ---------------------------------------------------------------------------
# the in-place eigensolver and the consuming fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 31, 32, 33, 64, 65, 200, 784])
def test_in_place_eigh_equals_numpy_eigh_bit_for_bit(dim):
    x = np.random.default_rng(dim).standard_normal((2 * dim + 3, dim))
    cov = x.T @ x  # numpy mirrors one triangle: exactly symmetric
    want_values, want_vectors = np.linalg.eigh(cov)
    buffer = cov.copy()
    values, vectors = _lapack.eigh(buffer)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)
    # where numpy's dsyevd resolves, the eigenvectors are the buffer itself
    assert np.shares_memory(vectors, buffer) == (_lapack.dsyevd_symbol() is not None)


def test_in_place_eigh_falls_back_to_numpy_with_the_same_bits(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 12))
    cov = x.T @ x
    skewed = cov.copy()
    skewed[0, 5] = np.nextafter(skewed[0, 5], np.inf)  # symmetric but for one ulp
    for a in (skewed, rng.standard_normal((12, 12))):
        buffer = a.copy()
        values, vectors = _lapack.eigh(buffer)
        want_values, want_vectors = np.linalg.eigh(a)
        assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)
        assert np.array_equal(buffer, a)  # numpy's eigh leaves its input as it was
    monkeypatch.setattr(_lapack, "_bundled_dsyevd", lambda: (None, None))  # none resolves
    buffer = cov.copy()
    values, vectors = _lapack.eigh(buffer)
    want_values, want_vectors = np.linalg.eigh(cov)
    assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)
    assert not np.shares_memory(vectors, buffer)


def _fit_outcome(fit, ds, d, whiten):
    try:
        return fit(ds, d, whiten)
    except DegenerateInputError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_consuming_fit_equals_fit_pca_and_transform_bit_for_bit(data):
    # dims past 1,024 take the SVD branch; N from 2, duplicate rows and
    # whitening reach the zero-variance rejections, which must read alike
    n = data.draw(st.integers(2, 30), "n")
    dim = data.draw(st.sampled_from([1, 2, 3, 7, 16, 1025]), "dim")
    d = data.draw(st.integers(1, min(n, dim)), "d")
    whiten = data.draw(st.booleans(), "whiten")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), "scale")
    distinct = data.draw(st.integers(1, n), "distinct rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    x = scale * rng.standard_normal((distinct, dim)) + rng.uniform(size=dim)
    x = x[rng.integers(0, distinct, n)] if distinct < n else x
    ds = ms.flip_labels(ms.LabeledDataset.from_arrays(x, rng.integers(0, 3, n), num_classes=3),
                        0.5, seed=1)

    def copying(ds, d, whiten):
        model = ms.fit_pca(ds, d, whiten=whiten)
        return model, ms.transform(model, ds)

    raw = ds.features.copy()
    want = _fit_outcome(copying, ds, d, whiten)
    assert np.array_equal(ds.features, raw)  # fit_pca centres a copy
    got = _fit_outcome(fit_pca_in_place, ds, d, whiten)
    if isinstance(want, str):
        assert got == want
        return
    (want_model, want_ds), (got_model, got_ds) = want, got
    for name in ("mean", "components", "explained_variance"):
        assert np.array_equal(getattr(got_model, name), getattr(want_model, name))
    assert got_model.whiten == want_model.whiten
    assert np.array_equal(got_ds.features, want_ds.features)
    for name in ("labels", "original_labels", "input_corruption"):
        assert np.array_equal(getattr(got_ds, name), getattr(want_ds, name))
    assert (got_ds.num_classes, got_ds.image_shape) == (3, None)


def test_consuming_fit_allocates_no_array_of_the_features_size():
    n, dim, d = 4000, 200, 8
    ds = _random_ds(n=n, dim=dim)
    _lapack.dsyevd_symbol()  # the library lookup is not the fit's
    tracemalloc.start()
    try:
        fit_pca_in_place(ds, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the covariance, the eigensolver's workspace and the (N, d) projection
    # (numpy's eigh, the fallback, takes two more (dim, dim) arrays)
    assert peak <= n * d * 8 + 5 * dim * dim * 8 < n * dim * 8
