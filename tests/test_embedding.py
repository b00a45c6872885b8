import numpy as np
import pytest

import miselect as ms
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
        lhs = ms.transform_points(model, a[None]) - ms.transform_points(model, b[None])
        rhs = (a - b) @ model.components.T
        assert np.allclose(lhs[0], rhs, atol=1e-10)


def test_test_points_land_near_class_clusters():
    spec = ms.SyntheticSpec.separated(3, 60, 6, separation=20.0, stddev=0.5, seed=8)
    full = ms.generate_synthetic(spec)
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
        lifted = ms.transform_points(model, ds.features) @ model.components + model.mean
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


def test_fit_pca_errors():
    ds = _random_ds(n=10, dim=4)
    with pytest.raises(ConfigError):
        ms.fit_pca(ds, 5)  # d > dim
    with pytest.raises(ConfigError):
        ms.fit_pca(ds, 0)
    constant = ms.LabeledDataset.from_arrays(np.ones((6, 3)), [0] * 6, num_classes=1)
    with pytest.raises(DegenerateInputError):
        ms.fit_pca(constant, 2)


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
    assert np.array_equal(emb.features, ms.transform_points(model, flipped.features))
    assert np.array_equal(emb.labels, flipped.labels)
    assert np.array_equal(emb.provenance(), flipped.provenance())
    assert emb.num_classes == flipped.num_classes
