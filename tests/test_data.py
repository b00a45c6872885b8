import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import miselect as ms
from miselect._util import frozen
from miselect.data import _template
from miselect.experiment import _build_dataset, resolve
from miselect.errors import ConfigError, ConsistencyError, FormatError, IoError

# ---------------------------------------------------------------------------
# IDX fixtures and an independent byte-level reference decoder
# ---------------------------------------------------------------------------

FIXTURE_PIXELS = np.array(
    [
        [0, 64, 128, 255],
        [255, 0, 32, 16],
        [10, 20, 30, 40],
        [200, 100, 50, 25],
    ],
    dtype=np.uint8,
)
FIXTURE_LABELS = np.array([0, 1, 1, 0], dtype=np.uint8)


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2,
                   image_magic=0x00000803, label_magic=0x00000801, prefix=""):
    images_path = tmp_path / f"{prefix}images.idx"
    labels_path = tmp_path / f"{prefix}labels.idx"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", image_magic, len(pixels), rows, cols))
        f.write(np.asarray(pixels, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", label_magic, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return images_path, labels_path


def reference_decode(images_path, labels_path):
    """Plain byte-walking decoder, independent of the package parser."""
    raw = images_path.read_bytes()
    assert int.from_bytes(raw[0:4], "big") == 0x00000803
    n = int.from_bytes(raw[4:8], "big")
    rows = int.from_bytes(raw[8:12], "big")
    cols = int.from_bytes(raw[12:16], "big")
    pix = [[raw[16 + i * rows * cols + j] for j in range(rows * cols)] for i in range(n)]
    lraw = labels_path.read_bytes()
    assert int.from_bytes(lraw[0:4], "big") == 0x00000801
    ln = int.from_bytes(lraw[4:8], "big")
    labels = [lraw[8 + i] for i in range(ln)]
    return np.asarray(pix, dtype=np.float64), np.asarray(labels)


def test_load_idx_matches_reference_decoder(tmp_path):
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS)
    ds = ms.load_idx(*paths)
    ref_pix, ref_labels = reference_decode(*paths)
    assert ds.n == 4 and ds.dim == 4
    assert np.array_equal(ds.features, ref_pix / 255.0)
    assert np.array_equal(ds.labels, ref_labels)
    assert np.array_equal(ds.original_labels, ds.labels)
    assert list(ds.provenance()) == ["clean"] * 4
    assert ds.image_shape == (2, 2)


def test_load_idx_scaling_endpoints(tmp_path):
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS)
    ds = ms.load_idx(*paths)
    assert ds.features[0, 3] == 1.0  # byte 255
    assert ds.features[0, 0] == 0.0  # byte 0


def test_load_idx_count_mismatch(tmp_path):
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ConsistencyError):
        ms.load_idx(*paths)


def test_load_idx_bad_magic(tmp_path):
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS, image_magic=0x00000999)
    with pytest.raises(FormatError):
        ms.load_idx(*paths)
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS, label_magic=0x00000999)
    with pytest.raises(FormatError):
        ms.load_idx(*paths)


def test_load_idx_truncated(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS)
    data = images_path.read_bytes()
    images_path.write_bytes(data[:-3])
    with pytest.raises(IoError):
        ms.load_idx(images_path, labels_path)
    # header shorter than 16 bytes is also a truncation
    images_path.write_bytes(data[:7])
    with pytest.raises(IoError):
        ms.load_idx(images_path, labels_path)


# the count -1 and rows -28 multiply to the 784 payload bytes a 1x28x28 file holds
@pytest.mark.parametrize("which, dims, payload", [
    ("images", (-1, -28, 28), 784),
    ("images", (0, 2, 2), 0),
    ("images", (4, 2, 0), 0),
    ("labels", (-4,), 4),
])
def test_load_idx_rejects_a_header_dimension_below_one(tmp_path, which, dims, payload):
    paths = dict(zip(("images", "labels"),
                     write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS)))
    magic = 0x00000803 if which == "images" else 0x00000801
    paths[which].write_bytes(struct.pack(f">{1 + len(dims)}i", magic, *dims) + bytes(payload))
    with pytest.raises(FormatError, match=re.escape(str(paths[which]))):
        ms.load_idx(paths["images"], paths["labels"])


def test_idx_round_trip_bytes(tmp_path):
    paths = write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS)
    original = (paths[0].read_bytes(), paths[1].read_bytes())
    ds = ms.load_idx(*paths)
    # load_idx decodes exactly: re-encoding its pixels gives the same bytes
    out_images, out_labels = write_idx_pair(
        tmp_path, np.rint(ds.features * 255.0), ds.labels, prefix="out-"
    )
    assert out_images.read_bytes() == original[0]
    assert out_labels.read_bytes() == original[1]


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_generate_synthetic_class_order_and_determinism():
    spec = dict(num_classes=2, per_class_count=3, dim=2,
                class_means=np.array([[0.0, 0.0], [5.0, 5.0]]), class_stddev=1.0, seed=11)
    a = ms.generate_synthetic(**spec)
    b = ms.generate_synthetic(**spec)
    assert a.n == 6
    assert list(a.labels) == [0, 0, 0, 1, 1, 1]
    assert np.array_equal(a.features, b.features)
    assert list(a.provenance()) == ["clean"] * 6


def test_generate_synthetic_zero_stddev_degenerate():
    means = np.array([[1.0, 2.0], [3.0, 4.0]])
    ds = ms.generate_synthetic(2, 4, 2, class_stddev=0.0, class_means=means, seed=0)
    for i in range(ds.n):
        assert np.array_equal(ds.features[i], means[ds.labels[i]])


def test_generate_synthetic_square_corner_separation():
    means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    ds = ms.generate_synthetic(4, 25, 2, class_stddev=0.5, class_means=means, seed=3)
    min_cross = np.inf
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            if ds.labels[i] != ds.labels[j]:
                min_cross = min(min_cross, np.linalg.norm(ds.features[i] - ds.features[j]))
    assert min_cross > 5.0


def test_generators_let_an_overflowing_draw_reach_the_dataset_checks():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConsistencyError, match="finite"):
            ms.generate_synthetic(2, 10, 3, 1e308, class_separation=3.0)
        images = ms.generate_pattern_images(2, 10, height=4, width=4, noise=1e308)
    assert set(np.unique(images.features)) <= {0.0, 1.0}


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        ms.generate_synthetic(2, 3, 2, 1.0, class_means=np.zeros((2, 2)))  # coincident means
    with pytest.raises(ConfigError):
        ms.generate_synthetic(2, 3, 2, -1.0, class_means=np.array([[0.0, 0], [1, 0]]))
    with pytest.raises(ConfigError):
        ms.generate_synthetic(0, 3, 2, 1.0, class_means=np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        ms.generate_synthetic(5, 3, 4, 1.0, class_separation=10.0)  # dim < num_classes
    with pytest.raises(ConfigError):
        ms.generate_synthetic(2, 3, 2, 1.0)  # neither class_means nor class_separation
    with pytest.raises(ConfigError):
        ms.generate_synthetic(2, 3, 2, 1.0, class_means=np.zeros((2, 3)))  # mis-shaped
    # rows compare as np.array_equal compares them: -0.0 equals 0.0, NaN equals nothing
    for rows in ([[0.0, 1.0], [-0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]):
        with pytest.raises(ConfigError, match="coincide"):
            ms.generate_synthetic(len(rows), 2, 2, 1.0, class_means=rows)
    with pytest.raises(ConsistencyError, match="finite"):
        ms.generate_synthetic(2, 2, 2, 1.0, class_means=[[np.nan, 1.0], [np.nan, 1.0]])


# ---------------------------------------------------------------------------
# train/test split
# ---------------------------------------------------------------------------

def _two_class_ds(n_per_class=5):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((2 * n_per_class, 3))
    labels = np.repeat([0, 1], n_per_class)
    return ms.LabeledDataset.from_arrays(feats, labels)


def test_split_stratified_counts():
    ds = _two_class_ds(5)
    train, test = ms.train_test_split(ds, 0.2, seed=4)
    assert test.n == 2
    assert np.bincount(test.labels, minlength=2).tolist() == [1, 1]
    assert train.n == 8


def test_split_deterministic():
    ds = _two_class_ds(10)
    a = ms.train_test_split(ds, 0.3, seed=9)
    b = ms.train_test_split(ds, 0.3, seed=9)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)


def test_split_partition_property():
    ds = _two_class_ds(2)  # N = 4
    train, test = ms.train_test_split(ds, 0.5, seed=0)
    assert train.n == 2 and test.n == 2
    seen = np.vstack([train.features, test.features])
    # disjoint and jointly exhaustive: every original row appears exactly once
    matched = set()
    for row in seen:
        hits = np.flatnonzero((ds.features == row).all(axis=1))
        assert len(hits) == 1
        assert hits[0] not in matched
        matched.add(int(hits[0]))
    assert matched == set(range(4))


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
def test_split_fraction_bounds(fraction):
    ds = _two_class_ds(5)
    with pytest.raises(ConfigError):
        ms.train_test_split(ds, fraction, seed=0)


def test_split_empty_part_rejected():
    ds = _two_class_ds(1)  # N=2, fraction 0.1 rounds test to 0
    with pytest.raises(ConfigError):
        ms.train_test_split(ds, 0.1, seed=0)


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------

def test_dataset_validation_errors():
    with pytest.raises(ConsistencyError):
        ms.LabeledDataset.from_arrays(np.zeros((3, 2)), [0, 1])  # length mismatch
    with pytest.raises(ConsistencyError):
        ms.LabeledDataset.from_arrays(np.array([[np.nan, 0.0]]), [0])
    with pytest.raises(ConsistencyError):
        ms.LabeledDataset.from_arrays(np.zeros((2, 2)), [0, 5], num_classes=2)
    with pytest.raises(ConsistencyError):
        ms.LabeledDataset.from_arrays(np.full((2, 4), 2.0), [0, 1], image_shape=(2, 2))


@pytest.mark.parametrize("n", [0, 6])
def test_dataset_rejects_features_without_columns(n):
    # no scorer, PCA fit or classifier can use a sample without features
    with pytest.raises(ConsistencyError, match=rf"dim >= 1, got shape \({n}, 0\)"):
        ms.LabeledDataset.from_arrays(np.empty((n, 0)), [0, 1] * (n // 2))


@pytest.mark.parametrize("image_shape", [None, (3, 4)])
@pytest.mark.parametrize("where", [0, 17, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dataset_rejects_a_single_non_finite_value(bad, where, image_shape):
    feats = np.full((3, 12), 0.5)
    feats.flat[where] = bad
    with pytest.raises(ConsistencyError, match="finite"):
        ms.LabeledDataset.from_arrays(feats, [0, 1, 0], image_shape=image_shape)


def test_dataset_immutable():
    ds = _two_class_ds(3)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


# each builds a container from arrays of the dtypes it holds, which it takes
# without a conversion; returns (the arrays given, the arrays held)
def _dataset():
    given = (np.array([[0.0], [1.0], [3.0]]), np.array([0, 1, 0]), np.array([1, 1, 0]),
             np.array(["", "gaussian", ""]))
    ds = ms.LabeledDataset(*given[:2], 2, *given[2:])
    return given, (ds.features, ds.labels, ds.original_labels, ds.input_corruption)


def _dataset_from_arrays():
    given = np.array([[0.0], [1.0], [3.0]]), np.array([0, 1, 0])
    ds = ms.LabeledDataset.from_arrays(*given)
    return given, (ds.features, ds.labels, ds.original_labels, ds.input_corruption)


def _score_set():
    given = (np.array([0.5, -0.25, 0.0]), np.array([1, 2, 1]), np.array([1, 1, 1]),
             np.array([1, 1, 1]), np.zeros(3, dtype=bool))
    scores = ms.MIScoreSet(given[0], 0.08, 1, 3, "discrete_label", *given[1:])
    return given, (scores.local_scores, scores.per_sample_n_x, scores.per_sample_n_y,
                   scores.k_effective, scores.degenerate)


def _pca_model():
    given = np.array([0.5, -1.0]), np.eye(2), np.array([2.0, 1.0])
    model = ms.PcaModel(*given)
    return given, (model.mean, model.components, model.explained_variance)


def _logreg_model():
    given = np.zeros((2, 3))
    return (given,), (ms.LogRegModel(given, 2, 2).weights,)


def _selection_result():
    given = np.array([0, 2]), np.array([1, 1])
    result = ms.SelectionResult(given[0], ms.SelectionPlan("global", "top", 0.5), given[1])
    return given, (result.retained_indices, result.per_class_counts)


@pytest.mark.parametrize("build", [_dataset, _dataset_from_arrays, _score_set, _pca_model,
                                   _logreg_model, _selection_result])
def test_container_holds_read_only_arrays_and_leaves_the_callers_writeable(build):
    given, held = build()
    assert all(a.flags.writeable for a in given)
    assert not any(a.flags.writeable for a in held)


def test_frozen_views_a_writeable_array_and_passes_a_read_only_one_through():
    arr = np.arange(6.0).reshape(2, 3)
    view = frozen(arr)
    assert arr.flags.writeable and not view.flags.writeable
    assert np.shares_memory(view, arr) and np.array_equal(view, arr)
    assert frozen(view) is view
    strided = frozen(arr[:, ::2])  # not C-contiguous: a read-only copy
    assert strided.flags.c_contiguous and not strided.flags.writeable
    assert not np.shares_memory(strided, arr)


def test_pattern_images_shape_and_determinism():
    a = ms.generate_pattern_images(4, 5, height=10, width=10, seed=21)
    b = ms.generate_pattern_images(4, 5, height=10, width=10, seed=21)
    assert a.n == 20 and a.dim == 100
    assert a.image_shape == (10, 10)
    assert float(a.features.min()) >= 0.0 and float(a.features.max()) <= 1.0
    assert np.array_equal(a.features, b.features)
    with pytest.raises(ConfigError):
        ms.generate_pattern_images(7, 5)


def _shift(img, dy, dx):
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    ys_src = slice(max(0, -dy), min(h, h - dy))
    xs_src = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def _reference_pattern_images(num_classes, per_class_count, height, width, noise, jitter_px,
                              seed):
    """The per-sample generator loop, the oracle for the batched one."""
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(num_classes):
        base = _template(c, height, width)
        for _ in range(per_class_count):
            dy, dx = rng.integers(-jitter_px, jitter_px + 1, size=2)
            brightness = rng.uniform(0.7, 1.0)
            img = brightness * _shift(base, int(dy), int(dx))
            img = img + noise * rng.standard_normal((height, width))
            samples.append(np.clip(img, 0.0, 1.0).ravel())
    return np.vstack(samples)


# sample counts below, at and across multiples of the 64-row batch
@pytest.mark.parametrize("args", [
    (6, 300, 28, 28, 0.1, 2, 3),
    (3, 43, 5, 9, 0.05, 1, 4),
    (2, 35, 1, 1, 0.3, 0, 2),
    (4, 32, 7, 6, 0.0, 3, 9),
    (5, 13, 10, 12, 0.2, 0, 1),
    (1, 1, 4, 4, 1.5, 1, 0),
    (3, 20, 4, 6, 0.1, 4, 5),  # jitter_px at the shorter side, the widest padding allowed
])
def test_pattern_images_equal_per_sample_oracle(args):
    got = ms.generate_pattern_images(*args)
    assert got.features.tobytes() == _reference_pattern_images(*args).tobytes()


def test_pattern_images_peak_memory_is_about_one_features_array():
    tracemalloc.start()
    try:
        ds = ms.generate_pattern_images(6, 700, height=28, width=28, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * ds.features.nbytes


def test_pattern_images_jitter_is_bounded_by_the_image_side():
    ds = ms.generate_pattern_images(2, 20, height=6, width=8, jitter_px=6, seed=0)
    assert ds.n == 40
    for jitter in (7, 9, -1):
        with pytest.raises(ConfigError, match="jitter_px"):
            ms.generate_pattern_images(2, 20, height=6, width=8, jitter_px=jitter)


def _assert_same_dataset(got, expected):
    assert got.features.shape == expected.features.shape
    assert got.features.tobytes() == expected.features.tobytes()
    for field in ("labels", "original_labels", "input_corruption"):
        assert np.array_equal(getattr(got, field), getattr(expected, field))
    assert (got.num_classes, got.image_shape) == (expected.num_classes, expected.image_shape)


def _blobs(classes, per_class, split=None):
    return ms.generate_synthetic(classes, per_class, dim=5, class_stddev=1.0,
                                 class_separation=4.0, seed=11, split=split)


def _images(classes, per_class, split=None):
    return ms.generate_pattern_images(classes, per_class, height=5, width=7, noise=0.2,
                                      jitter_px=2, seed=11, split=split)


# 1-sample classes, and per-class counts below, at and across the 64-row batch
@pytest.mark.parametrize("generate", [_blobs, _images], ids=["synthetic", "images"])
@pytest.mark.parametrize("classes, per_class", [(2, 1), (3, 1), (4, 63), (2, 64), (3, 130)])
@pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.9])
def test_direct_split_equals_split_of_the_generated_dataset(generate, classes, per_class,
                                                            fraction):
    full = generate(classes, per_class)
    try:
        expected = ms.train_test_split(full, fraction, seed=5)
    except ConfigError:  # an empty part: the direct split refuses it too
        with pytest.raises(ConfigError):
            generate(classes, per_class, split=(fraction, 5))
        return
    train, make_test = generate(classes, per_class, split=(fraction, 5))
    _assert_same_dataset(train, expected[0])
    # the test part is drawn again, as often as asked; the (2, 1) and (3, 1)
    # cases hold classes with no test sample
    _assert_same_dataset(make_test(), expected[1])
    _assert_same_dataset(make_test(), expected[1])


def test_generated_split_peak_memory_is_about_its_features():
    cfg = {"type": "synthetic_images", "num_classes": 6, "per_class_count": 700,
           "height": 28, "width": 28, "noise": 0.1, "jitter_px": 2}
    tracemalloc.start()
    try:
        train, n_test, _ = _build_dataset(resolve({"dataset": cfg})["dataset"], 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the test split is not built until it is asked for
    assert n_test == 1050
    assert peak <= 1.2 * train.features.nbytes
