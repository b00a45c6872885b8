import struct

import numpy as np
import pytest

import miselect as ms
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
    spec = ms.SyntheticSpec(
        num_classes=2, per_class_count=3, dim=2,
        class_means=np.array([[0.0, 0.0], [5.0, 5.0]]), class_stddev=1.0, seed=11,
    )
    a = ms.generate_synthetic(spec)
    b = ms.generate_synthetic(spec)
    assert a.n == 6
    assert list(a.labels) == [0, 0, 0, 1, 1, 1]
    assert np.array_equal(a.features, b.features)
    assert list(a.provenance()) == ["clean"] * 6


def test_generate_synthetic_zero_stddev_degenerate():
    means = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = ms.SyntheticSpec(2, 4, 2, means, class_stddev=0.0, seed=0)
    ds = ms.generate_synthetic(spec)
    for i in range(ds.n):
        assert np.array_equal(ds.features[i], means[ds.labels[i]])


def test_generate_synthetic_square_corner_separation():
    means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    spec = ms.SyntheticSpec(4, 25, 2, means, class_stddev=0.5, seed=3)
    ds = ms.generate_synthetic(spec)
    min_cross = np.inf
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            if ds.labels[i] != ds.labels[j]:
                min_cross = min(min_cross, np.linalg.norm(ds.features[i] - ds.features[j]))
    assert min_cross > 5.0


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        ms.SyntheticSpec(2, 3, 2, np.zeros((2, 2)), 1.0, 0)  # coincident means
    with pytest.raises(ConfigError):
        ms.SyntheticSpec(2, 3, 2, np.array([[0.0, 0], [1, 0]]), -1.0, 0)
    with pytest.raises(ConfigError):
        ms.SyntheticSpec(0, 3, 2, np.zeros((0, 2)), 1.0, 0)
    with pytest.raises(ConfigError):
        ms.SyntheticSpec.separated(5, 3, 4, 10.0, 1.0, 0)  # dim < num_classes


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


def test_dataset_immutable():
    ds = _two_class_ds(3)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_pattern_images_shape_and_determinism():
    a = ms.generate_pattern_images(4, 5, height=10, width=10, seed=21)
    b = ms.generate_pattern_images(4, 5, height=10, width=10, seed=21)
    assert a.n == 20 and a.dim == 100
    assert a.image_shape == (10, 10)
    assert float(a.features.min()) >= 0.0 and float(a.features.max()) <= 1.0
    assert np.array_equal(a.features, b.features)
    with pytest.raises(ConfigError):
        ms.generate_pattern_images(7, 5)
