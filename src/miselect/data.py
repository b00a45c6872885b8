"""Dataset containers, IDX file ingestion, and synthetic dataset generation.

A dataset is a flat table of samples: a row of ``features`` is one sample
(pixel intensities in [0, 1] for image data, raw coordinates otherwise).
Alongside the current labels we keep the pre-corruption labels and a
per-sample record of input corruption, so that downstream scoring can be
validated against ground truth.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._util import largest_remainder_quotas, round_half_even
from .errors import ConfigError, ConsistencyError, FormatError, IoError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# width of the per-sample input-corruption tag strings
_TAG_DTYPE = "<U64"


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable collection of samples with labels and corruption provenance.

    Attributes
    ----------
    features : (N, dim) float array, one sample per row
    labels : (N,) int array with values in [0, num_classes)
    num_classes : number of classes C
    original_labels : (N,) int array of pre-corruption labels
    input_corruption : (N,) string array; "" for untouched inputs, otherwise
        corruption kind names joined by "+"
    image_shape : (height, width) when samples are images, else None
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    original_labels: np.ndarray
    input_corruption: np.ndarray
    image_shape: tuple[int, int] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        original = np.asarray(self.original_labels, dtype=np.int64)
        tags = np.asarray(self.input_corruption, dtype=_TAG_DTYPE)
        if feats.ndim != 2:
            raise ConsistencyError("features must be a 2-D (N, dim) array")
        n = feats.shape[0]
        if not (labels.shape == original.shape == tags.shape == (n,)):
            raise ConsistencyError(
                "labels, original_labels and input_corruption must all have length N"
            )
        if not np.all(np.isfinite(feats)):
            raise ConsistencyError("all feature values must be finite")
        if n > 0 and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ConsistencyError("labels must lie in [0, num_classes)")
        if n > 0 and (original.min() < 0 or original.max() >= self.num_classes):
            raise ConsistencyError("original labels must lie in [0, num_classes)")
        if self.num_classes < 1:
            raise ConsistencyError("num_classes must be at least 1")
        if self.image_shape is not None:
            h, w = self.image_shape
            if h * w != feats.shape[1]:
                raise ConsistencyError("image_shape does not match feature dim")
            if feats.size and (feats.min() < 0.0 or feats.max() > 1.0):
                raise ConsistencyError("image features must lie in [0, 1]")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "original_labels", _frozen(original))
        object.__setattr__(self, "input_corruption", _frozen(tags))

    @classmethod
    def from_arrays(cls, features, labels, num_classes=None, image_shape=None):
        """Build a clean dataset: no flips, no input corruption."""
        labels = np.asarray(labels, dtype=np.int64)
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if labels.size else 1
        return cls(
            features=np.asarray(features, dtype=np.float64),
            labels=labels,
            num_classes=num_classes,
            original_labels=labels.copy(),
            input_corruption=np.full(len(labels), "", dtype=_TAG_DTYPE),
            image_shape=image_shape,
        )

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def label_flipped(self):
        """Per-sample flag, True where the label differs from the original."""
        return self.labels != self.original_labels

    def provenance(self):
        """Per-sample provenance strings: "clean", "label_flipped", corruption
        kinds, or combinations joined by "+"."""
        flipped = self.label_flipped
        out = []
        for i in range(self.n):
            parts = []
            if flipped[i]:
                parts.append("label_flipped")
            if self.input_corruption[i]:
                parts.append(str(self.input_corruption[i]))
            out.append("+".join(parts) if parts else "clean")
        return np.asarray(out, dtype=_TAG_DTYPE)

    def subset(self, indices):
        """New dataset restricted to ``indices`` (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            original_labels=self.original_labels[indices],
            input_corruption=self.input_corruption[indices],
            image_shape=self.image_shape,
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for an isotropic-Gaussian-blob dataset.

    ``class_stddev`` may be zero (every sample collapses onto its class
    mean); negative values are rejected.
    """

    num_classes: int
    per_class_count: int
    dim: int
    class_means: np.ndarray
    class_stddev: float
    seed: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        if self.num_classes < 1 or self.per_class_count < 1 or self.dim < 1:
            raise ConfigError("num_classes, per_class_count and dim must be positive")
        if means.shape != (self.num_classes, self.dim):
            raise ConfigError("class_means must have shape (num_classes, dim)")
        if self.class_stddev < 0:
            raise ConfigError("class_stddev must be non-negative")
        for a in range(self.num_classes):
            for b in range(a + 1, self.num_classes):
                if np.array_equal(means[a], means[b]):
                    raise ConfigError(f"class means {a} and {b} coincide")
        object.__setattr__(self, "class_means", _frozen(means))

    @classmethod
    def separated(cls, num_classes, per_class_count, dim, separation, stddev, seed):
        """Place class means on scaled coordinate axes, pairwise distance
        ``separation`` in the Chebyshev metric."""
        if dim < num_classes:
            raise ConfigError("separated() needs dim >= num_classes")
        means = np.zeros((num_classes, dim))
        for c in range(num_classes):
            means[c, c] = separation
        return cls(num_classes, per_class_count, dim, means, stddev, seed)


def generate_synthetic(spec):
    """Draw ``per_class_count`` samples per class around each class mean.

    Samples are emitted in class order and the draw is fully determined by
    ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    blocks = []
    for c in range(spec.num_classes):
        noise = rng.standard_normal((spec.per_class_count, spec.dim))
        blocks.append(spec.class_means[c] + spec.class_stddev * noise)
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.per_class_count)
    return LabeledDataset.from_arrays(features, labels, num_classes=spec.num_classes)


# Class templates for synthetic images: index -> painter(height, width) in [0, 1].
def _template(cls_id, h, w):
    img = np.zeros((h, w))
    t = max(1, min(h, w) // 4)  # stroke thickness
    if cls_id == 0:  # horizontal bar
        r = h // 2
        img[r - t // 2 : r - t // 2 + t, :] = 1.0
    elif cls_id == 1:  # vertical bar
        c = w // 2
        img[:, c - t // 2 : c - t // 2 + t] = 1.0
    elif cls_id == 2:  # main diagonal stripe
        for r in range(h):
            c = int(round(r * (w - 1) / max(1, h - 1)))
            img[r, max(0, c - t // 2) : min(w, c - t // 2 + t)] = 1.0
    elif cls_id == 3:  # border frame
        img[:t, :] = img[-t:, :] = 1.0
        img[:, :t] = img[:, -t:] = 1.0
    elif cls_id == 4:  # solid centered square
        r0, c0 = h // 4, w // 4
        img[r0 : h - r0, c0 : w - c0] = 1.0
    elif cls_id == 5:  # anti-diagonal stripe
        for r in range(h):
            c = (w - 1) - int(round(r * (w - 1) / max(1, h - 1)))
            img[r, max(0, c - t // 2) : min(w, c - t // 2 + t)] = 1.0
    else:
        raise ConfigError("pattern image templates support at most 6 classes")
    return img


def _shift(img, dy, dx):
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    ys_src = slice(max(0, -dy), min(h, h - dy))
    xs_src = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def generate_pattern_images(
    num_classes, per_class_count, height=12, width=12, noise=0.05, jitter_px=1, seed=0
):
    """Synthetic image dataset: one geometric pattern per class.

    Each sample is its class template shifted by up to ``jitter_px`` pixels,
    scaled by a random brightness in [0.7, 1.0], plus Gaussian pixel noise,
    clipped to [0, 1]. A deterministic desk-scale stand-in for a digit
    corpus in input-noise experiments.
    """
    if num_classes < 1 or num_classes > 6:
        raise ConfigError("generate_pattern_images supports 1..6 classes")
    if per_class_count < 1:
        raise ConfigError("per_class_count must be positive")
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
    features = np.vstack(samples)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class_count)
    return LabeledDataset.from_arrays(
        features, labels, num_classes=num_classes, image_shape=(height, width)
    )


def _read_exact(f, count, path):
    data = f.read(count)
    if len(data) < count:
        raise IoError(f"{path}: truncated file (wanted {count} bytes, got {len(data)})")
    return data


def load_idx(images_path, labels_path):
    """Load an image/label pair of IDX files into a LabeledDataset.

    Pixels are scaled to [0, 1] by division by 255. Big-endian headers per
    the canonical format: images carry magic 0x00000803 then count, rows,
    cols; labels carry magic 0x00000801 then count.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{images_path}: bad image magic 0x{magic:08x}")
        payload = f.read()
    expected = count * rows * cols
    if len(payload) < expected:
        raise IoError(f"{images_path}: truncated pixel data")
    if len(payload) > expected:
        raise FormatError(f"{images_path}: {len(payload) - expected} trailing bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">ii", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
        label_payload = f.read()
    if len(label_payload) < label_count:
        raise IoError(f"{labels_path}: truncated label data")
    if len(label_payload) > label_count:
        raise FormatError(f"{labels_path}: {len(label_payload) - label_count} trailing bytes")
    labels = np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64)

    if count != label_count:
        raise ConsistencyError(
            f"image count {count} does not match label count {label_count}"
        )
    features = pixels.astype(np.float64) / 255.0
    return LabeledDataset.from_arrays(
        features, labels, num_classes=int(labels.max()) + 1 if labels.size else 1,
        image_shape=(rows, cols),
    )


def train_test_split(ds, test_fraction, seed):
    """Split a dataset into (train, test), stratified by class.

    The test set size is round(test_fraction * N), apportioned across
    classes by largest remainder; membership within each class is a seeded
    uniform draw. Deterministic given the seed.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test_fraction must lie strictly between 0 and 1")
    if ds.n < 2:
        raise ConfigError("need at least 2 samples to split")
    m_test = round_half_even(test_fraction * ds.n)
    if m_test < 1 or m_test >= ds.n:
        raise ConfigError(
            f"test_fraction {test_fraction} leaves an empty part for N={ds.n}"
        )
    counts = np.bincount(ds.labels, minlength=ds.num_classes)
    quotas = largest_remainder_quotas(m_test, counts)
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(ds.n, dtype=bool)
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if quotas[c] > 0:
            picked = rng.permutation(members)[: quotas[c]]
            test_mask[picked] = True
    test_idx = np.flatnonzero(test_mask)
    train_idx = np.flatnonzero(~test_mask)
    return ds.subset(train_idx), ds.subset(test_idx)
