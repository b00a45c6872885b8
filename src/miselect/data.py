"""Dataset containers, IDX file ingestion, and synthetic dataset generation.

A dataset is a flat table of samples: a row of ``features`` is one sample
(pixel intensities in [0, 1] for image data, raw coordinates otherwise).
Alongside the current labels we keep the pre-corruption labels and a
per-sample record of input corruption, so that downstream scoring can be
validated against ground truth.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._util import class_shares, frozen, is_int, is_number, round_half_even
from .errors import ConfigError, ConsistencyError, FormatError, IoError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_GENERATE_CHUNK = 64  # image rows per batch of generate_pattern_images' arithmetic


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
        tags = np.asarray(self.input_corruption, dtype=str)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise ConsistencyError("features must be a 2-D (N, dim) array with dim >= 1, "
                                   f"got shape {feats.shape}")
        n = feats.shape[0]
        if not (labels.shape == original.shape == tags.shape == (n,)):
            raise ConsistencyError(
                "labels, original_labels and input_corruption must all have length N"
            )
        # NaN propagates through min and max, and +-inf is one of them, so the
        # two reductions test finiteness without an (N, dim) temporary
        with np.errstate(invalid="ignore"):
            lo, hi = (feats.min(), feats.max()) if feats.size else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
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
            if lo < 0.0 or hi > 1.0:
                raise ConsistencyError("image features must lie in [0, 1]")
        object.__setattr__(self, "features", frozen(feats))
        object.__setattr__(self, "labels", frozen(labels))
        object.__setattr__(self, "original_labels", frozen(original))
        object.__setattr__(self, "input_corruption", frozen(tags))

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
            input_corruption=np.full(len(labels), "", dtype=str),
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
        return np.asarray(out, dtype=str)

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


# The generators' rules, which the config check calls too; each raises a
# ConfigError whose message starts with the parameter it blames.

def check_synthetic(num_classes=1, per_class_count=1, dim=1, class_stddev=0.0):
    """Each argument's own rule: positive integer sizes and a non-negative spread."""
    for name, size in (("num_classes", num_classes), ("per_class_count", per_class_count),
                       ("dim", dim)):
        if not is_int(size, 1):
            raise ConfigError(f"{name}: must be a positive integer")
    if not (is_number(class_stddev) and class_stddev >= 0):
        raise ConfigError("class_stddev: must be a non-negative number")


def check_pattern_classes(num_classes):
    """A pattern image class is one of six templates."""
    if not (is_int(num_classes, 1) and num_classes <= 6):
        raise ConfigError("num_classes: pattern images support 1..6 classes")


def check_size(num_classes, per_class_count, dim):
    """The sample count N, if one array can hold N * dim float64 values."""
    n, limit = num_classes * per_class_count, np.iinfo(np.intp).max
    if n * dim * 8 > limit:
        raise ConfigError(f"per_class_count: {n} samples x {dim} features x 8 bytes exceed {limit}")
    return n


def check_split(n, test_fraction):
    """round(test_fraction * N), the test part's size, if both parts keep a sample."""
    n_test = round_half_even(test_fraction * n) if 0.0 < test_fraction < 1.0 else 0
    if not 1 <= n_test <= n - 1:
        raise ConfigError(f"test_fraction: {test_fraction} leaves an empty split for N={n}")
    return n_test


def check_means(num_classes, dim, class_means, class_separation):
    """Distinct class means: the rows of a (num_classes, dim) ``class_means``,
    or without them a positive ``class_separation`` on num_classes axes."""
    if class_means is None:
        if not (is_number(class_separation) and class_separation > 0):
            raise ConfigError("class_separation: must be positive unless class_means is given")
        if dim < num_classes:
            raise ConfigError(f"dim: class_separation needs dim >= num_classes ({num_classes})")
    elif len(class_means) != num_classes or any(len(row) != dim for row in class_means):
        raise ConfigError(f"class_means: must have shape (num_classes, dim) = "
                          f"({num_classes}, {dim})")
    elif len(np.unique(np.asarray(class_means, dtype=np.float64), axis=0)) < num_classes:
        raise ConfigError("class_means: two class means coincide")


def check_jitter(jitter_px, height, width):
    """A pattern image's shift must stay within its side."""
    side = min(height, width)
    if not 0 <= jitter_px <= side:
        raise ConfigError(f"jitter_px: {jitter_px} must lie in [0, min(height, width) = {side}]")


def _parts(labels, num_classes, split):
    """(train indices, test indices), both ascending: the cut
    ``train_test_split`` makes of the generated dataset with ``split`` =
    (test_fraction, seed), or every sample and none when ``split`` is None."""
    if split is None:
        return np.arange(len(labels)), np.empty(0, dtype=np.int64)
    return _split_indices(labels, num_classes, *split)


def generate_synthetic(num_classes, per_class_count, dim, class_stddev, class_means=None,
                       class_separation=None, seed=0, split=None):
    """Draw ``per_class_count`` samples per class around each class mean,
    isotropic Gaussian with standard deviation ``class_stddev``.

    The means are the rows of ``class_means``, (num_classes, dim) with no
    two rows equal; without them class c's mean is a positive
    ``class_separation`` on coordinate axis c, so the means lie pairwise
    ``class_separation`` apart in the Chebyshev metric. ``class_stddev``
    may be zero (every sample collapses onto its class mean); negative
    values are rejected. A draw too large for float64 overflows to inf,
    which the dataset rejects.

    Samples are emitted in class order and the draw is fully determined by
    ``seed``. With ``split`` = (test_fraction, seed) the result is (train,
    make_test): the train part of the (train, test) pair
    ``train_test_split`` would cut, each sample written straight into its
    row, and a function that returns the test part by drawing again.
    """
    check_synthetic(num_classes, per_class_count, dim, class_stddev)
    check_size(num_classes, per_class_count, dim)
    check_means(num_classes, dim, class_means, class_separation)
    means = (float(class_separation) * np.eye(num_classes, dim) if class_means is None
             else np.asarray(class_means, dtype=np.float64))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class_count)
    train_idx, test_idx = _parts(labels, num_classes, split)

    def draw(idx):
        """The samples ``idx`` (ascending) of the draw from ``seed``."""
        rng = np.random.default_rng(seed)
        features = np.empty((len(idx), dim))
        bounds = np.searchsorted(idx, np.arange(num_classes + 1) * per_class_count).tolist()
        for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            with np.errstate(over="ignore"):
                block = means[c] + class_stddev * rng.standard_normal((per_class_count, dim))
            features[lo:hi] = block[idx[lo:hi] - c * per_class_count]
        return LabeledDataset.from_arrays(features, idx // per_class_count,
                                          num_classes=num_classes)

    train = draw(train_idx)
    if split is None:
        return train
    return train, functools.partial(draw, test_idx)


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
    else:  # 5: anti-diagonal stripe
        for r in range(h):
            c = (w - 1) - int(round(r * (w - 1) / max(1, h - 1)))
            img[r, max(0, c - t // 2) : min(w, c - t // 2 + t)] = 1.0
    return img


def generate_pattern_images(
    num_classes, per_class_count, height=12, width=12, noise=0.05, jitter_px=1, seed=0,
    split=None,
):
    """Synthetic image dataset: one geometric pattern per class.

    Each sample is its class template shifted by up to ``jitter_px`` pixels,
    scaled by a random brightness in [0.7, 1.0], plus Gaussian pixel noise,
    clipped to [0, 1]. A pixel shifted in from outside the frame reads from
    zero padding. A deterministic desk-scale stand-in for a digit corpus in
    input-noise experiments. ``split`` works as in ``generate_synthetic``:
    the draw writes a test sample's noise into one scratch row, after the
    generator's state, from which ``make_test`` draws it again.
    """
    check_pattern_classes(num_classes)
    check_synthetic(per_class_count=per_class_count)
    n = check_size(num_classes, per_class_count, height * width)
    check_jitter(jitter_px, height, width)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class_count)
    train_idx, test_idx = _parts(labels, num_classes, split)
    held_out = np.zeros(n, dtype=bool)
    held_out[test_idx] = True
    features = np.empty((len(train_idx), height * width))
    # per sample, in draw order: the shift, the brightness, then the noise,
    # a training sample's straight into its row and a test sample's into a
    # scratch row, after the generator's state is kept in the sample's row
    # of ``states``
    rng = np.random.default_rng(seed)
    shifts = np.empty((n, 2), dtype=np.int64)
    brightness = np.empty(n)
    states = np.empty((len(test_idx), 4), dtype=np.uint64)
    rows, scratch, state_rows = iter(features), np.empty(height * width), iter(states)
    for i, test in enumerate(held_out.tolist()):
        shifts[i] = rng.integers(-jitter_px, jitter_px + 1, size=2)
        brightness[i] = rng.uniform(0.7, 1.0)
        if test:
            next(state_rows)[:] = _state_words(rng)
            rng.standard_normal(out=scratch)
        else:
            rng.standard_normal(out=next(rows))
    # the template shifted by (dy, dx) is the window at (j - dy, j - dx) of
    # its class template zero-padded by j pixels
    j = int(jitter_px)
    padded = np.pad(np.array([_template(c, height, width) for c in range(num_classes)]),
                    ((0, 0), (j, j), (j, j)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (height, width), axis=(1, 2))
    offsets = j - shifts
    _paint(features, labels[train_idx], offsets[train_idx], brightness[train_idx], windows,
           noise)
    train = LabeledDataset.from_arrays(features, labels[train_idx], num_classes=num_classes,
                                       image_shape=(height, width))
    if split is None:
        return train
    increment = rng.bit_generator.state["state"]["inc"]
    return train, functools.partial(_drawn_images, states, increment, labels[test_idx],
                                    offsets[test_idx], brightness[test_idx], windows, noise)


# A PCG64 generator's state, which default_rng's draws run on, as four uint64
# words: the 128-bit LCG state, low word first, then the flag and the value
# of a buffered 32-bit draw; the state's increment stays as seeded.
_WORD = (1 << 64) - 1


def _state_words(rng):
    state = rng.bit_generator.state
    return (state["state"]["state"] & _WORD, state["state"]["state"] >> 64,
            state["has_uint32"], state["uinteger"])


def _set_state(rng, words, increment):
    low, high, has_uint32, uinteger = words
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": high << 64 | low, "inc": increment},
                               "has_uint32": has_uint32, "uinteger": uinteger}


def _paint(features, labels, offsets, brightness, windows, noise):
    """Finish image rows that hold their noise draws z: noise * z plus the
    brightness times the window at ``offsets`` of the class's padded
    template, clipped to [0, 1], a block of rows at a time."""
    for start in range(0, len(features), _GENERATE_CHUNK):
        rows = slice(start, start + _GENERATE_CHUNK)
        templates = windows[labels[rows], offsets[rows, 0], offsets[rows, 1]]
        block = features[rows]
        with np.errstate(over="ignore"):  # the clip takes an overflow's inf to 0 or 1
            block *= noise
            block += brightness[rows, None] * templates.reshape(len(block), -1)
        np.clip(block, 0.0, 1.0, out=block)


def _drawn_images(states, increment, labels, offsets, brightness, windows, noise):
    """The images whose noise draws start at the PCG64 states ``states``
    (rows of _state_words) and ``increment``, painted as
    generate_pattern_images paints its rows."""
    height, width = windows.shape[-2:]
    features = np.empty((len(states), height * width))
    rng = np.random.default_rng(0)
    for row, words in zip(features, states):
        _set_state(rng, words.tolist(), increment)
        rng.standard_normal(out=row)
    _paint(features, labels, offsets, brightness, windows, noise)
    return LabeledDataset.from_arrays(features, labels, num_classes=len(windows),
                                      image_shape=(height, width))


def _read_idx(f, magic, kind, data):
    """The dimensions in the header of the IDX file open as ``f``, whose
    uint8 payload must hold exactly the bytes they give; leaves ``f`` at the
    payload. The magic's low byte is the number of dimensions; ``kind`` and
    ``data`` name the file and its payload in errors."""
    wanted = 4 * (1 + (magic & 0xFF))
    header = f.read(wanted)
    if len(header) < wanted:
        raise IoError(f"{f.name}: truncated file (wanted {wanted} bytes, got {len(header)})")
    found, *dims = struct.unpack(f">{wanted // 4}i", header)
    if found != magic:
        raise FormatError(f"{f.name}: bad {kind} magic 0x{found:08x}")
    if min(dims) < 1:
        raise FormatError(f"{f.name}: {kind} header dimensions {dims} must be positive")
    size, expected = os.fstat(f.fileno()).st_size - wanted, math.prod(dims)
    if size < expected:
        raise IoError(f"{f.name}: truncated {data} data")
    if size > expected:
        raise FormatError(f"{f.name}: {size - expected} trailing bytes")
    return tuple(dims)


def _read_payload(f, size, data):
    """The next ``size`` bytes of ``f`` as uint8, or an IoError if it has fewer."""
    body = f.read(size)
    if len(body) < size:
        raise IoError(f"{f.name}: truncated {data} data")
    return np.frombuffer(body, dtype=np.uint8)


def load_idx(images_path, labels_path):
    """Load an image/label pair of IDX files into a LabeledDataset.

    Pixels are scaled to [0, 1] by division by 255. Big-endian headers per
    the canonical format: images carry magic 0x00000803 then count, rows,
    cols; labels carry magic 0x00000801 then count.
    """
    return open_idx(images_path, labels_path)[-1]()


def open_idx(images_path, labels_path):
    """Check an IDX pair as ``load_idx`` does, reading the image file's
    header and the labels but not the pixels. Returns (count, image shape
    (rows, cols), num_classes, load): ``load()`` reads the pixels and returns
    ``load_idx``'s dataset with these labels, and fails if the image
    header changed in between."""
    with open(images_path, "rb") as f:
        shape = _read_idx(f, IDX_IMAGE_MAGIC, "image", "pixel")
    with open(labels_path, "rb") as f:
        (count,) = _read_idx(f, IDX_LABEL_MAGIC, "label", "label")
        labels = _read_payload(f, count, "label")
    if shape[0] != count:
        raise ConsistencyError(f"image count {shape[0]} does not match label count {count}")
    num_classes = int(labels.max()) + 1

    def load():
        with open(images_path, "rb") as f:
            found = _read_idx(f, IDX_IMAGE_MAGIC, "image", "pixel")
            if found != shape:
                raise FormatError(f"{images_path}: (count, rows, cols) changed from {shape} "
                                  f"to {found} since it was opened")
            pixels = _read_payload(f, math.prod(shape), "pixel")
        features = pixels.reshape(count, -1).astype(np.float64) / 255.0
        return LabeledDataset.from_arrays(features, labels, num_classes=num_classes,
                                          image_shape=shape[1:])

    return count, shape[1:], num_classes, load


def _split_indices(labels, num_classes, test_fraction, seed):
    """(train indices, test indices), both ascending, of ``train_test_split``'s
    split; depends only on the labels and the seed."""
    n = len(labels)
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(n, dtype=bool)
    for members, quota in class_shares(labels, num_classes, check_split(n, test_fraction)):
        test_mask[rng.permutation(members)[:quota]] = True
    return np.flatnonzero(~test_mask), np.flatnonzero(test_mask)


def train_test_split(ds, test_fraction, seed):
    """Split a dataset into (train, test), stratified by class.

    The test set size is round(test_fraction * N), apportioned across
    classes by largest remainder; membership within each class is a seeded
    uniform draw. Deterministic given the seed.
    """
    train_idx, test_idx = _split_indices(ds.labels, ds.num_classes, test_fraction, seed)
    return ds.subset(train_idx), ds.subset(test_idx)
