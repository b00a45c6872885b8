"""Synthetic noise injection with full provenance tracking.

Three corruption families: uniform label flips, additive (clamped)
Gaussian pixel noise, and random affine warps of image samples with strong
and mild presets. Which samples are hit is a single seeded draw; the
per-sample randomness comes from RNG streams derived from (seed, sample
index), so serial and parallel application agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import round_half_even
from .data import _TAG_DTYPE
from .errors import ConfigError

KIND_LABEL_FLIP = "label_flip"
KIND_GAUSSIAN = "gaussian"
KIND_AFFINE_STRONG = "affine_strong"
KIND_AFFINE_MILD = "affine_mild"


@dataclass(frozen=True)
class AffineParams:
    """Sampling ranges for random affine warps.

    rotation_deg and shear_deg bound symmetric uniform draws in degrees;
    scale_range is a (min, max) isotropic multiplier; translate_frac bounds
    the shift as a fraction of the image width/height.
    """

    rotation_deg: float
    scale_range: tuple[float, float]
    shear_deg: float
    translate_frac: float

    def __post_init__(self):
        lo, hi = self.scale_range
        if lo <= 0 or hi < lo:
            raise ConfigError("scale_range must satisfy 0 < min <= max")
        if self.rotation_deg < 0 or self.shear_deg < 0 or self.translate_frac < 0:
            raise ConfigError("affine ranges must be non-negative")


# Strong warps visibly destroy pattern identity; mild ones do not.
STRONG_AFFINE = AffineParams(rotation_deg=75.0, scale_range=(0.5, 1.6),
                             shear_deg=30.0, translate_frac=0.20)
MILD_AFFINE = AffineParams(rotation_deg=15.0, scale_range=(0.9, 1.1),
                           shear_deg=5.0, translate_frac=0.07)


@dataclass(frozen=True)
class CorruptionSpec:
    """Declarative description of one corruption stage."""

    kind: str
    rate: float = 0.0            # label_flip only
    fraction: float = 0.0       # input corruptions
    noise_factor: float = 0.0   # gaussian only
    params: AffineParams | None = None  # affine overrides
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_LABEL_FLIP, KIND_GAUSSIAN, KIND_AFFINE_STRONG,
                             KIND_AFFINE_MILD):
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        if not (0.0 <= self.rate <= 1.0) or not (0.0 <= self.fraction <= 1.0):
            raise ConfigError("rate and fraction must lie in [0, 1]")
        if self.noise_factor < 0:
            raise ConfigError("noise_factor must be non-negative")


def _check_seed(seed):
    seed = int(seed)
    if seed < 0:
        raise ConfigError("corruption seeds must be non-negative")
    return seed


def _choose(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=count, replace=False))


def _sample_rng(seed, index):
    return np.random.default_rng([seed, int(index)])


def _add_tags(tags, chosen, kind):
    out = tags.astype(_TAG_DTYPE).copy()
    for i in chosen:
        out[i] = f"{out[i]}+{kind}" if out[i] else kind
    return out


def flip_labels(ds, rate, seed):
    """Flip round(rate*N) uniformly chosen labels to a different class.

    The replacement is uniform over the other C-1 classes. Features are
    untouched; the flip provenance follows from labels differing from
    original_labels.
    """
    if not (0.0 <= rate <= 1.0):
        raise ConfigError("flip rate must lie in [0, 1]")
    seed = _check_seed(seed)
    if rate > 0 and ds.num_classes < 2:
        raise ConfigError("cannot flip labels with fewer than 2 classes")
    n_flip = round_half_even(rate * ds.n)
    if n_flip == 0:
        return replace(ds)
    chosen = _choose(ds.n, n_flip, seed)
    labels = ds.labels.copy()
    c = ds.num_classes
    for i in chosen:
        shift = int(_sample_rng(seed, i).integers(1, c))
        labels[i] = (labels[i] + shift) % c
    return replace(ds, labels=labels)


def add_gaussian(ds, noise_factor, fraction, seed):
    """Add clamped Gaussian pixel noise to round(fraction*N) samples.

    x' = clip(x + noise_factor * z, 0, 1) with z standard normal per pixel.
    Labels are never touched. Requires image-valued features in [0, 1].
    """
    if noise_factor < 0:
        raise ConfigError("noise_factor must be non-negative")
    if not (0.0 <= fraction <= 1.0):
        raise ConfigError("fraction must lie in [0, 1]")
    seed = _check_seed(seed)
    if ds.n and (ds.features.min() < 0.0 or ds.features.max() > 1.0):
        raise ConfigError("add_gaussian requires image-valued features in [0, 1]")
    count = round_half_even(fraction * ds.n)
    if count == 0:
        return replace(ds)
    chosen = _choose(ds.n, count, seed)
    features = ds.features.copy()
    for i in chosen:
        z = _sample_rng(seed, i).standard_normal(ds.dim)
        features[i] = np.clip(features[i] + noise_factor * z, 0.0, 1.0)
    return replace(
        ds,
        features=features,
        input_corruption=_add_tags(ds.input_corruption, chosen, KIND_GAUSSIAN),
    )


def _bilinear_sample(img, sx, sy):
    # zero padding outside the image
    h, w = img.shape
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    out = np.zeros(sx.shape)
    for dy in (0, 1):
        for dx in (0, 1):
            xs = x0 + dx
            ys = y0 + dy
            valid = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            vals = np.zeros(sx.shape)
            vals[valid] = img[ys[valid], xs[valid]]
            out += weight * vals
    return out


def _warp_image(img, rng, params):
    h, w = img.shape
    theta = np.deg2rad(rng.uniform(-params.rotation_deg, params.rotation_deg))
    scale = rng.uniform(params.scale_range[0], params.scale_range[1])
    shear = np.deg2rad(rng.uniform(-params.shear_deg, params.shear_deg))
    tx = rng.uniform(-params.translate_frac * w, params.translate_frac * w)
    ty = rng.uniform(-params.translate_frac * h, params.translate_frac * h)

    # forward map in (x, y): rotate . shear . scale about the image center
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shr = np.array([[1.0, np.tan(shear)], [0.0, 1.0]])
    fwd = rot @ shr * scale
    inv = np.linalg.inv(fwd)

    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs.ravel() - cx - tx, ys.ravel() - cy - ty])
    src = inv @ rel
    return _bilinear_sample(img, src[0] + cx, src[1] + cy).reshape(h, w)


def affine_warp(ds, params, fraction, seed, width, height, kind=KIND_AFFINE_STRONG):
    """Warp round(fraction*N) image samples with random affine maps.

    Rotation, isotropic scale, shear and translation are drawn uniformly
    within ``params`` and composed about the image center; resampling is
    bilinear with out-of-bounds reads as zero. ``kind`` sets the
    provenance tag.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ConfigError("fraction must lie in [0, 1]")
    seed = _check_seed(seed)
    if ds.dim != width * height:
        raise ConfigError(f"dataset dim {ds.dim} != width*height={width * height}")
    count = round_half_even(fraction * ds.n)
    if count == 0:
        return replace(ds)
    chosen = _choose(ds.n, count, seed)
    features = ds.features.copy()
    for i in chosen:
        img = features[i].reshape(height, width)
        warped = _warp_image(img, _sample_rng(seed, i), params)
        features[i] = np.clip(warped, 0.0, 1.0).ravel()
    return replace(
        ds,
        features=features,
        input_corruption=_add_tags(ds.input_corruption, chosen, kind),
    )


def apply_corruption(ds, spec):
    """Apply one CorruptionSpec; affine kinds take the image shape from the
    dataset."""
    if spec.kind == KIND_LABEL_FLIP:
        return flip_labels(ds, spec.rate, spec.seed)
    if spec.kind == KIND_GAUSSIAN:
        return add_gaussian(ds, spec.noise_factor, spec.fraction, spec.seed)
    if ds.image_shape is None:
        raise ConfigError("affine corruption requires an image dataset")
    height, width = ds.image_shape
    params = spec.params or (STRONG_AFFINE if spec.kind == KIND_AFFINE_STRONG else MILD_AFFINE)
    return affine_warp(ds, params, spec.fraction, spec.seed, width, height, kind=spec.kind)
