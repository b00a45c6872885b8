"""Synthetic noise injection with full provenance tracking.

Three corruption families: uniform label flips, additive (clamped)
Gaussian pixel noise, and random affine warps of image samples with strong
and mild presets. Which samples are hit is a single seeded draw; the
per-sample randomness comes from RNG streams derived from (seed, sample
index), so serial and parallel application agree bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from ._util import is_int, is_number, round_half_even
from .errors import ConfigError

KIND_LABEL_FLIP = "label_flip"
KIND_GAUSSIAN = "gaussian"
KIND_AFFINE_STRONG = "affine_strong"
KIND_AFFINE_MILD = "affine_mild"

_CHUNK = 64  # images warped, or given pixel noise, per batch


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
        for name in ("rotation_deg", "shear_deg", "translate_frac"):
            bound = getattr(self, name)
            if not (is_number(bound) and bound >= 0):
                raise ConfigError(f"{name}: must be a non-negative number")
        scale = self.scale_range
        if not (isinstance(scale, (tuple, list)) and len(scale) == 2
                and all(map(is_number, scale)) and 0 < scale[0] <= scale[1]):
            raise ConfigError("scale_range: must be [min, max] with 0 < min <= max")
        object.__setattr__(self, "scale_range", tuple(scale))


# Strong warps visibly destroy pattern identity; mild ones do not.
STRONG_AFFINE = AffineParams(rotation_deg=75.0, scale_range=(0.5, 1.6),
                             shear_deg=30.0, translate_frac=0.20)
MILD_AFFINE = AffineParams(rotation_deg=15.0, scale_range=(0.9, 1.1),
                           shear_deg=5.0, translate_frac=0.07)
_AFFINE_PRESETS = {KIND_AFFINE_STRONG: STRONG_AFFINE, KIND_AFFINE_MILD: MILD_AFFINE}


def check_corruption(rate=0.0, fraction=0.0, noise_factor=0.0, seed=0):
    """Each field's own rule: shares in [0, 1], a non-negative noise factor and seed."""
    for name, share in (("rate", rate), ("fraction", fraction)):
        if not (is_number(share) and 0.0 <= share <= 1.0):
            raise ConfigError(f"{name}: must lie in [0, 1]")
    if not (is_number(noise_factor) and noise_factor >= 0):
        raise ConfigError("noise_factor: must be non-negative")
    if not is_int(seed):
        raise ConfigError("seed: must be a non-negative integer")


def check_flip(rate, num_classes):
    """A positive flip rate needs another class to flip a label to."""
    if rate > 0 and num_classes < 2:
        raise ConfigError("rate: cannot flip labels with fewer than 2 classes")


def check_affine(params, height, width):
    """Each uniform draw of a warp of (height, width) images needs a finite
    range: twice the rotation bound, twice the shear bound and twice the
    largest shift, translate_frac times the longer side."""
    for name, bound in (("rotation_deg", params.rotation_deg), ("shear_deg", params.shear_deg),
                        ("translate_frac", params.translate_frac * max(height, width))):
        if not math.isfinite(2.0 * bound):
            raise ConfigError(f"{name}: {getattr(params, name)} gives a range too wide to draw "
                              f"from on {height}x{width} images")


def _choose(n, share, seed):
    """The sorted indices of the round(share*n) samples a stage corrupts,
    drawn from ``seed``."""
    rng = np.random.default_rng(int(seed))
    return np.sort(rng.choice(n, size=round_half_even(share * n), replace=False))


def _sample_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _corrupted_inputs(ds, fraction, seed, kind, rewrite):
    """``ds`` with round(fraction*N) chosen samples rewritten, clipped to
    [0, 1] and tagged ``kind``. ``rewrite(rngs, x)`` maps the features ``x``
    of up to _CHUNK chosen samples, and each one's RNG stream, to their new
    features; chunks keep the (rows, dim) temporaries small. The clip takes
    an overflow's inf to 0 or 1."""
    chosen = _choose(ds.n, fraction, seed)
    if not chosen.size:
        return replace(ds)
    features = ds.features.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, chosen.size, _CHUNK):
            rows = chosen[start : start + _CHUNK]
            new = rewrite([_sample_rng(seed, i) for i in rows], features[rows])
            features[rows] = np.clip(new, 0.0, 1.0)
    # object strings grow freely; the string array is then sized to its content
    tags = ds.input_corruption.astype(object)
    for i in chosen:
        tags[i] = f"{tags[i]}+{kind}" if tags[i] else kind
    return replace(ds, features=features, input_corruption=tags.astype(str))


def flip_labels(ds, rate, seed):
    """Flip round(rate*N) uniformly chosen labels to a different class.

    The replacement is uniform over the other C-1 classes. Features are
    untouched; the flip provenance follows from labels differing from
    original_labels.
    """
    check_corruption(rate=rate, seed=seed)
    check_flip(rate, ds.num_classes)
    chosen = _choose(ds.n, rate, seed)
    if not chosen.size:
        return replace(ds)
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
    check_corruption(fraction=fraction, noise_factor=noise_factor, seed=seed)
    if ds.n and (ds.features.min() < 0.0 or ds.features.max() > 1.0):
        raise ConfigError("add_gaussian requires image-valued features in [0, 1]")

    def noisy(rngs, x):
        return x + noise_factor * np.array([rng.standard_normal(ds.dim) for rng in rngs])

    return _corrupted_inputs(ds, fraction, seed, KIND_GAUSSIAN, noisy)


def _bilinear_sample(imgs, sx, sy):
    """Bilinear samples of each image of the (m, h, w) stack ``imgs`` at its
    (m, p) source points (sx, sy), which are overwritten; a pixel outside
    the frame reads from zero padding."""
    m, h, w = imgs.shape
    # a source point at least a pixel outside the frame, or not finite,
    # reads zero at every corner; moved to (-2, -2) it reads the same zeros
    # and casts to an integer in range. So every corner lies in the frame
    # padded by two pixels
    far = ~((sx > -2) & (sx < w + 1) & (sy > -2) & (sy < h + 1))
    sx[far] = sy[far] = -2.0
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    flat = np.pad(imgs, ((0, 0), (2, 2), (2, 2))).reshape(-1)
    row = w + 4
    # the flat index of each top-left corner in the padded stack
    corner = np.arange(m)[:, None] * ((h + 4) * row) + (y0 + 2) * row + (x0 + 2)
    out = np.zeros(sx.shape)
    for dy in (0, 1):
        for dx in (0, 1):
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            out += weight * flat[corner + (dy * row + dx)]
    return out


def _draw_warp(rng, params, h, w):
    """Draw one warp: (inverse of its 2x2 linear part, its (tx, ty) shift)."""
    theta = np.deg2rad(rng.uniform(-params.rotation_deg, params.rotation_deg))
    scale = rng.uniform(params.scale_range[0], params.scale_range[1])
    shear = np.deg2rad(rng.uniform(-params.shear_deg, params.shear_deg))
    tx = rng.uniform(-params.translate_frac * w, params.translate_frac * w)
    ty = rng.uniform(-params.translate_frac * h, params.translate_frac * h)

    # forward map in (x, y): rotate . shear . scale about the image center
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shr = np.array([[1.0, np.tan(shear)], [0.0, 1.0]])
    fwd = rot @ shr * scale
    try:
        return np.linalg.inv(fwd), (tx, ty)
    except np.linalg.LinAlgError:  # a subnormal scale can collapse the map to a point
        return np.full((2, 2), np.inf), (tx, ty)


def _warp_images(imgs, invs, shifts):
    """Warp each image of the (m, h, w) stack ``imgs`` by its inverse map
    ``invs[i]`` (m, 2, 2) and shift ``shifts[i]`` (m, 2); returns (m, h*w).

    Each image gets the same operations, in the same order, as when it is
    warped alone: the stacked matmul runs one (2, 2) @ (2, h*w) product per
    image.
    """
    m, h, w = imgs.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.empty((m, 2, h * w))
    np.subtract(xs.ravel() - cx, shifts[:, 0, None], out=rel[:, 0])
    np.subtract(ys.ravel() - cy, shifts[:, 1, None], out=rel[:, 1])
    src = invs @ rel
    return _bilinear_sample(imgs, src[:, 0] + cx, src[:, 1] + cy)


def affine_warp(ds, params, fraction, seed, *, kind=KIND_AFFINE_STRONG):
    """Warp round(fraction*N) samples of an image dataset with random
    affine maps on its ``image_shape``.

    Rotation, isotropic scale, shear and translation are drawn uniformly
    within ``params`` and composed about the image center; resampling is
    bilinear with out-of-bounds reads as zero. ``kind``, affine_strong or
    affine_mild, sets the provenance tag, and ``params`` None takes its
    preset: STRONG_AFFINE for affine_strong, MILD_AFFINE for affine_mild.
    """
    check_corruption(fraction=fraction, seed=seed)
    if params is None:
        params = _AFFINE_PRESETS.get(kind)
    if not isinstance(params, AffineParams):
        raise ConfigError(f"params: must be AffineParams, or None with kind "
                          f"{KIND_AFFINE_STRONG} or {KIND_AFFINE_MILD}")
    if kind not in (KIND_AFFINE_STRONG, KIND_AFFINE_MILD):
        raise ConfigError(f"kind: {kind!r} must be {KIND_AFFINE_STRONG} or {KIND_AFFINE_MILD}")
    if ds.image_shape is None:
        raise ConfigError("affine corruption requires an image dataset")
    height, width = ds.image_shape
    check_affine(params, height, width)

    # a near-singular or huge warp sends source points to inf or NaN, which
    # _bilinear_sample reads as zero
    def warped(rngs, x):
        invs, shifts = zip(*(_draw_warp(rng, params, height, width) for rng in rngs))
        return _warp_images(x.reshape(-1, height, width), np.array(invs), np.array(shifts))

    return _corrupted_inputs(ds, fraction, seed, kind, warped)


# a corruption kind: the fields of its config record that have no default,
# whether it reads the features (a label flip reads none), and its apply
Kind = namedtuple("Kind", "needs reads_features apply")

KINDS = {
    KIND_LABEL_FLIP: Kind(("rate",), False,
                          lambda ds, seed, rate, **_: flip_labels(ds, rate, seed)),
    KIND_GAUSSIAN: Kind(("fraction", "noise_factor"), True,
                        lambda ds, seed, fraction, noise_factor, **_:
                        add_gaussian(ds, noise_factor, fraction, seed)),
    KIND_AFFINE_STRONG: Kind(("fraction",), True,
                             lambda ds, seed, fraction, params, **_:
                             affine_warp(ds, params, fraction, seed, kind=KIND_AFFINE_STRONG)),
    KIND_AFFINE_MILD: Kind(("fraction",), True,
                           lambda ds, seed, fraction, params, **_:
                           affine_warp(ds, params, fraction, seed, kind=KIND_AFFINE_MILD)),
}


def apply_corruption(ds, kind, seed, rate=0.0, fraction=0.0, noise_factor=0.0, params=None):
    """Apply one corruption stage, given by its config record's fields."""
    if kind not in KINDS:
        raise ConfigError(f"unknown corruption kind {kind!r}")
    return KINDS[kind].apply(ds, seed=seed, rate=rate, fraction=fraction,
                             noise_factor=noise_factor, params=params)
