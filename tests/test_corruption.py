import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import miselect as ms
from miselect import corruption
from miselect.corruption import _bilinear_sample, _draw_warp, _warp_images
from miselect.errors import ConfigError


def _blob_ds(n_per_class=50, classes=4, dim=6, seed=0):
    return ms.generate_synthetic(classes, n_per_class, dim, 0.5, class_separation=10.0,
                                 seed=seed)


def _image_ds(seed=0):
    return ms.generate_pattern_images(4, 25, height=10, width=10, seed=seed)


# ---------------------------------------------------------------------------
# label flips
# ---------------------------------------------------------------------------

def test_flip_rate_zero_is_identity():
    ds = _blob_ds()
    out = ms.flip_labels(ds, 0.0, seed=1)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.features, ds.features)
    assert not out.label_flipped.any()


def test_flip_rate_one_changes_every_label():
    ds = _blob_ds(n_per_class=25)
    out = ms.flip_labels(ds, 1.0, seed=2)
    assert np.all(out.labels != out.original_labels)
    assert out.label_flipped.all()


def test_flip_count_exact_and_reproducible():
    ds = _blob_ds(n_per_class=25)  # N = 100
    out1 = ms.flip_labels(ds, 0.2, seed=3)
    out2 = ms.flip_labels(ds, 0.2, seed=3)
    assert int(out1.label_flipped.sum()) == 20
    assert np.array_equal(out1.labels, out2.labels)
    assert np.array_equal(
        np.flatnonzero(out1.label_flipped), np.flatnonzero(out2.label_flipped)
    )
    other = ms.flip_labels(ds, 0.2, seed=4)
    assert not np.array_equal(other.labels, out1.labels)


def test_flip_preserves_features_and_new_labels_valid():
    ds = _blob_ds()
    out = ms.flip_labels(ds, 0.5, seed=5)
    assert np.array_equal(out.features, ds.features)
    assert out.labels.min() >= 0 and out.labels.max() < ds.num_classes
    # flipped labels are uniform over other classes, never the original
    flipped = out.label_flipped
    assert np.all(out.labels[flipped] != out.original_labels[flipped])


def test_flip_single_class_rejected():
    ds = ms.LabeledDataset.from_arrays(np.random.default_rng(0).random((10, 2)), [0] * 10)
    with pytest.raises(ConfigError):
        ms.flip_labels(ds, 0.5, seed=0)
    # rate 0 is still fine
    out = ms.flip_labels(ds, 0.0, seed=0)
    assert np.array_equal(out.labels, ds.labels)


def test_flip_rate_bounds():
    ds = _blob_ds()
    with pytest.raises(ConfigError):
        ms.flip_labels(ds, 1.2, seed=0)
    with pytest.raises(ConfigError):
        ms.flip_labels(ds, -0.1, seed=0)


# ---------------------------------------------------------------------------
# gaussian pixel noise
# ---------------------------------------------------------------------------

def test_gaussian_zero_noise_sets_flags_only():
    ds = _image_ds()
    out = ms.add_gaussian(ds, 0.0, 0.5, seed=1)
    assert np.array_equal(out.features, ds.features)
    assert int((out.input_corruption == "gaussian").sum()) == ds.n // 2
    assert np.array_equal(out.labels, ds.labels)


def test_gaussian_outputs_clamped():
    ds = _image_ds()
    out = ms.add_gaussian(ds, 0.9, 1.0, seed=2)
    assert float(out.features.min()) >= 0.0
    assert float(out.features.max()) <= 1.0
    assert np.array_equal(out.labels, ds.labels)


def test_gaussian_mean_change_matches_monte_carlo_oracle():
    ds = ms.generate_pattern_images(4, 25, height=10, width=10, seed=3)  # N = 100
    out = ms.add_gaussian(ds, 0.9, 1.0, seed=4)
    measured = float(np.abs(out.features - ds.features).mean())
    # independent Monte-Carlo estimate of E|clip(x + 0.9 z) - x| on these pixels
    rng = np.random.default_rng(12345)
    z = rng.standard_normal(ds.features.shape)
    expected = float(np.abs(np.clip(ds.features + 0.9 * z, 0, 1) - ds.features).mean())
    assert abs(measured - expected) < 0.02
    rerun = ms.add_gaussian(ds, 0.9, 1.0, seed=4)
    assert np.array_equal(rerun.features, out.features)


def test_gaussian_rejects_non_image_values():
    ds = _blob_ds()  # blob coordinates stray outside [0, 1]
    with pytest.raises(ConfigError):
        ms.add_gaussian(ds, 0.5, 0.5, seed=0)


# ---------------------------------------------------------------------------
# affine warps
# ---------------------------------------------------------------------------

def test_affine_identity_params_pixel_identical():
    ds = _image_ds()
    ident = ms.AffineParams(rotation_deg=0.0, scale_range=(1.0, 1.0),
                            shear_deg=0.0, translate_frac=0.0)
    out = ms.affine_warp(ds, ident, 1.0, seed=1, kind="affine_mild")
    assert np.allclose(out.features, ds.features, atol=1e-12)
    assert np.all(out.input_corruption == "affine_mild")


class _ScriptedRng:
    """Returns scripted values for uniform() draws, in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, a, b):
        return self.values.pop(0)


def test_quarter_turn_matches_expected_grid():
    img = np.array(
        [
            [0.0, 0.1, 0.2, 0.3],
            [0.4, 0.5, 0.6, 0.7],
            [0.8, 0.9, 1.0, 0.0],
            [0.2, 0.4, 0.6, 0.8],
        ]
    )
    # draws: rotation=90, scale=1, shear=0, tx=0, ty=0
    inv, shift = _draw_warp(_ScriptedRng([90.0, 1.0, 0.0, 0.0, 0.0]), ms.STRONG_AFFINE, 4, 4)
    out = _warp_images(img[None], inv[None], np.array([shift]))[0].reshape(4, 4)
    expected = np.array(
        [
            [0.2, 0.8, 0.4, 0.0],
            [0.4, 0.9, 0.5, 0.1],
            [0.6, 1.0, 0.6, 0.2],
            [0.8, 0.0, 0.7, 0.3],
        ]
    )
    assert np.allclose(out, expected, atol=1e-6)
    assert np.allclose(out, np.rot90(img, 3), atol=1e-6)


def _reference_bilinear(img, sx, sy):
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


def _coordinate(side):
    """A source coordinate on an axis of ``side`` pixels: anywhere in
    [-3, side + 2], at or beside -2, -1, side and side + 1, where the
    padding's and the frame's edges lie, or not finite."""
    edges = [np.nextafter(v, v + step) for v in (-2.0, -1.0, float(side), side + 1.0)
             for step in (-1.0, 0.0, 1.0)]
    return st.one_of(st.floats(-3.0, side + 2.0), st.sampled_from(edges),
                     st.sampled_from([np.nan, np.inf, -np.inf]))


@given(data=st.data())
def test_bilinear_sample_matches_the_per_image_reference(data):
    m, h, w, p = (data.draw(st.integers(1, top), label=name)
                  for name, top in (("m", 3), ("h", 4), ("w", 4), ("points", 6)))
    # no pixel is zero, so a read that misses the zero padding shows
    pixels = data.draw(st.lists(st.floats(0.25, 1.0), min_size=m * h * w, max_size=m * h * w),
                       label="pixels")
    imgs = np.array(pixels).reshape(m, h, w)
    sx, sy = (np.array(data.draw(st.lists(_coordinate(side), min_size=m * p, max_size=m * p),
                                 label=name)).reshape(m, p)
              for name, side in (("sx", w), ("sy", h)))
    # a source point that is not finite reads zero at every corner
    finite = np.isfinite(sx) & np.isfinite(sy)
    expected = np.zeros((m, p))
    for i in range(m):
        expected[i, finite[i]] = _reference_bilinear(imgs[i], sx[i, finite[i]], sy[i, finite[i]])
    assert _bilinear_sample(imgs, sx.copy(), sy.copy()).tobytes() == expected.tobytes()


def _reference_warp_image(img, rng, params):
    """One image warped on its own, the oracle for the batched warp."""
    h, w = img.shape
    theta = np.deg2rad(rng.uniform(-params.rotation_deg, params.rotation_deg))
    scale = rng.uniform(params.scale_range[0], params.scale_range[1])
    shear = np.deg2rad(rng.uniform(-params.shear_deg, params.shear_deg))
    tx = rng.uniform(-params.translate_frac * w, params.translate_frac * w)
    ty = rng.uniform(-params.translate_frac * h, params.translate_frac * h)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shr = np.array([[1.0, np.tan(shear)], [0.0, 1.0]])
    inv = np.linalg.inv(rot @ shr * scale)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs.ravel() - cx - tx, ys.ravel() - cy - ty])
    src = inv @ rel
    return _reference_bilinear(img, src[0] + cx, src[1] + cy).reshape(h, w)


# image counts below, at and across multiples of the 64-image batch
@pytest.mark.parametrize("height, width, n, fraction", [
    (10, 10, 100, 0.9), (5, 9, 181, 1.0), (1, 1, 70, 1.0), (7, 3, 64, 1.0), (28, 28, 150, 0.86),
])
@pytest.mark.parametrize("params", [ms.STRONG_AFFINE, ms.MILD_AFFINE])
def test_batched_warp_equals_per_image_oracle(height, width, n, fraction, params):
    rng = np.random.default_rng(n)
    ds = ms.LabeledDataset.from_arrays(rng.uniform(0, 1, (n, height * width)), np.arange(n) % 3,
                                       image_shape=(height, width))
    out = ms.affine_warp(ds, params, fraction, seed=4)
    chosen = corruption._choose(n, fraction, 4)
    expected = ds.features.copy()
    for i in chosen:
        img = ds.features[i].reshape(height, width)
        warped = _reference_warp_image(img, corruption._sample_rng(4, i), params)
        expected[i] = np.clip(warped, 0.0, 1.0).ravel()
    assert out.features.tobytes() == expected.tobytes()


def test_mild_warp_preserves_pixel_mass():
    # the solid centered square keeps a border margin, so mild warps never
    # clip; per-sample mass still varies with the squared scale draw, so the
    # conservation check is on the fixture total, where scale averages out
    everything = ms.generate_pattern_images(5, 30, height=12, width=12, noise=0.0,
                                            jitter_px=0, seed=5)
    base = everything.subset(np.flatnonzero(everything.labels == 4))
    out = ms.affine_warp(base, ms.MILD_AFFINE, 1.0, seed=6, kind="affine_mild")
    before = base.features.sum()
    after = out.features.sum()
    assert abs(after - before) / before < 0.10
    # with the scale effect divided out, each sample conserves mass closely
    smin, smax = ms.MILD_AFFINE.scale_range
    for i in range(base.n):
        ratio = out.features[i].sum() / base.features[i].sum()
        assert smin**2 * 0.93 < ratio < smax**2 * 1.07


def test_affine_deterministic_and_kind_tagged():
    ds = _image_ds()
    a = ms.affine_warp(ds, ms.STRONG_AFFINE, 0.3, seed=7)
    b = ms.affine_warp(ds, ms.STRONG_AFFINE, 0.3, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.input_corruption, b.input_corruption)
    n_tagged = int((a.input_corruption == "affine_strong").sum())
    assert n_tagged == round(0.3 * ds.n)
    assert np.array_equal(a.labels, ds.labels)


@pytest.mark.parametrize("kind, preset", [("affine_strong", ms.STRONG_AFFINE),
                                          ("affine_mild", ms.MILD_AFFINE)])
def test_affine_params_none_takes_the_preset_of_its_kind(kind, preset):
    ds = _image_ds()
    default = ms.affine_warp(ds, None, 0.3, 1, kind=kind)
    assert np.array_equal(default.features, ms.affine_warp(ds, preset, 0.3, 1, kind=kind).features)
    assert np.array_equal(default.features, ms.apply_corruption(ds, kind, 1, fraction=0.3).features)


@pytest.mark.parametrize("params, kind", [(None, "gaussian"), ({}, "affine_strong"),
                                          ("mild", "affine_mild")])
def test_affine_params_that_are_not_affine_params_are_rejected(params, kind):
    with pytest.raises(ConfigError, match="^params: must be AffineParams"):
        ms.affine_warp(_image_ds(), params, 0.3, 1, kind=kind)


@pytest.mark.parametrize("kind", ["label_flip", "bogus", None])
def test_affine_warp_rejects_a_kind_that_is_no_warp_before_any_draw(monkeypatch, kind):
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(corruption, "_choose", no_draw)
    with pytest.raises(ConfigError, match="^kind: .* must be affine_strong or affine_mild"):
        ms.affine_warp(_image_ds(), ms.STRONG_AFFINE, 0.3, 1, kind=kind)


def test_affine_dim_mismatch():
    ds = _blob_ds()
    with pytest.raises(ConfigError, match="requires an image dataset"):
        ms.affine_warp(ds, ms.MILD_AFFINE, 0.5, seed=0)


@pytest.mark.parametrize("scale, shift", [(1e-300, 0.05), (1e-320, 0.05), (5e-324, 0.05),
                                          (1.0, 1e306)])
def test_a_warp_from_far_outside_the_frame_reads_zeros_without_a_warning(scale, shift):
    """A scale near zero sends every source point out of frame or to inf
    (a subnormal one can collapse the map to a point), as does a huge shift."""
    params = ms.AffineParams(rotation_deg=30.0, scale_range=(scale, scale), shear_deg=10.0,
                             translate_frac=shift)
    ds = _image_ds()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = ms.affine_warp(ds, params, 1.0, seed=3)
    assert not out.features.any()


@pytest.mark.parametrize("field, value", [("rotation_deg", 1e308), ("shear_deg", 1e308),
                                          ("translate_frac", 1e307)])
def test_affine_ranges_too_wide_to_draw_from_are_rejected(field, value):
    """Each uniform draw needs a finite range: twice the rotation and shear
    bounds, and twice translate_frac times the longer side, 10 here."""
    params = ms.AffineParams(**{"rotation_deg": 30.0, "scale_range": (0.9, 1.1),
                                "shear_deg": 10.0, "translate_frac": 0.1, field: value})
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ms.affine_warp(_image_ds(), params, 0.0, seed=0)
    if field == "translate_frac":  # 2e307 is drawable on a 1x1 image
        corruption.check_affine(params, 1, 1)


# ---------------------------------------------------------------------------
# provenance completeness and stacking
# ---------------------------------------------------------------------------

def test_provenance_completeness_both_directions():
    ds = _image_ds(seed=8)
    out = ms.flip_labels(ds, 0.3, seed=9)
    out = ms.add_gaussian(out, 0.5, 0.4, seed=10)
    changed_labels = out.labels != ds.labels
    assert np.array_equal(changed_labels, out.label_flipped)
    changed_features = np.any(out.features != ds.features, axis=1)
    tagged = out.input_corruption != ""
    assert np.array_equal(changed_features, tagged)
    prov = out.provenance()
    both = changed_labels & tagged
    if both.any():
        i = int(np.flatnonzero(both)[0])
        assert prov[i] == "label_flipped+gaussian"
    clean = ~changed_labels & ~tagged
    assert all(prov[i] == "clean" for i in np.flatnonzero(clean))


def test_corruption_tags_stack():
    ds = _image_ds(seed=11)
    out = ms.add_gaussian(ds, 0.2, 1.0, seed=12)
    out = ms.affine_warp(out, ms.MILD_AFFINE, 1.0, seed=13, kind="affine_mild")
    assert np.all(out.input_corruption == "gaussian+affine_mild")


def test_apply_corruption_dispatch():
    ds = _image_ds(seed=14)
    flipped = ms.apply_corruption(ds, "label_flip", 15, rate=0.2)
    assert int(flipped.label_flipped.sum()) == round(0.2 * ds.n)
    gauss = ms.apply_corruption(ds, "gaussian", 16, noise_factor=0.5, fraction=0.5)
    assert (gauss.input_corruption == "gaussian").sum() == ds.n // 2
    strong = ms.apply_corruption(ds, "affine_strong", 17, fraction=0.5)
    assert (strong.input_corruption == "affine_strong").sum() == ds.n // 2
    with pytest.raises(ConfigError):
        ms.apply_corruption(_blob_ds(), "affine_strong", 17, fraction=0.5)  # not an image dataset
    with pytest.raises(ConfigError, match="unknown corruption kind"):
        ms.apply_corruption(ds, "occlusion", 0)
    with pytest.raises(ConfigError):
        ms.apply_corruption(ds, "label_flip", 0, rate=1.5)


def test_round_half_even_sample_counts():
    # N = 100 with fraction 0.125 -> 12.5 rounds to 12 (ties to even)
    ds = ms.generate_pattern_images(4, 25, height=10, width=10, seed=18)
    out = ms.add_gaussian(ds, 0.1, 0.125, seed=19)
    assert int((out.input_corruption != "").sum()) == 12
