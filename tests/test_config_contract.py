"""The config contract, fuzzed over every section: a config that ``validate``
accepts gets through every config check of the pipeline, and one it rejects
makes ``run`` exit 2 without a trace. The property's example count comes
from the hypothesis profile that conftest.py loads."""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miselect.cli import main as cli_main
from miselect.corruption import AffineParams, apply_corruption, flip_labels
from miselect.data import generate_pattern_images, generate_synthetic
from miselect.embedding import fit_pca
from miselect.errors import ConfigError, DegenerateInputError, DivergenceError, StageError
from miselect.experiment import run_experiment, validate_config
from miselect.ksg import score_dataset, score_onehot
from miselect.logreg import train
from miselect.selection import BANDS, SCOPES, SelectionPlan, select

# what a valid config may still meet: a fit that diverges, data with no
# usable spread, a draw that overflows float64, a dataset too large to build
_DATA_FAULTS = (DivergenceError, DegenerateInputError, MemoryError, OverflowError)
_OVERFLOWED_DRAW = "all feature values must be finite"


# values a field's own row rejects; a None section is the config itself
_WRONG = {
    ("dataset", "test_fraction"): [0.0, 1.0, 1],
    ("dataset", "class_stddev"): [-1.0],
    ("dataset", "height"): [3],
    ("embedding", "dim"): [0],
    ("embedding", "whiten"): [1],
    ("estimator", "variant"): ["continuous"],
    ("estimator", "label_scale"): [0, -1.0],
    ("estimator", "jitter_seed"): [-1, 1.5],
    ("classifier", "learning_rate"): [0.0, -1],
    ("classifier", "epochs"): [0, 2.0, True],
    ("classifier", "batch_size"): [0, 4.0],
    (None, "corruptions"): [[{"kind": "label_flip", "rate": 1.5}],
                            [{"kind": "affine_mild", "fraction": 1.5}],
                            [{"kind": "gaussian", "fraction": 0.5, "noise_factor": -1}]],
    ("selection", "plans"): [[{"scope": "everywhere", "band": "top"}],
                             [{"scope": "global", "band": "best"}]],
    ("selection", "ratios"): [[0], [1.5]],
}
# values at a cross-field rule's edge, on one side of it or the other
_EDGES = {
    ("dataset", "num_classes"): [1],  # a label_flip needs 2 classes
    ("dataset", "per_class_count"): [1, 2],  # k and embedding.dim against N_train
    ("dataset", "test_fraction"): [0.1, 0.9],  # an empty split for small N
    ("dataset", "dim"): [1, 2],  # class_separation needs dim >= num_classes
    ("dataset", "jitter_px"): [4, 5],  # the image side is 4
    ("dataset", "class_means"): ["duplicate", "rows", "columns"],
    ("embedding", "dim"): [3, 4],  # against the feature dim
    ("estimator", "k"): [5, 6],  # against N_train - 2
    ("selection", "ratios"): [[0.05], [0.1]],  # 0 or 1 sample of N_train
}
# explicit affine params on either side of the drawable-range rule: twice each
# bound must stay finite, and the shift's bound is translate_frac times the
# longer image side, 4 or 5, so 2e307 is drawable on 4x4 images only
_AFFINE = {
    "rotation_deg": [30, 0.0, sys.float_info.max / 2, 1e308],
    "shear_deg": [10.0, sys.float_info.max / 2, 1e308],
    "translate_frac": [0.1, 0, 2e307, 1e308],
    "scale_range": [[0.8, 1.2], [1e-300, 1e-300], [1, 1e308]],
}


def _means(shape, classes, dim):
    rows = [[float(c)] + [0.5] * (dim - 1) for c in range(classes)]
    if shape == "integer":
        rows = [[int(v) for v in row] for row in rows]
    elif shape == "duplicate":
        rows[-1] = list(rows[0])
    elif shape == "rows":
        rows = rows[:-1] if classes > 1 else rows * 2
    elif shape == "columns":
        rows = [row + [1.0] for row in rows]
    return rows


@st.composite
def _corruption(draw):
    """One corruption record: a label flip, or pixel noise or a warp with
    fractions at 0 and 1, a noise factor near the float64 limit and the
    affine kinds' presets or explicit params."""
    kind = draw(st.sampled_from(["label_flip", "gaussian", "affine_strong", "affine_mild"]))
    if kind == "label_flip":
        return {"kind": kind, "rate": draw(st.sampled_from([0.3, 0, 1]))}
    cor = {"kind": kind, "fraction": draw(st.sampled_from([0.3, 0, 1, 0.0, 1.0]))}
    if kind == "gaussian":
        cor["noise_factor"] = draw(st.sampled_from([0.5, 0, 1e308]))
    elif draw(st.booleans()):
        cor["params"] = {key: draw(st.sampled_from(values)) for key, values in _AFFINE.items()}
    return cor


@st.composite
def _configs(draw):
    """Tiny configs, at most one field with a wrong value and one at a
    cross-field edge; the rest vary over valid values near their edges:
    zero spread, integers where floats are expected, whitening, single-sample
    batches and single epochs, both estimators and every selection plan."""
    images = draw(st.booleans())
    dataset = {"num_classes": draw(st.sampled_from([2, 3])), "per_class_count": 8,
               "test_fraction": 0.25, "seed": draw(st.sampled_from([None, 3]))}
    if images:
        dataset.update(type="synthetic_images", height=4, width=draw(st.sampled_from([4, 5])),
                       noise=draw(st.sampled_from([0.05, 0, 1, 1e308])),
                       jitter_px=draw(st.sampled_from([1, 0])))
    else:
        dataset.update(type="synthetic", dim=3,
                       class_stddev=draw(st.sampled_from([1.0, 1, 0, 0.0, 1e-9])))
        if draw(st.booleans()):
            dataset["class_means"] = draw(st.sampled_from(["distinct", "integer"]))
        else:
            dataset["class_separation"] = draw(st.sampled_from([3.0, 3, 1e-300]))
    plan = st.fixed_dictionaries({"scope": st.sampled_from(SCOPES), "band": st.sampled_from(BANDS)})
    cfg = {
        "schema_version": 1,
        "dataset": dataset,
        "embedding": {"dim": draw(st.sampled_from([2, 1])), "whiten": draw(st.booleans())},
        "corruptions": draw(st.lists(_corruption(), max_size=2)),
        "estimator": {
            "k": draw(st.sampled_from([3, 1])),
            "variant": draw(st.sampled_from(["discrete_label", "onehot_continuous"])),
            "label_scale": draw(st.sampled_from([None, 1e-300, 1, 1e308])),
            "jitter_seed": draw(st.sampled_from([None, 0, 5])),
        },
        "selection": {"plans": draw(st.lists(plan, min_size=1, max_size=2)),
                      "ratios": [draw(st.sampled_from([1.0, 0.5, 1]))]},
        "classifier": {
            "learning_rate": draw(st.sampled_from([0.1, 1, 1e12])),
            "epochs": draw(st.sampled_from([2, 1])),
            "l2": draw(st.sampled_from([1e-4, 0])),
            "batch_size": draw(st.sampled_from([None, 4, 1])),
        },
    }
    for table in (_WRONG, _EDGES):
        if draw(st.booleans()):
            section, key = field = draw(st.sampled_from(list(table)))
            (cfg if section is None else cfg[section])[key] = draw(st.sampled_from(table[field]))
    if not images and "class_means" in dataset:
        dataset["class_means"] = _means(dataset["class_means"], dataset["num_classes"],
                                        dataset["dim"])
    return cfg


def _synthetic(**fields):
    dataset = {"type": "synthetic", "num_classes": 2, "per_class_count": 10, "dim": 3,
               "class_separation": 3.0, "class_stddev": 1.0, **fields}
    return {"schema_version": 1, "dataset": dataset, "embedding": {"dim": 2},
            "selection": {"plans": [{"scope": "global", "band": "top"}], "ratios": [1.0]}}


def _images(corruptions=(), **fields):
    cfg = _synthetic()
    cfg["dataset"] = {"type": "synthetic_images", "num_classes": 2, "per_class_count": 10,
                      "height": 4, "width": 4, **fields}
    cfg["corruptions"] = list(corruptions)
    return cfg


def _warp(**params):
    return {"kind": "affine_strong", "fraction": 0.5,
            "params": {"rotation_deg": 10.0, "scale_range": [0.9, 1.1], "shear_deg": 5.0,
                       "translate_frac": 0.05, **params}}


def _fit(**classifier):
    cfg = _synthetic()
    cfg["classifier"] = {"epochs": 5, **classifier}
    return cfg


@settings(deadline=None, derandomize=True, database=None)
@given(cfg=_configs())
@example(cfg=_synthetic(class_separation=1e308))
@example(cfg=_synthetic(class_separation=-3.0))
@example(cfg=_synthetic(class_stddev=1e200))
@example(cfg=_synthetic(class_stddev=1e308))
@example(cfg=_synthetic(per_class_count=10**30))
@example(cfg=_images(noise=1e308))
@example(cfg=_images([_warp(rotation_deg=1e308)]))
@example(cfg=_images([_warp(shear_deg=1e308)]))
@example(cfg=_images([_warp(translate_frac=1e308)]))
@example(cfg=_images([_warp(scale_range=[1e-300, 1e-300])]))
@example(cfg=_images([{"kind": "gaussian", "noise_factor": 1e308, "fraction": 0.5}]))
@example(cfg=_fit(learning_rate=1e200, batch_size=4))
@example(cfg=_fit(learning_rate=1e308))
def test_validate_accepts_exactly_the_configs_that_pass_every_config_check(cfg):
    if not validate_config(cfg):
        try:
            # a valid config may fail a stage, but must not leak a warning
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                run_experiment(cfg, through="train")
        except StageError as exc:
            cause = exc.__cause__
            assert isinstance(cause, _DATA_FAULTS) or str(cause) == _OVERFLOWED_DRAW, exc
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in err.getvalue()


def test_a_dataset_within_what_an_array_can_address_is_valid():
    """Only a dataset past what one array can address is a config violation;
    a smaller one too large for memory fails the dataset stage."""
    assert validate_config(_synthetic(per_class_count=10**12)) == []
    bytes_max = np.iinfo(np.intp).max
    fits, too_many = bytes_max // (2 * 3 * 8), bytes_max // (2 * 3 * 8) + 1
    assert validate_config(_synthetic(per_class_count=fits)) == []
    assert validate_config(_synthetic(per_class_count=too_many))[0].startswith(
        "dataset.per_class_count: ")


def _split(fraction=0.25):
    return generate_synthetic(2, 10, 3, 1.0, class_separation=3.0, split=(fraction, 0))


def _one_class():
    return generate_synthetic(1, 10, 3, 1.0, class_separation=3.0)


_FLIP_ONE_CLASS = _synthetic(num_classes=1)
_FLIP_ONE_CLASS["corruptions"] = [{"kind": "label_flip", "rate": 0.2}]
_WIDE = AffineParams(rotation_deg=1e308, scale_range=(0.9, 1.1), shear_deg=5.0,
                     translate_frac=0.05)


def _section(name, value):
    return {**_synthetic(), name: value}


def _patterns():
    return generate_pattern_images(2, 10, height=4, width=4)


def _plan(scope="global", band="top", ratio=1.0):
    return _section("selection", {"plans": [{"scope": scope, "band": band}], "ratios": [ratio]})


def _affine(**params):
    return lambda: AffineParams(**{"rotation_deg": 10.0, "scale_range": (0.9, 1.1),
                                   "shear_deg": 5.0, "translate_frac": 0.05, **params})


# (a config, the stage call its violation comes from, the path of the record
# the field is in, the stage's name for the field where the config's differs)
@pytest.mark.parametrize("cfg, stage_call, record, renamed", [
    (_synthetic(per_class_count=10**30),
     lambda: generate_synthetic(2, 10**30, 3, 1.0, class_separation=3.0), "dataset", None),
    (_synthetic(test_fraction=0.01), lambda: _split(0.01), "dataset", None),
    (_synthetic(class_separation=-3.0),
     lambda: generate_synthetic(2, 10, 3, 1.0, class_separation=-3.0), "dataset", None),
    (_synthetic(num_classes=4),
     lambda: generate_synthetic(4, 10, 3, 1.0, class_separation=3.0), "dataset", None),
    (_synthetic(class_means=[[0, 0, 0]]),
     lambda: generate_synthetic(2, 10, 3, 1.0, class_means=[[0, 0, 0]]), "dataset", None),
    (_synthetic(class_means=[[0, 1, 0], [0.0, 1.0, 0.0]]),
     lambda: generate_synthetic(2, 10, 3, 1.0, class_means=[[0, 1, 0], [0.0, 1.0, 0.0]]),
     "dataset", None),
    (_images(jitter_px=5),
     lambda: generate_pattern_images(2, 10, height=4, width=4, jitter_px=5), "dataset", None),
    ({**_synthetic(), "embedding": {"dim": 4}}, lambda: fit_pca(_split()[0], 4),
     "embedding", None),
    ({**_synthetic(), "estimator": {"k": 14}}, lambda: score_dataset(_split()[0], 14),
     "estimator", None),
    (_FLIP_ONE_CLASS,
     lambda: apply_corruption(_one_class(), "label_flip", seed=0, rate=0.2), "corruptions[0]",
     None),
    (_images([_warp(rotation_deg=1e308)]),
     lambda: apply_corruption(generate_pattern_images(2, 10, height=4, width=4),
                              "affine_strong", seed=0, fraction=0.5, params=_WIDE),
     "corruptions[0].params", None),
    ({**_synthetic(), "selection": {"plans": [{"scope": "global", "band": "top"}],
                                    "ratios": [0.03]}},
     lambda: select(np.zeros(15), np.zeros(15, dtype=np.int64),
                    SelectionPlan(scope="global", band="top", retention_ratio=0.03)),
     "selection", ("retention_ratio", "ratios[0]")),
    # single-field rules
    (_synthetic(num_classes=0), lambda: generate_synthetic(0, 10, 3, 1.0, class_separation=3.0),
     "dataset", None),
    (_synthetic(per_class_count=0),
     lambda: generate_synthetic(2, 0, 3, 1.0, class_separation=3.0), "dataset", None),
    (_synthetic(dim=0), lambda: generate_synthetic(2, 10, 0, 1.0, class_separation=3.0),
     "dataset", None),
    (_synthetic(class_stddev=-1.0),
     lambda: generate_synthetic(2, 10, 3, -1.0, class_separation=3.0), "dataset", None),
    (_images(num_classes=7), lambda: generate_pattern_images(7, 10, height=4, width=4),
     "dataset", None),
    (_section("corruptions", [{"kind": "label_flip", "rate": 1.5}]),
     lambda: apply_corruption(_split()[0], "label_flip", seed=0, rate=1.5), "corruptions[0]",
     None),
    (_images([{"kind": "affine_mild", "fraction": 1.5}]),
     lambda: apply_corruption(_patterns(), "affine_mild", seed=0, fraction=1.5),
     "corruptions[0]", None),
    (_images([{"kind": "gaussian", "fraction": 0.5, "noise_factor": -1.0}]),
     lambda: apply_corruption(_patterns(), "gaussian", seed=0, fraction=0.5, noise_factor=-1.0),
     "corruptions[0]", None),
    (_images([{"kind": "gaussian", "fraction": 0.5, "noise_factor": 0.5, "seed": -1}]),
     lambda: apply_corruption(_patterns(), "gaussian", seed=-1, fraction=0.5, noise_factor=0.5),
     "corruptions[0]", None),
    (_images([_warp(shear_deg=-1.0)]), _affine(shear_deg=-1.0), "corruptions[0].params", None),
    (_images([_warp(scale_range=[1.2, 0.8])]), _affine(scale_range=(1.2, 0.8)),
     "corruptions[0].params", None),
    (_images([{"kind": "affine_mild", "fraction": 0.5, "params": {"rotation_deg": 10.0}}]),
     _affine(scale_range=None, shear_deg=None, translate_frac=None), "corruptions[0].params",
     None),
    (_section("estimator", {"variant": "onehot_continuous", "label_scale": 0}),
     lambda: score_onehot(_split()[0], 3, 0), "estimator", None),
    (_section("estimator", {"variant": "kernel"}),
     lambda: score_dataset(_split()[0], 3, variant="kernel"), "estimator", None),
    (_plan(scope="everywhere"), lambda: SelectionPlan("everywhere", "top", 1.0),
     "selection.plans[0]", None),
    (_plan(band="best"), lambda: SelectionPlan("global", "best", 1.0), "selection.plans[0]",
     None),
    (_plan(ratio=1.5), lambda: SelectionPlan("global", "top", 1.5), "selection",
     ("retention_ratio", "ratios[0]")),
    (_fit(learning_rate=0), lambda: train(_split()[0], learning_rate=0), "classifier", None),
    (_fit(epochs=0), lambda: train(_split()[0], epochs=0), "classifier", None),
    (_fit(l2=-1.0), lambda: train(_split()[0], l2=-1.0), "classifier", None),
    (_fit(batch_size=0), lambda: train(_split()[0], batch_size=0), "classifier", None),
], ids=["size", "split", "separation", "separation-dim", "means-shape", "means-coincide",
        "jitter", "embedding-dim", "k", "flip-one-class", "affine-range", "ratio",
        "num-classes", "per-class-count", "dim", "class-stddev", "pattern-classes", "rate",
        "fraction", "noise-factor", "corruption-seed", "affine-bound", "affine-scale",
        "affine-missing", "label-scale", "variant", "scope", "band", "ratio-range", "learning-rate",
        "epochs", "l2", "batch-size"])
def test_validate_reports_the_stage_check_behind_the_field_path(cfg, stage_call, record,
                                                                 renamed):
    with pytest.raises(ConfigError) as caught:
        stage_call()
    message = str(caught.value)
    if renamed:
        message = message.replace(*renamed, 1)
    assert f"{record}.{message}" in validate_config(cfg)


@pytest.mark.parametrize("cfg, stage_call, record", [
    (_fit(epochs=True), lambda: train(_split()[0], epochs=True), "classifier"),
    (_fit(learning_rate=float("nan")), lambda: train(_split()[0], learning_rate=float("nan")),
     "classifier"),
], ids=["bool", "nan"])
def test_a_stage_rejects_the_bools_and_nans_its_row_rejects(cfg, stage_call, record):
    with pytest.raises(ConfigError) as caught:
        stage_call()
    assert f"{record}.{caught.value}" in validate_config(cfg)


def test_stages_take_numpy_integers_as_integers():
    i = np.int64
    split = generate_synthetic(i(2), i(10), i(3), 1.0, class_separation=3.0, split=(0.25, i(0)))
    same = generate_synthetic(2, 10, 3, 1.0, class_separation=3.0, split=(0.25, 0))
    assert np.array_equal(split[0].features, same[0].features)
    assert np.array_equal(generate_pattern_images(i(2), i(5), height=4, width=4).features,
                          generate_pattern_images(2, 5, height=4, width=4).features)
    assert np.array_equal(flip_labels(same[0], 0.2, seed=i(3)).labels,
                          flip_labels(same[0], 0.2, seed=3).labels)
    fit = train(same[0], epochs=i(5), batch_size=i(4), seed=0)
    assert np.array_equal(fit.weights, train(same[0], epochs=5, batch_size=4, seed=0).weights)
