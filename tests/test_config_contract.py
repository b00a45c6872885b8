"""The config contract, fuzzed over the dataset, embedding and classifier
sections: a config that ``validate`` accepts gets through every config check
of the pipeline, and one it rejects makes ``run`` exit 2 without a trace."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from miselect.cli import main as cli_main
from miselect.errors import DegenerateInputError, DivergenceError, StageError
from miselect.experiment import run_experiment, validate_config

# what a valid config may still meet: a fit that diverges, data with no
# usable spread, a draw that overflows float64, a dataset too large to build
_DATA_FAULTS = (DivergenceError, DegenerateInputError, MemoryError, OverflowError)
_OVERFLOWED_DRAW = "all feature values must be finite"


# values a field's own row rejects
_WRONG = {
    ("dataset", "test_fraction"): [0.0, 1.0, 1],
    ("dataset", "class_stddev"): [-1.0],
    ("dataset", "height"): [3],
    ("embedding", "dim"): [0],
    ("embedding", "whiten"): [1],
    ("classifier", "learning_rate"): [0.0, -1],
    ("classifier", "epochs"): [0, 2.0, True],
    ("classifier", "batch_size"): [0, 4.0],
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
def _configs(draw):
    """Tiny configs, at most one field with a wrong value and one at a
    cross-field edge; the rest vary over valid values near their edges:
    zero spread, integers where floats are expected, whitening, single-sample
    batches and single epochs."""
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
    cfg = {
        "schema_version": 1,
        "dataset": dataset,
        "embedding": {"dim": draw(st.sampled_from([2, 1])), "whiten": draw(st.booleans())},
        "corruptions": draw(st.sampled_from([[], [{"kind": "label_flip", "rate": 0.3}]])),
        "estimator": {"k": draw(st.sampled_from([3, 1]))},
        "selection": {"plans": [{"scope": draw(st.sampled_from(["global", "class_wise"])),
                                 "band": draw(st.sampled_from(["top", "random"]))}],
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
            cfg[section][key] = draw(st.sampled_from(table[field]))
    if not images and "class_means" in dataset:
        dataset["class_means"] = _means(dataset["class_means"], dataset["num_classes"],
                                        dataset["dim"])
    return cfg


def _synthetic(**fields):
    dataset = {"type": "synthetic", "num_classes": 2, "per_class_count": 10, "dim": 3,
               "class_separation": 3.0, "class_stddev": 1.0, **fields}
    return {"schema_version": 1, "dataset": dataset, "embedding": {"dim": 2},
            "selection": {"plans": [{"scope": "global", "band": "top"}], "ratios": [1.0]}}


def _images(**fields):
    cfg = _synthetic()
    cfg["dataset"] = {"type": "synthetic_images", "num_classes": 2, "per_class_count": 10,
                      "height": 4, "width": 4, **fields}
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cfg=_configs())
@example(cfg=_synthetic(class_separation=1e308))
@example(cfg=_synthetic(class_stddev=1e200))
@example(cfg=_synthetic(class_stddev=1e308))
@example(cfg=_synthetic(per_class_count=10**30))
@example(cfg=_images(noise=1e308))
def test_validate_accepts_exactly_the_configs_that_pass_every_config_check(cfg):
    if not validate_config(cfg):
        try:
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
