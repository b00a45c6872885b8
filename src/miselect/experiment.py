"""Declarative experiment orchestration.

One JSON config describes the full pipeline: load or generate data, corrupt
the training split, embed, score, select, train, evaluate. Outputs are
machine-readable (JSON report, per-sample score CSV, accuracy-curve CSV)
and byte-identical across reruns with the same config and seed, including
under different worker-process counts. Stage seeds are derived from the
master seed by hashing the stage name with SHA-256, so each stage is
independently reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._util import round_half_even
from .corruption import (
    KIND_AFFINE_MILD,
    KIND_AFFINE_STRONG,
    KIND_GAUSSIAN,
    KIND_LABEL_FLIP,
    AffineParams,
    CorruptionSpec,
    apply_corruption,
)
from .data import (
    LabeledDataset,
    SyntheticSpec,
    generate_pattern_images,
    generate_synthetic,
    load_idx,
    train_test_split,
)
from .embedding import fit_pca, transform
from .errors import ConfigError, MiselectError, StageError
from .ksg import (
    VARIANT_DISCRETE,
    VARIANT_ONEHOT,
    dataset_content_hash,
    load_scores,
    per_class_summary,
    save_scores,
    score_dataset,
)
from .logreg import TrainConfig, evaluate, train
from .selection import SelectionPlan, save_selection, select

CONFIG_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

_CORRUPTION_KINDS = (KIND_LABEL_FLIP, KIND_GAUSSIAN, KIND_AFFINE_STRONG, KIND_AFFINE_MILD)

SCORES_CSV_COLUMNS = (
    "index", "label", "original_label", "provenance",
    "local_mi", "n_x", "n_y", "k_effective", "degenerate",
)
ACCURACY_CSV_COLUMNS = ("strategy", "ratio", "accuracy")


def stage_seed(master_seed, stage):
    """Derive a stage seed: first 8 bytes of SHA-256("<stage>\\x00<seed>")."""
    digest = hashlib.sha256(f"{stage}\x00{int(master_seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_config(path):
    """Read a JSON config file; raises ConfigError naming ``path`` when the
    file cannot be read or does not hold a JSON object."""
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path}: cannot read ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: must be a JSON object")
    return config


def _is_num(v):
    """A number, not a bool (JSON true/false), that converts to a finite
    float64: JSON NaN and Infinity parse but are rejected."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v, least):
    """An integer, not a bool (JSON true/false), no smaller than ``least``."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _is_seed(v):
    """A seed field is null (derive it from the master seed) or an int >= 0."""
    return v is None or _is_int(v, 0)


def _is_affine_params(p):
    if not isinstance(p, dict):
        return False
    scale = p.get("scale_range")
    return (
        all(_is_num(p.get(key)) and p[key] >= 0
            for key in ("rotation_deg", "shear_deg", "translate_frac"))
        and isinstance(scale, list) and len(scale) == 2 and all(map(_is_num, scale))
        and 0 < scale[0] <= scale[1]
    )


def _synthetic_sizes(ds):
    """(N, N_test, feature dim) of a synthetic dataset section, or None when
    a field they derive from is invalid.

    An idx dataset has no sizes here: they are only known by reading its
    files.
    """
    def count(key, default=None, least=1):
        value = ds.get(key, default)
        return value if _is_int(value, least) else None

    sizes = [count("num_classes"), count("per_class_count")]
    if ds.get("type") == "synthetic":
        dims = [count("dim")]
    elif ds.get("type") == "synthetic_images":
        dims = [count("height", 12, least=4), count("width", 12, least=4)]
    else:
        return None
    frac = ds.get("test_fraction", 0.25)
    if None in sizes + dims or not _is_num(frac) or not 0.0 < frac < 1.0:
        return None
    n = sizes[0] * sizes[1]
    # the test split takes round_half_even(test_fraction * N), as in train_test_split
    return n, round_half_even(frac * n), math.prod(dims)


def validate_config(config):
    """Range and consistency checks; returns a list of violation strings.

    Accepts a config dict or a path to a JSON file. Performs no side
    effects beyond reading referenced files' existence.
    """
    if isinstance(config, (str, Path)):
        try:
            config = load_config(config)
        except ConfigError as exc:
            return [str(exc)]
    bad = []

    if config.get("schema_version") != CONFIG_SCHEMA_VERSION:
        bad.append(f"schema_version: must be {CONFIG_SCHEMA_VERSION}")
    if not _is_int(config.get("seed", 0), 0):
        bad.append("seed: must be a non-negative integer")
    out_dir = config.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        bad.append("output_dir: must be a string path when given")

    # (N_train, feature dim) of a synthetic dataset, the bounds of its PCA dim
    bound = None
    ds = config.get("dataset")
    if not isinstance(ds, dict):
        bad.append("dataset: required section missing")
    else:
        kind = ds.get("type")
        if kind == "idx":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                path = ds.get(key)
                if not isinstance(path, str):
                    bad.append(f"dataset.{key}: required path missing")
                elif not Path(path).exists():
                    bad.append(f"dataset.{key}: file not found: {path}")
        elif kind in ("synthetic", "synthetic_images"):
            for key in ("num_classes", "per_class_count"):
                if not _is_int(ds.get(key), 1):
                    bad.append(f"dataset.{key}: must be a positive integer")
            frac = ds.get("test_fraction", 0.25)
            if not _is_num(frac) or not (0.0 < frac < 1.0):
                bad.append("dataset.test_fraction: must lie in (0, 1)")
            sizes = _synthetic_sizes(ds)
            if sizes is not None:
                n, n_test, feature_dim = sizes
                if 1 <= n_test <= n - 1:
                    bound = n - n_test, feature_dim
                else:
                    bad.append(f"dataset.test_fraction: {frac} leaves an empty split "
                               f"for N={n}")
            if not _is_seed(ds.get("seed")):
                bad.append("dataset.seed: must be null or a non-negative integer")
            if kind == "synthetic":
                classes, dim = ds.get("num_classes"), ds.get("dim")
                if not _is_int(dim, 1):
                    bad.append("dataset.dim: must be a positive integer")
                sized = _is_int(classes, 1) and _is_int(dim, 1)
                if not _is_num(ds.get("class_stddev")) or ds.get("class_stddev", -1) < 0:
                    bad.append("dataset.class_stddev: must be a non-negative number")
                means = ds.get("class_means")
                has_sep = _is_num(ds.get("class_separation")) and ds.get("class_separation", 0) > 0
                if means is not None:
                    if not (isinstance(means, list) and all(
                            isinstance(row, list) and all(map(_is_num, row)) for row in means)):
                        bad.append("dataset.class_means: must be a list of finite numeric rows")
                    elif sized and (len(means) != classes or any(len(r) != dim for r in means)):
                        bad.append(f"dataset.class_means: must have shape (num_classes, dim) "
                                   f"= ({classes}, {dim})")
                    elif len({tuple(map(float, row)) for row in means}) < len(means):
                        bad.append("dataset.class_means: two classes share a mean")
                elif not has_sep:
                    bad.append("dataset.class_separation: must be a positive number "
                               "unless class_means is given")
                elif sized and dim < classes:
                    # separated() puts each class mean on its own coordinate axis
                    bad.append(f"dataset.dim: class_separation needs dim >= num_classes "
                               f"({classes})")
            else:
                if not _is_int(ds.get("num_classes"), 1) or ds["num_classes"] > 6:
                    bad.append("dataset.num_classes: pattern images support 1..6 classes")
                for key in ("height", "width"):
                    if not _is_int(ds.get(key, 12), 4):
                        bad.append(f"dataset.{key}: must be an integer >= 4")
                noise = ds.get("noise", 0.05)
                if not _is_num(noise) or noise < 0:
                    bad.append("dataset.noise: must be a non-negative number")
                if not _is_int(ds.get("jitter_px", 1), 0):
                    bad.append("dataset.jitter_px: must be a non-negative integer")
        else:
            bad.append("dataset.type: must be one of idx, synthetic, synthetic_images")

    emb = config.get("embedding", {})
    if not isinstance(emb, dict):
        bad.append("embedding: must be a mapping")
    else:
        dim = emb.get("dim", 16)
        if not _is_int(dim, 1):
            bad.append("embedding.dim: must be a positive integer")
        elif bound is not None and dim > min(bound):
            bad.append(f"embedding.dim: {dim} exceeds min(N_train={bound[0]}, "
                       f"feature dim={bound[1]})")
        if not isinstance(emb.get("whiten", False), bool):
            bad.append("embedding.whiten: must be a boolean")

    corruptions = config.get("corruptions", [])
    if not isinstance(corruptions, list):
        bad.append("corruptions: must be a list")
        corruptions = []
    for i, cor in enumerate(corruptions):
        if not isinstance(cor, dict) or cor.get("kind") not in _CORRUPTION_KINDS:
            bad.append(f"corruptions[{i}].kind: must be one of {_CORRUPTION_KINDS}")
            continue
        kind = cor["kind"]
        # a field the kind needs has no default; the others default to 0
        for key, needed in (("rate", kind == KIND_LABEL_FLIP),
                            ("fraction", kind != KIND_LABEL_FLIP)):
            value = cor.get(key, None if needed else 0.0)
            if not _is_num(value) or not (0.0 <= value <= 1.0):
                bad.append(f"corruptions[{i}].{key}: must lie in [0, 1]")
        nf = cor.get("noise_factor", None if kind == KIND_GAUSSIAN else 0.0)
        if not _is_num(nf) or nf < 0:
            bad.append(f"corruptions[{i}].noise_factor: must be non-negative")
        if not _is_seed(cor.get("seed")):
            bad.append(f"corruptions[{i}].seed: must be null or a non-negative integer")
        if cor.get("params") is not None and not _is_affine_params(cor["params"]):
            bad.append(
                f"corruptions[{i}].params: need non-negative rotation_deg, shear_deg and "
                "translate_frac, and scale_range [min, max] with 0 < min <= max"
            )

    est = config.get("estimator", {})
    if not isinstance(est, dict):
        bad.append("estimator: must be a mapping")
    else:
        if est.get("variant", VARIANT_DISCRETE) not in (VARIANT_DISCRETE, VARIANT_ONEHOT):
            bad.append("estimator.variant: must be discrete_label or onehot_continuous")
        if not _is_int(est.get("k", 3), 1):
            bad.append("estimator.k: must be a positive integer")
        if not isinstance(est.get("strict", True), bool):
            bad.append("estimator.strict: must be a boolean")
        scale = est.get("label_scale")
        if scale is not None and (not _is_num(scale) or scale <= 0):
            bad.append("estimator.label_scale: must be positive when given")
        if not _is_seed(est.get("jitter_seed")):
            bad.append("estimator.jitter_seed: must be null or a non-negative integer")

    sel = config.get("selection")
    if not isinstance(sel, dict):
        bad.append("selection: required section missing")
    else:
        plans = sel.get("plans")
        if not isinstance(plans, list) or not plans:
            bad.append("selection.plans: need at least one plan")
        else:
            for i, plan in enumerate(plans):
                if not isinstance(plan, dict) or plan.get("scope") not in ("global", "class_wise"):
                    bad.append(f"selection.plans[{i}].scope: must be global or class_wise")
                elif plan.get("band") not in ("top", "middle", "bottom", "random"):
                    bad.append(f"selection.plans[{i}].band: must be top, middle, bottom or random")
        ratios = sel.get("ratios")
        if not isinstance(ratios, list) or not ratios:
            bad.append("selection.ratios: need at least one ratio")
        else:
            for i, r in enumerate(ratios):
                if not _is_num(r) or not (0.0 < r <= 1.0):
                    bad.append(f"selection.ratios[{i}]: must lie in (0, 1]")

    clf = config.get("classifier", {})
    if not isinstance(clf, dict):
        bad.append("classifier: must be a mapping")
    else:
        if not _is_num(clf.get("learning_rate", 0.1)) or clf.get("learning_rate", 0.1) <= 0:
            bad.append("classifier.learning_rate: must be positive")
        if not _is_int(clf.get("epochs", 300), 1):
            bad.append("classifier.epochs: must be a positive integer")
        if not _is_num(clf.get("l2", 1e-4)) or clf.get("l2", 1e-4) < 0:
            bad.append("classifier.l2: must be non-negative")
        bs = clf.get("batch_size")
        if bs is not None and not _is_int(bs, 1):
            bad.append("classifier.batch_size: must be a positive integer or null")
        if not _is_seed(clf.get("seed")):
            bad.append("classifier.seed: must be null or a non-negative integer")
        if not isinstance(clf.get("on_raw_features", False), bool):
            bad.append("classifier.on_raw_features: must be a boolean")

    return bad


@dataclass
class ExperimentReport:
    """Full run result: the JSON-shaped report plus in-memory artifacts."""

    data: dict
    scores: object          # final-stage MIScoreSet
    accuracy: dict          # (strategy, ratio) -> accuracy
    out_files: list


def _build_dataset(ds_cfg, master_seed):
    kind = ds_cfg["type"]
    if kind == "idx":
        train = load_idx(ds_cfg["train_images"], ds_cfg["train_labels"])
        test = load_idx(ds_cfg["test_images"], ds_cfg["test_labels"])
        if train.dim != test.dim or train.num_classes != test.num_classes:
            raise ConfigError("train and test IDX datasets are inconsistent")
        return train, test
    data_seed = ds_cfg.get("seed")
    if data_seed is None:
        data_seed = stage_seed(master_seed, "dataset")
    if kind == "synthetic":
        if "class_means" in ds_cfg and ds_cfg["class_means"] is not None:
            spec = SyntheticSpec(
                num_classes=ds_cfg["num_classes"],
                per_class_count=ds_cfg["per_class_count"],
                dim=ds_cfg["dim"],
                class_means=np.asarray(ds_cfg["class_means"], dtype=np.float64),
                class_stddev=float(ds_cfg["class_stddev"]),
                seed=data_seed,
            )
        else:
            spec = SyntheticSpec.separated(
                num_classes=ds_cfg["num_classes"],
                per_class_count=ds_cfg["per_class_count"],
                dim=ds_cfg["dim"],
                separation=float(ds_cfg["class_separation"]),
                stddev=float(ds_cfg["class_stddev"]),
                seed=data_seed,
            )
        full = generate_synthetic(spec)
    else:
        full = generate_pattern_images(
            num_classes=ds_cfg["num_classes"],
            per_class_count=ds_cfg["per_class_count"],
            height=ds_cfg.get("height", 12),
            width=ds_cfg.get("width", 12),
            noise=ds_cfg.get("noise", 0.05),
            jitter_px=ds_cfg.get("jitter_px", 1),
            seed=data_seed,
        )
    frac = ds_cfg.get("test_fraction", 0.25)
    return train_test_split(full, frac, stage_seed(master_seed, "split"))


def _corruption_spec(cor_cfg, index, master_seed):
    seed = cor_cfg.get("seed")
    if seed is None:
        seed = stage_seed(master_seed, f"corrupt.{index}")
    params = None
    if "params" in cor_cfg and cor_cfg["params"] is not None:
        p = cor_cfg["params"]
        params = AffineParams(
            rotation_deg=p["rotation_deg"],
            scale_range=tuple(p["scale_range"]),
            shear_deg=p["shear_deg"],
            translate_frac=p["translate_frac"],
        )
    return CorruptionSpec(
        kind=cor_cfg["kind"],
        rate=cor_cfg.get("rate", 0.0),
        fraction=cor_cfg.get("fraction", 0.0),
        noise_factor=cor_cfg.get("noise_factor", 0.0),
        params=params,
        seed=seed,
    )


def _cached_scores(embedded, est_cfg, cache_dir):
    """Score one embedded training split, through the score cache."""
    key_material = json.dumps(
        {
            "hash": dataset_content_hash(embedded.features, embedded.labels),
            "k": est_cfg.get("k", 3),
            "variant": est_cfg.get("variant", VARIANT_DISCRETE),
            "strict": est_cfg.get("strict", True),
            "label_scale": est_cfg.get("label_scale"),
            "jitter_seed": est_cfg.get("jitter_seed"),
            "package_version": __version__,
        },
        sort_keys=True,
    )
    cache_key = hashlib.sha256(key_material.encode()).hexdigest()
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"scores-{cache_key}.json"
        if cache_path.exists():
            # an unreadable entry, or one stored for other data, is a miss
            # and gets overwritten below
            try:
                scores, stored_key = load_scores(cache_path)
            except MiselectError:
                stored_key = None
            if stored_key == cache_key:
                return scores
    scores = score_dataset(
        embedded,
        est_cfg.get("k", 3),
        variant=est_cfg.get("variant", VARIANT_DISCRETE),
        strict=est_cfg.get("strict", True),
        label_scale=est_cfg.get("label_scale"),
        jitter_seed=est_cfg.get("jitter_seed"),
    )
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        save_scores(scores, cache_path, dataset_hash=cache_key)
    return scores


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _sanitize(obj):
    """Make a structure JSON-safe: NaN/inf floats become None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_json(path, payload):
    with open(path, "w", newline="\n") as f:
        json.dump(_sanitize(payload), f, sort_keys=True, indent=2)
        f.write("\n")


def _scores_rows(ds, scores):
    provenance = ds.provenance()
    rows = []
    for i in range(ds.n):
        rows.append(
            (
                i,
                int(ds.labels[i]),
                int(ds.original_labels[i]),
                str(provenance[i]),
                float(scores.local_scores[i]),
                int(scores.per_sample_n_x[i]),
                int(scores.per_sample_n_y[i]),
                int(scores.k_effective[i]),
                int(scores.degenerate[i]),
            )
        )
    return rows


@dataclass
class _Run:
    """State the pipeline stages share; each stage fills in its own fields."""

    cfg: dict
    master: int
    out: Path | None
    threads: int
    written: list = field(default_factory=list)
    stages: list = field(default_factory=list)  # (name, training split) per corruption stage
    test: LabeledDataset | None = None
    corruption_meta: list = field(default_factory=list)
    embedded_train: LabeledDataset | None = None
    embedded_test: LabeledDataset | None = None
    scores: object = None
    estimator: dict | None = None
    data: dict = field(default_factory=dict)  # becomes ExperimentReport.data
    selections: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)

    @property
    def train(self):
        """The training split after the last corruption stage."""
        return self.stages[-1][1]

    def emit(self, write, *names):
        """Record output files and write them with ``write(*paths)``.

        Without an output directory nothing is recorded or written.
        """
        if self.out is None:
            return
        paths = [self.out / name for name in names]
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
        self.written.extend(paths)
        write(*paths)


def _dataset_stage(run):
    train, run.test = _build_dataset(run.cfg["dataset"], run.master)
    run.stages = [("clean", train)]


def _corruption_stage(run):
    for i, cor_cfg in enumerate(run.cfg.get("corruptions", [])):
        spec = _corruption_spec(cor_cfg, i, run.master)
        before = run.train
        after = apply_corruption(before, spec)
        run.stages.append((f"{i + 1}:{spec.kind}", after))
        affected = int(
            (after.labels != before.labels).sum()
            + (after.input_corruption != before.input_corruption).sum()
        )
        run.corruption_meta.append({"kind": spec.kind, "seed": spec.seed, "affected": affected})


def _scoring_stage(run):
    cache_dir = run.out / "cache" if run.out is not None else None
    emb_cfg = run.cfg.get("embedding", {})
    mi_by_stage = []
    raw = None
    for name, ds in run.stages:
        # a label flip keeps the very feature array, and the same features
        # give the same PCA fit, so the previous fit and projection carry over
        if ds.features is raw:
            projected = run.embedded_train.features
            run.embedded_train = replace(ds, features=projected, image_shape=None)
        else:
            model = fit_pca(ds, emb_cfg.get("dim", 16), whiten=emb_cfg.get("whiten", False))
            run.embedded_train = transform(model, ds)
            raw = ds.features
        scores = _cached_scores(run.embedded_train, run.cfg.get("estimator", {}), cache_dir)
        mi_by_stage.append(
            {
                "stage": name,
                "global_mi": scores.global_mi,
                "global_mi_bits": scores.global_mi_bits,
                "degenerate_count": int(scores.degenerate.sum()),
                "k_substitutions": scores.k_substitutions,
            }
        )
    run.scores = scores
    run.embedded_test = transform(model, run.test)
    run.data = {
        "mi_by_stage": mi_by_stage,
        "per_class_mi": per_class_summary(scores, run.train.labels),
    }
    run.estimator = {
        "variant": scores.variant,
        "k": scores.k,
        "strict": scores.strict,
        "label_scale": scores.label_scale,
        "jitter_seed": scores.jitter_seed,
    }
    run.emit(
        lambda path: _write_csv(path, SCORES_CSV_COLUMNS, _scores_rows(run.train, scores)),
        "scores.csv",
    )
    summary = {"schema_version": REPORT_SCHEMA_VERSION, **run.data, "estimator": run.estimator}
    run.emit(lambda path: _write_json(path, summary), "mi_summary.json")


def _selection_stage(run):
    sel_cfg = run.cfg["selection"]
    for plan_cfg in sel_cfg["plans"]:
        scope, band = plan_cfg["scope"], plan_cfg["band"]
        for ratio in sorted(sel_cfg["ratios"]):
            seed = None
            if band == "random":
                seed = stage_seed(run.master, f"selection.{scope}/{band}@{ratio!r}")
            plan = SelectionPlan(scope=scope, band=band, retention_ratio=float(ratio), seed=seed)
            result = select(run.scores, run.train.labels, plan, num_classes=run.train.num_classes)
            run.selections[(plan.strategy, plan.retention_ratio)] = result
            tag = f"{plan.scope}-{plan.band}_r{plan.retention_ratio:g}"
            run.emit(
                lambda json_path, index_path: save_selection(
                    result, json_path=json_path, index_path=index_path
                ),
                f"selection/{tag}.json",
                f"selection/{tag}.idx",
            )


# (train split, test split, TrainConfig) in a forked grid-cell worker, set
# once per worker by the pool's initializer so that a task carries only
# indices; it stays empty in the parent process
_cell_inputs = ()


def _init_cell_worker(parent, *inputs):
    global _cell_inputs
    _cell_inputs = inputs
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent):
    """End this worker once its parent process is gone (killed, say, by the
    OOM killer); an orphaned pool worker would otherwise finish its cell and
    then wait for work forever."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _cell_accuracy(retained, *inputs):
    """Test accuracy of the classifier trained on ``retained``; a worker
    takes the split and settings its initializer stored."""
    train_data, test_data, tcfg = inputs or _cell_inputs
    return evaluate(train(train_data, retained, tcfg), test_data)["accuracy"]


def _forked_accuracies(cells, inputs, workers):
    """Accuracies of ``cells``, in order, from ``workers`` forked processes;
    None where the platform offers no fork start method.

    Each cell is a loop of short numpy calls that the GIL would serialise
    across threads. Fork hands the splits over without a copy, where spawn
    re-imports numpy in every worker and costs more than it saves at these
    sizes; the pool forks all of its workers before it starts its own
    manager thread. The process machinery is imported here, so that a run
    that trains in-process pays neither its import time nor its memory.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:
        with ProcessPoolExecutor(
            workers,
            multiprocessing.get_context("fork"),
            initializer=_init_cell_worker,
            initargs=(os.getpid(), *inputs),
        ) as pool:
            return list(pool.map(_cell_accuracy, cells))
    except BrokenProcessPool as exc:
        raise MiselectError(f"a grid-cell worker process died: {exc}") from exc


def _classifier_stage(run):
    clf_cfg = run.cfg.get("classifier", {})
    clf_seed = clf_cfg.get("seed")
    if clf_seed is None:
        clf_seed = stage_seed(run.master, "classifier") % (2**32)
    tcfg = TrainConfig(
        learning_rate=clf_cfg.get("learning_rate", 0.1),
        epochs=clf_cfg.get("epochs", 300),
        l2=clf_cfg.get("l2", 1e-4),
        batch_size=clf_cfg.get("batch_size"),
        seed=clf_seed,
    )
    on_raw = clf_cfg.get("on_raw_features", False)
    inputs = (
        run.train if on_raw else run.embedded_train,
        run.test if on_raw else run.embedded_test,
        tcfg,
    )

    # train() is a pure function of the retained indices, so plans that keep
    # the same set (every plan at ratio 1.0, for one) share one cell; cells
    # run in order of first appearance in sorted (strategy, ratio) order, and
    # accuracy keeps its entries in that sorted order
    items = sorted(run.selections.items())
    distinct = {}
    for _, result in items:
        distinct.setdefault(result.retained_indices.tobytes(), result.retained_indices)
    cells = list(distinct.values())
    workers = min(run.threads, len(cells))
    accs = _forked_accuracies(cells, inputs, workers) if workers > 1 else None
    if accs is None:
        accs = [_cell_accuracy(cell, *inputs) for cell in cells]
    by_set = dict(zip(distinct, accs))
    run.accuracy = {key: by_set[result.retained_indices.tobytes()] for key, result in items}
    rows = [(name, float(ratio), float(acc)) for (name, ratio), acc in run.accuracy.items()]
    run.emit(lambda path: _write_csv(path, ACCURACY_CSV_COLUMNS, rows), "accuracy.csv")


def _report_stage(run):
    train_ds, scores = run.train, run.scores
    run.data = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "master_seed": run.master,
        "stage_seeds": {
            name: stage_seed(run.master, name) for name in ("dataset", "split", "classifier")
        },
        "config": run.cfg,
        "dataset": {
            "n_train": train_ds.n,
            "n_test": run.test.n,
            "num_classes": train_ds.num_classes,
            "dim": train_ds.dim,
            "image_shape": list(train_ds.image_shape) if train_ds.image_shape else None,
        },
        "corruption_stages": run.corruption_meta,
        **run.data,  # mi_by_stage and per_class_mi from the scoring stage
        "estimator": run.estimator,
        "accuracy": [
            {"strategy": strategy, "ratio": float(ratio), "accuracy": float(acc)}
            for (strategy, ratio), acc in run.accuracy.items()
        ],
        "content_hashes": {
            "embedded_train": dataset_content_hash(
                run.embedded_train.features, run.embedded_train.labels
            ),
            "scores": hashlib.sha256(
                json.dumps(
                    [None if d else s for s, d in
                     zip(scores.local_scores.tolist(), scores.degenerate.tolist())]
                ).encode()
            ).hexdigest(),
        },
    }
    run.emit(lambda path: _write_json(path, run.data), "report.json")


# (stage name, the ``through`` value that stops after it, stage function).
# The name tags a stage's StageError; on any failure every file written so
# far moves to ``quarantine/``.
_PIPELINE = (
    ("dataset", None, _dataset_stage),
    ("corruption", None, _corruption_stage),
    ("scoring", "score", _scoring_stage),
    ("selection", "select", _selection_stage),
    ("classifier", "train", _classifier_stage),
    ("report", "full", _report_stage),
)
_STAGES = tuple(through for _, through, _ in _PIPELINE if through is not None)


def run_experiment(config, out_dir=None, seed_override=None, threads=1, through="full"):
    """Execute the configured pipeline and write machine-readable outputs.

    ``through`` stops the pipeline early: "score" (per-sample MI only),
    "select" (adds selection exports), "train" (adds the accuracy grid) or
    "full" (adds the JSON report). ``out_dir`` falls back to the config's
    optional ``output_dir`` field. ``threads`` (a positive integer) is the
    number of forked worker processes that train the classifier grid's
    cells; cells run in-process at 1 or where fork is unavailable. Reruns
    with identical config and seed produce byte-identical files regardless
    of ``threads``.
    """
    if through not in _STAGES:
        raise ConfigError(f"through must be one of {_STAGES}")
    if not _is_int(threads, 1):
        raise ConfigError(f"threads: must be a positive integer, got {threads!r}")
    cfg = load_config(config) if isinstance(config, (str, Path)) else config
    violations = validate_config(cfg)
    if not _is_seed(seed_override):
        violations.append("seed override: must be a non-negative integer")
    if violations:
        raise ConfigError("invalid config: " + "; ".join(violations))
    if out_dir is None:
        out_dir = cfg.get("output_dir")
    run = _Run(
        cfg=cfg,
        master=int(cfg.get("seed", 0) if seed_override is None else seed_override),
        out=Path(out_dir) if out_dir is not None else None,
        threads=threads,
    )
    for stage, stops_after, step in _PIPELINE:
        try:
            step(run)
        except MiselectError as exc:
            if run.written:
                quarantine = run.out / "quarantine"
                quarantine.mkdir(parents=True, exist_ok=True)
                for path in run.written:
                    if path.exists():
                        shutil.move(str(path), quarantine / path.name)
            raise StageError(stage, str(exc)) from exc
        if stops_after == through:
            break
    return ExperimentReport(
        data=run.data, scores=run.scores, accuracy=run.accuracy, out_files=run.written
    )
