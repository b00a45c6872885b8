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

import contextlib
import hashlib
import json
import math
import os
import shutil
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._util import is_int, is_number, json_text, write_atomic
from .corruption import (KIND_AFFINE_MILD, KIND_AFFINE_STRONG, KIND_GAUSSIAN, KIND_LABEL_FLIP,
                         KINDS, AffineParams, apply_corruption, check_affine,
                         check_corruption, check_flip)
from .data import (LabeledDataset, check_jitter, check_means, check_pattern_classes, check_size,
                   check_split, check_synthetic, generate_pattern_images, generate_synthetic,
                   load_idx, open_idx)
from .embedding import check_dim, fit_pca, fit_pca_in_place, transform
from .errors import ConfigError, MiselectError, StageError
from .ksg import (VARIANT_DISCRETE, check_estimator, check_k, dataset_content_hash, load_scores,
                  per_class_summary, save_scores, score_dataset)
from .logreg import check_fit, evaluate, train
from .selection import SelectionPlan, check_plan, check_ratio, save_selection, select

CONFIG_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

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
    """Read a JSON config file as UTF-8 whatever the locale; raises a
    ConfigError naming ``path`` when it is unreadable or no JSON object."""
    try:
        config = json.loads(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path}: cannot read ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: must be a JSON object")
    return config


# The config table, which validate_config, run_experiment and resolve walk.
# A node takes a value, its dotted path and the list of violations to append
# to, and returns the value's filled copy.

_REQUIRED = object()  # the default of a field that must be given


def _fields(*rows):
    """A mapping node; a value that is no mapping reads as an empty one. A row
    is (key, default, check, message[, node]). The check is a type or a
    predicate; it sees the value, or the default when the key is absent. A
    _REQUIRED field reads as None when absent, which its check rejects; a
    field whose default is None may also be null. The message is a string or
    a function of the value; a stage's check raises a ConfigError instead,
    whose message goes behind the record's path. A value that passes is
    walked by the row's node, a list item by item at ``key[i]``. The filled
    copy gives every absent field its default, leaves out every field that
    fails its check and keeps the keys the table does not name."""
    def walk(record, path, bad):
        record = record if isinstance(record, dict) else {}
        filled = dict(record)
        for key, default, check, message, *node in rows:
            where = f"{path}.{key}" if path else key
            value = record.get(key, None if default is _REQUIRED else default)
            try:
                ok = isinstance(value, check) if isinstance(check, type) else check(value)
                violation = f"{where}: {message(value) if callable(message) else message}"
            except ConfigError as exc:
                ok, violation = False, f"{path}.{exc}"
            if not ok and (value is not None or default is not None):
                bad.append(violation)
                filled.pop(key, None)
            elif node and isinstance(value, list):
                filled[key] = [node[0](item, f"{where}[{i}]", bad) for i, item in enumerate(value)]
            elif node and value is not None:
                filled[key] = node[0](value, where, bad)
            else:
                filled[key] = value
        return filled
    return walk


def _stage(check, **defaults):
    """Rows that pass each field, by name, alone to a stage's ``check``."""
    return tuple((key, default, lambda v, key=key: check(**{key: v}) or True, None)
                 for key, default in defaults.items())


def _kinds(key, nodes, message):
    """A record whose ``key`` field names the node that walks it; flagged at
    ``key`` when it is not a mapping or names none."""
    def walk(record, path, bad):
        kind = record.get(key) if isinstance(record, dict) else None
        if not isinstance(kind, str) or kind not in nodes:
            bad.append(f"{path}.{key}: {message}")
            return {}
        return nodes[kind](record, path, bad)
    return walk


def _ratio(ratio, path, bad):
    """A selection ratio, which check_ratio names by its path; None when it fails."""
    try:
        return check_ratio(ratio, what=path) or ratio
    except ConfigError as exc:
        bad.append(str(exc))


def _is_non_empty_list(v):
    return isinstance(v, list) and bool(v)


def _affine(params, path, bad):
    """The AffineParams of a corruption's ``params`` mapping, which checks its
    fields, a missing one as None; None when it rejects them."""
    try:
        return AffineParams(**{f.name: params.get(f.name) for f in fields(AffineParams)})
    except ConfigError as exc:
        bad.append(f"{path}.{exc}")


_SEED = (is_int, "must be null or a non-negative integer")
_POSITIVE_INT = (lambda v: is_int(v, 1), "must be a positive integer")
_SPLIT = (
    ("test_fraction", 0.25, lambda v: is_number(v) and 0.0 < v < 1.0, "must lie in (0, 1)"),
    ("seed", None, *_SEED),
)
_DATASET = _kinds("type", {
    "idx": _fields(*(
        (key, _REQUIRED, lambda v: isinstance(v, str) and Path(v).is_file(),
         lambda v: f"no regular file at {v}" if isinstance(v, str) else "required path missing")
        for key in ("train_images", "train_labels", "test_images", "test_labels"))),
    "synthetic": _fields(
        *_stage(check_synthetic, num_classes=_REQUIRED, per_class_count=_REQUIRED,
                dim=_REQUIRED, class_stddev=_REQUIRED),
        *_SPLIT,
        # class_separation, needed without class_means, is a cross-field rule
        ("class_means", None, lambda v: isinstance(v, list) and all(
            isinstance(row, list) and all(map(is_number, row)) for row in v),
         "must be a list of finite numeric rows"),
    ),
    "synthetic_images": _fields(
        *_stage(check_pattern_classes, num_classes=_REQUIRED),
        *_stage(check_synthetic, per_class_count=_REQUIRED),
        *_SPLIT,
        ("height", 12, lambda v: is_int(v, 4), "must be an integer >= 4"),
        ("width", 12, lambda v: is_int(v, 4), "must be an integer >= 4"),
        ("noise", 0.05, lambda v: is_number(v) and v >= 0, "must be a non-negative number"),
        ("jitter_px", 1, is_int, "must be a non-negative integer"),
    ),
}, "must be one of idx, synthetic, synthetic_images")
_CORRUPTION = (
    *_stage(check_corruption, rate=0.0, fraction=0.0, noise_factor=0.0, seed=None),
    ("params", None, dict, "must be a mapping", _affine),
)
# each corruption kind's node: the fields the kind needs have no default
_CORRUPTIONS = {
    kind: _fields(*((key, _REQUIRED if key in spec.needs else default, *rest)
                    for key, default, *rest in _CORRUPTION))
    for kind, spec in KINDS.items()
}
_CONFIG = _fields(
    ("schema_version", _REQUIRED, lambda v: v == CONFIG_SCHEMA_VERSION,
     f"must be {CONFIG_SCHEMA_VERSION}"),
    ("seed", 0, is_int, "must be a non-negative integer"),
    ("output_dir", None, str, "must be a string path when given"),
    ("dataset", _REQUIRED, dict, "required section missing", _DATASET),
    ("embedding", {}, dict, "must be a mapping", _fields(
        ("dim", 16, *_POSITIVE_INT),
        ("whiten", False, bool, "must be a boolean"),
    )),
    ("corruptions", [], list, "must be a list",
     _kinds("kind", _CORRUPTIONS, f"must be one of {tuple(_CORRUPTIONS)}")),
    ("estimator", {}, dict, "must be a mapping", _fields(
        *_stage(check_estimator, variant=VARIANT_DISCRETE, label_scale=None),
        ("k", 3, *_POSITIVE_INT),
        ("strict", True, bool, "must be a boolean"),
        ("jitter_seed", None, *_SEED),
    )),
    ("selection", _REQUIRED, dict, "required section missing", _fields(
        ("plans", _REQUIRED, _is_non_empty_list, "need at least one plan",
         _fields(*_stage(check_plan, scope=_REQUIRED, band=_REQUIRED))),
        ("ratios", _REQUIRED, _is_non_empty_list, "need at least one ratio", _ratio),
    )),
    ("classifier", {}, dict, "must be a mapping", _fields(
        *_stage(check_fit, learning_rate=0.1, epochs=300, l2=1e-4, batch_size=None),
        ("seed", None, *_SEED),
        ("on_raw_features", False, bool, "must be a boolean"),
    )),
)


def _cross_field(cfg):
    """The rules between fields of a filled config, in section order, on fields
    that passed their own rows: all but one are stages' own checks, given a
    synthetic dataset's sizes, each message behind its record's path."""
    bad = []

    def rule(record, check, *args):
        try:
            return check(*args)
        except ConfigError as exc:
            bad.append(f"{record}.{exc}")

    ds = cfg.get("dataset", {})
    kind, classes = ds.get("type"), ds.get("num_classes")
    sides = {"synthetic": ("dim",), "synthetic_images": ("height", "width")}.get(kind, ())
    n_train = None
    if sides and {"num_classes", "per_class_count", "test_fraction", *sides} <= ds.keys():
        feature_dim = math.prod(ds[key] for key in sides)
        n = rule("dataset", check_size, classes, ds["per_class_count"], feature_dim)
        n_test = n and rule("dataset", check_split, n, ds["test_fraction"])
        if n_test:
            n_train = n - n_test
    if kind == "synthetic" and {"num_classes", "dim", "class_means"} <= ds.keys():
        rule("dataset", check_means, classes, ds["dim"], ds["class_means"],
             ds.get("class_separation"))
    if kind == "synthetic_images" and {"height", "width", "jitter_px"} <= ds.keys():
        rule("dataset", check_jitter, ds["jitter_px"], ds["height"], ds["width"])
    emb_dim, k = cfg.get("embedding", {}).get("dim"), cfg.get("estimator", {}).get("k")
    if n_train is not None and emb_dim is not None:
        rule("embedding", check_dim, emb_dim, n_train, feature_dim)
    for i, cor in enumerate(cfg.get("corruptions", [])):
        warp = cor.get("kind") in (KIND_AFFINE_STRONG, KIND_AFFINE_MILD)
        if (warp or cor.get("kind") == KIND_GAUSSIAN) and kind == "synthetic":
            # gaussian noise needs pixel values in [0, 1], an affine warp an image shape
            bad.append(f"corruptions[{i}].kind: {cor['kind']} requires an image dataset, "
                       "not synthetic")
        elif cor.get("kind") == KIND_LABEL_FLIP and sides and classes and "rate" in cor:
            rule(f"corruptions[{i}]", check_flip, cor["rate"], classes)
        elif (warp and cor.get("params") and kind == "synthetic_images"
              and {"height", "width"} <= ds.keys()):
            rule(f"corruptions[{i}].params", check_affine, cor["params"], ds["height"],
                 ds["width"])
    if n_train is not None and k is not None:
        rule("estimator", check_k, n_train, k)
    ratios = cfg.get("selection", {}).get("ratios", []) if n_train is not None else []
    for i, ratio in enumerate(ratios):
        if ratio is not None:
            rule("selection", check_ratio, ratio, n_train, f"ratios[{i}]")
    return bad


def _checked(config):
    """(filled copy, violations) of a config dict: the table's, then the cross-field rules'."""
    bad = []
    filled = _CONFIG(config, "", bad)
    return filled, bad + _cross_field(filled)


def validate_config(config):
    """Range and consistency checks; returns a list of violation strings:
    the table's in table order, then the cross-field rules'.

    Accepts a config dict or a path to a JSON file. Performs no side
    effects beyond reading referenced files' existence.
    """
    if isinstance(config, (str, Path)):
        try:
            config = load_config(config)
        except ConfigError as exc:
            return [str(exc)]
    return _checked(config)[1]


def resolve(config):
    """A new config with every default of the table filled in and explicit
    affine ``params`` as AffineParams; ``config`` itself is left as it is. A
    field that fails its check is left out, so resolve a config that
    ``validate_config`` accepts."""
    return _CONFIG(config, "", [])


@dataclass
class ExperimentReport:
    """Full run result: the JSON-shaped report plus in-memory artifacts."""

    data: dict
    scores: object          # final-stage MIScoreSet
    accuracy: dict          # (strategy, ratio) -> accuracy
    out_files: list


# each generated dataset type's generator, named as in this module, and the
# record fields it takes; the record also keeps keys the table does not name
_GENERATORS = {
    "synthetic": ("generate_synthetic", ("num_classes", "per_class_count", "dim",
                                         "class_stddev", "class_means", "class_separation")),
    "synthetic_images": ("generate_pattern_images", ("num_classes", "per_class_count",
                                                     "height", "width", "noise", "jitter_px")),
}


def _build_dataset(ds_cfg, master_seed):
    """(train split, test split's size, a function that returns the test
    split), which only the classifier stage calls."""
    kind = ds_cfg["type"]
    if kind == "idx":
        train = load_idx(ds_cfg["train_images"], ds_cfg["train_labels"])
        n_test, shape, classes, make_test = open_idx(ds_cfg["test_images"], ds_cfg["test_labels"])
        # test labels need only lie below the training pair's class count
        if shape != train.image_shape or classes > train.num_classes:
            raise ConfigError("train and test IDX datasets are inconsistent")
        return train, n_test, make_test
    data_seed = ds_cfg["seed"]
    if data_seed is None:
        data_seed = stage_seed(master_seed, "dataset")
    name, keys = _GENERATORS[kind]
    # looked up at call time, so that a generator wrapped on this module is
    # the one called; each training sample goes straight into its row
    train, make_test = globals()[name](
        **{key: ds_cfg.get(key) for key in keys}, seed=data_seed,
        split=(ds_cfg["test_fraction"], stage_seed(master_seed, "split")),
    )
    # the generator's split holds round(test_fraction * N) test samples
    n_test = check_split(ds_cfg["num_classes"] * ds_cfg["per_class_count"],
                         ds_cfg["test_fraction"])
    return train, n_test, make_test


def _corruption_args(cor_cfg, index, master_seed):
    """apply_corruption's keyword arguments for corruption ``index``: the
    fields _CORRUPTION gives its record, which apply_corruption takes by
    name, with the stage's derived seed where the record gives none."""
    args = {key: cor_cfg[key] for key in ("kind", *(row[0] for row in _CORRUPTION))}
    if args["seed"] is None:
        args["seed"] = stage_seed(master_seed, f"corrupt.{index}")
    return args


# the estimator section's fields, which score_dataset and load_scores take and an
# MIScoreSet records under the same names
_ESTIMATOR_SETTINGS = ("k", "variant", "strict", "label_scale", "jitter_seed")


def _cached_scores(embedded, est_cfg, cache_dir):
    """(scores, content hash) of one embedded training split, scored through
    the score cache."""
    settings = {key: est_cfg[key] for key in _ESTIMATOR_SETTINGS}
    content_hash = dataset_content_hash(embedded.features, embedded.labels)
    key_material = {"hash": content_hash, **settings, "package_version": __version__}
    cache_key = hashlib.sha256(json.dumps(key_material, sort_keys=True).encode()).hexdigest()
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"scores-{cache_key}.json"
        if cache_path.exists():
            # an unreadable entry, or one stored for other data, is a miss
            # and gets overwritten below
            try:
                scores, stored_key = load_scores(cache_path, embedded, **settings)
            except MiselectError:
                stored_key = None
            if stored_key == cache_key:
                return scores, content_hash
    scores = score_dataset(embedded, **settings)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        save_scores(scores, cache_path, dataset_hash=cache_key)
    return scores, content_hash


def _csv_text(columns, rows):
    """Comma-separated lines of the column names and then the rows; str of
    a Python float is its repr, the shortest text that reads back exactly."""
    return "".join(",".join(map(str, row)) + "\n" for row in (columns, *rows))


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


def _sanitized_json(payload):
    """A report file's text: sanitized, sorted-key JSON indented by two spaces."""
    return json_text(_sanitize(payload), indent=2)


def _scores_rows(ds, scores):
    columns = (ds.labels, ds.original_labels, ds.provenance(), scores.local_scores,
               scores.per_sample_n_x, scores.per_sample_n_y, scores.k_effective,
               scores.degenerate.astype(np.int64))
    return zip(range(ds.n), *(c.tolist() for c in columns))


@dataclass
class _Run:
    """State the pipeline stages share; each stage fills in its own fields.
    ``train`` holds one training split at a time: the clean split, then each
    corruption's output as the scoring stage applies it. Once no later step
    reads raw features, the split is embedded in place and ``train`` holds
    the embedded split, to which the later label flips apply. ``model`` is
    the scoring stage's last PCA fit, with which the classifier stage
    embeds the test split that it builds by ``make_test``. ``report`` holds
    the report sections of the stages that ran, each added as its stage
    runs; it becomes ExperimentReport.data."""

    cfg: dict               # the resolved config
    raw: dict               # the config as given, which the report embeds
    master: int
    out: Path | None
    threads: int
    written: list = field(default_factory=list)
    train: LabeledDataset | None = None
    make_test: Callable[[], LabeledDataset] | None = None
    model: object = None    # the last PCAModel the scoring stage fitted
    embedded_train: LabeledDataset | None = None
    embedded_hash: str | None = None  # dataset_content_hash of embedded_train
    scores: object = None
    report: dict = field(default_factory=dict)
    selections: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)

    def emit(self, name, text=None):
        """Record output file ``name`` and return its path, its directory
        made; write ``text`` to it when given. Without an output directory
        nothing is recorded or written, and the path is None."""
        if self.out is None:
            return None
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(path)
        if text is not None:
            write_atomic(path, text)
        return path


def _dataset_stage(run):
    run.train, n_test, run.make_test = _build_dataset(run.cfg["dataset"], run.master)
    run.report["dataset"] = {
        "n_train": run.train.n,
        "n_test": n_test,
        "num_classes": run.train.num_classes,
        "dim": run.train.dim,
        "image_shape": list(run.train.image_shape) if run.train.image_shape else None,
    }


def _corrupt(run, index):
    """Replace ``run.train`` by corruption ``index`` of it, failing as the
    ``corruption`` stage; returns the stage name and whether features changed.
    The previous split goes with this frame, before the new one is fitted."""
    try:
        args = _corruption_args(run.cfg["corruptions"][index], index, run.master)
        before, run.train = run.train, apply_corruption(run.train, **args)
    except _STAGE_FAULTS as exc:
        raise StageError("corruption", str(exc) or type(exc).__name__) from exc
    affected = int(
        (run.train.labels != before.labels).sum()
        + (run.train.input_corruption != before.input_corruption).sum()
    )
    run.report["corruption_stages"].append(
        {"kind": args["kind"], "seed": args["seed"], "affected": affected})
    return f"{index + 1}:{args['kind']}", run.train.features is not before.features


def _scoring_stage(run):
    """Score the clean split, then corrupt and score one stage at a time."""
    cache_dir = run.out / "cache" if run.out is not None else None
    corruptions, emb_cfg = run.cfg["corruptions"], run.cfg["embedding"]
    # raw features are read only by input corruptions (label flips read
    # none) and by a classifier on raw features: without the latter, the
    # fit of the last input corruption's output, or of the clean split when
    # there is none, is the last reader and embeds that split in place
    last_raw = None if run.cfg["classifier"]["on_raw_features"] else max(
        (i + 1 for i, cor in enumerate(corruptions) if KINDS[cor["kind"]].reads_features),
        default=0)
    run.report["corruption_stages"] = []
    mi_by_stage = []
    for i in range(len(corruptions) + 1):
        name, refit = _corrupt(run, i - 1) if i else ("clean", True)
        # a label flip keeps the very feature array, and the same features
        # give the same PCA fit, so the previous fit and projection carry over
        if not refit:
            projected = run.embedded_train.features
            run.embedded_train = replace(run.train, features=projected, image_shape=None)
        elif i == last_raw:
            # the fit centres the split's own array, and the embedded split replaces it
            run.model, run.train = fit_pca_in_place(run.train, emb_cfg["dim"],
                                                    whiten=emb_cfg["whiten"])
            run.embedded_train = run.train
        else:
            run.model = fit_pca(run.train, emb_cfg["dim"], whiten=emb_cfg["whiten"])
            run.embedded_train = transform(run.model, run.train)
        scores, run.embedded_hash = _cached_scores(run.embedded_train, run.cfg["estimator"],
                                                   cache_dir)
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
    summary = {
        "mi_by_stage": mi_by_stage,
        "per_class_mi": per_class_summary(scores, run.train.labels),
        "estimator": {key: getattr(scores, key) for key in _ESTIMATOR_SETTINGS},
    }
    run.report.update(summary)
    run.emit("scores.csv", _csv_text(SCORES_CSV_COLUMNS, _scores_rows(run.train, scores)))
    run.emit("mi_summary.json",
             _sanitized_json({"schema_version": REPORT_SCHEMA_VERSION, **summary}))


def _ratio_text(ratio):
    """A ratio as a selection file names it: its ``:g`` text where that reads
    back to the very float, so that distinct ratios name distinct files."""
    text = f"{ratio:g}"
    return text if float(text) == ratio else repr(ratio)


def _selection_stage(run):
    """Select and write each distinct (scope, band, ratio) cell once, in plan
    order and ascending ratio. Of two equal ratios written differently (1
    and 1.0), the last in that order names the random band's seed."""
    sel_cfg = run.cfg["selection"]
    cells = {(plan["scope"], plan["band"], float(ratio)): ratio
             for plan in sel_cfg["plans"] for ratio in sorted(sel_cfg["ratios"])}
    for (scope, band, retention), ratio in cells.items():
        seed = None
        if band == "random":
            seed = stage_seed(run.master, f"selection.{scope}/{band}@{ratio!r}")
        plan = SelectionPlan(scope=scope, band=band, retention_ratio=retention, seed=seed)
        result = select(run.scores, run.train.labels, plan, num_classes=run.train.num_classes)
        run.selections[(plan.strategy, retention)] = result
        tag = f"selection/{scope}-{band}_r{_ratio_text(retention)}"
        if run.out is not None:
            save_selection(result, json_path=run.emit(f"{tag}.json"),
                           index_path=run.emit(f"{tag}.idx"))


# (train split, test split, train's keyword arguments) in a forked
# grid-cell worker, set once per worker by the pool's initializer so that a
# task carries only indices; it stays empty in the parent process
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
    train_data, test_data, fit = inputs or _cell_inputs
    return evaluate(train(train_data, retained, **fit), test_data)["accuracy"]


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
    clf_cfg = run.cfg["classifier"]
    fit = {key: clf_cfg[key] for key in ("learning_rate", "epochs", "l2", "batch_size", "seed")}
    if fit["seed"] is None:
        fit["seed"] = stage_seed(run.master, "classifier") % (2**32)
    # the test split is built only here, the one stage that reads it; a
    # classifier on embedded features reads neither raw split, and dropping
    # both before the pool forks keeps their pages out of every worker
    if clf_cfg["on_raw_features"]:
        inputs = (run.train, run.make_test(), fit)
    else:
        inputs = (run.embedded_train, transform(run.model, run.make_test()), fit)
        run.train = None

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
    run.report["accuracy"] = [
        {"strategy": strategy, "ratio": float(ratio), "accuracy": float(acc)}
        for (strategy, ratio), acc in run.accuracy.items()
    ]
    rows = ([row[key] for key in ACCURACY_CSV_COLUMNS] for row in run.report["accuracy"])
    run.emit("accuracy.csv", _csv_text(ACCURACY_CSV_COLUMNS, rows))


def _report_stage(run):
    """The header and content hashes around the sections the stages added."""
    # the local scores as JSON, with null for each degenerate sample's -inf
    local = [None if d else s for s, d in
             zip(run.scores.local_scores.tolist(), run.scores.degenerate.tolist())]
    run.report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "master_seed": run.master,
        "stage_seeds": {
            name: stage_seed(run.master, name) for name in ("dataset", "split", "classifier")
        },
        "config": run.raw,
        **run.report,
        "content_hashes": {
            "embedded_train": run.embedded_hash,
            "scores": hashlib.sha256(json.dumps(local).encode()).hexdigest(),
        },
    }
    run.emit("report.json", _sanitized_json(run.report))


# (stage name, the ``through`` value that stops after it, stage function).
# A MiselectError, an OSError or UnicodeEncodeError (an output path that
# cannot be made or named, say) or a MemoryError or OverflowError (a dataset
# too large to allocate) from a step becomes a StageError tagged with the
# stage's name, unless the step raised one itself, as the scoring stage does
# for a corruption; on any failure every file written so far moves to
# ``quarantine/``.
_STAGE_FAULTS = (MiselectError, OSError, UnicodeEncodeError, MemoryError, OverflowError)
_PIPELINE = (
    ("dataset", None, _dataset_stage),
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

    ``ExperimentReport.data`` holds the report sections of the stages that
    ran: a "score" run returns ``corruption_stages``, ``dataset``,
    ``mi_by_stage``, ``per_class_mi`` and ``estimator``; "train" adds
    ``accuracy``; "full" adds the header and ``content_hashes``.
    """
    if through not in _STAGES:
        raise ConfigError(f"through must be one of {_STAGES}")
    if not is_int(threads, 1):
        raise ConfigError(f"threads: must be a positive integer, got {threads!r}")
    cfg = load_config(config) if isinstance(config, (str, Path)) else config
    resolved, violations = _checked(cfg)
    if not (seed_override is None or is_int(seed_override)):
        violations.append("seed override: must be a non-negative integer")
    if violations:
        raise ConfigError("invalid config: " + "; ".join(violations))
    if out_dir is None:
        out_dir = resolved["output_dir"]
    run = _Run(
        cfg=resolved,
        raw=cfg,
        master=int(resolved["seed"] if seed_override is None else seed_override),
        out=Path(out_dir) if out_dir is not None else None,
        threads=threads,
    )
    for stage, stops_after, step in _PIPELINE:
        try:
            step(run)
        except _STAGE_FAULTS as exc:
            # a quarantine that cannot be made must not hide the stage's error
            with contextlib.suppress(OSError):
                if run.written:
                    quarantine = run.out / "quarantine"
                    quarantine.mkdir(parents=True, exist_ok=True)
                    for path in run.written:
                        if path.exists():
                            shutil.move(str(path), quarantine / path.name)
            if isinstance(exc, StageError):
                raise
            raise StageError(stage, str(exc) or type(exc).__name__) from exc
        if stops_after == through:
            break
    return ExperimentReport(
        data=run.report, scores=run.scores, accuracy=run.accuracy, out_files=run.written
    )
