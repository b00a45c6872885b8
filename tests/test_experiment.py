import errno
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import miselect as ms
from miselect import _lapack, _util, experiment, ksg, neighbors
from miselect.cli import main as cli_main
from miselect.corruption import _CHUNK, KINDS
from miselect.data import _GENERATE_CHUNK
from miselect.errors import ConfigError, StageError
from miselect.experiment import run_experiment, stage_seed, validate_config
from miselect.ksg import VARIANT_ONEHOT
from test_data import write_idx_pair


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 42,
        "dataset": {
            "type": "synthetic",
            "num_classes": 4,
            "per_class_count": 40,
            "dim": 6,
            "class_separation": 8.0,
            "class_stddev": 1.0,
            "test_fraction": 0.25,
        },
        "embedding": {"dim": 4, "whiten": False},
        "corruptions": [{"kind": "label_flip", "rate": 0.0}],
        "estimator": {"variant": "discrete_label", "k": 3, "strict": True},
        "selection": {
            "plans": [{"scope": "global", "band": "top"}, {"scope": "global", "band": "random"}],
            "ratios": [0.5, 1.0],
        },
        "classifier": {"learning_rate": 0.1, "epochs": 80, "l2": 1e-4},
    }
    cfg.update(overrides)
    return cfg


def read_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_accepts_good_config():
    assert validate_config(base_config()) == []


def test_validate_flags_zero_ratio():
    cfg = base_config()
    cfg["selection"]["ratios"] = [0.0, 0.5]
    violations = validate_config(cfg)
    assert any("selection.ratios[0]" in v for v in violations)


def test_validate_flags_missing_idx_file(tmp_path):
    cfg = base_config()
    cfg["dataset"] = {
        "type": "idx",
        "train_images": str(tmp_path / "nope.idx"),
        "train_labels": str(tmp_path / "nope2.idx"),
        "test_images": str(tmp_path / "nope3.idx"),
        "test_labels": str(tmp_path / "nope4.idx"),
    }
    violations = validate_config(cfg)
    assert any("train_images" in v and "nope.idx" in v for v in violations)


def test_validate_flags_bad_plan_and_estimator():
    cfg = base_config()
    cfg["selection"]["plans"] = [{"scope": "global", "band": "best"}]
    cfg["estimator"]["variant"] = "kde"
    violations = validate_config(cfg)
    assert any("plans[0]" in v for v in violations)
    assert any("estimator.variant" in v for v in violations)


def _affine(**params):
    full = {"rotation_deg": 10.0, "scale_range": [0.9, 1.1], "shear_deg": 5.0,
            "translate_frac": 0.05}
    full.update(params)
    return [{"kind": "affine_mild", "fraction": 0.2,
             "params": {k: v for k, v in full.items() if v is not None}}]


@pytest.mark.parametrize(
    "section, key, value, flagged",
    [
        ("estimator", "jitter_seed", "abc", "estimator.jitter_seed"),
        ("estimator", "jitter_seed", -1, "estimator.jitter_seed"),
        ("dataset", "seed", "x", "dataset.seed"),
        ("dataset", "class_means", [["a"] * 6] * 4, "dataset.class_means"),
        ("dataset", "class_means", "abc", "dataset.class_means"),
        ("classifier", "seed", "a", "classifier.seed"),
        ("classifier", "seed", -1, "classifier.seed"),
        ("classifier", "seed", True, "classifier.seed"),
        ("classifier", "on_raw_features", "yes", "classifier.on_raw_features"),
        (None, "corruptions", [{"kind": "label_flip", "rate": 0.1, "seed": "q"}],
         "corruptions[0].seed"),
        (None, "corruptions", {"kind": "label_flip", "rate": 0.1}, "corruptions:"),
        (None, "corruptions", _affine(scale_range=None), "corruptions[0].params"),
        (None, "corruptions", _affine(rotation_deg="x"), "corruptions[0].params"),
        (None, "corruptions", _affine(scale_range=[1.2, 0.8]), "corruptions[0].params"),
        (None, "corruptions", [{"kind": "label_flip", "rate": 0.1, "fraction": "x"}],
         "corruptions[0].fraction"),
        ("images", "noise", "x", "dataset.noise"),
        ("images", "noise", -0.1, "dataset.noise"),
        ("images", "jitter_px", -1, "dataset.jitter_px"),
        ("images", "jitter_px", 1.5, "dataset.jitter_px"),
        # the test split takes round_half_even(test_fraction * N): 0 or N leaves
        # one part empty (N = 160 for the blobs, 30 for the images)
        ("dataset", "test_fraction", 0.003, "dataset.test_fraction"),
        ("dataset", "test_fraction", 0.997, "dataset.test_fraction"),
        ("images", "test_fraction", 0.01, "dataset.test_fraction"),
        # JSON true is not an integer
        ("dataset", "num_classes", True, "dataset.num_classes"),
        ("dataset", "per_class_count", True, "dataset.per_class_count"),
        ("dataset", "dim", True, "dataset.dim"),
        ("embedding", "dim", True, "embedding.dim"),
        ("estimator", "k", True, "estimator.k"),
        ("classifier", "epochs", True, "classifier.epochs"),
        ("classifier", "batch_size", True, "classifier.batch_size"),
    ],
)
def test_validate_flags_values_the_pipeline_cannot_use(section, key, value, flagged):
    cfg = base_config()
    if section == "images":
        cfg["dataset"] = {"type": "synthetic_images", "num_classes": 3, "per_class_count": 10}
        section = "dataset"
    target = cfg if section is None else cfg[section]
    target[key] = value
    violations = validate_config(cfg)
    assert any(v.startswith(flagged) for v in violations), violations


def test_validate_accepts_null_seeds_and_full_affine_params():
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.1, "seed": None}])
    cfg["estimator"]["jitter_seed"] = None
    cfg["classifier"]["seed"] = 0
    cfg["classifier"]["on_raw_features"] = True
    assert validate_config(cfg) == []
    images = {"type": "synthetic_images", "num_classes": 3, "per_class_count": 10}
    assert validate_config(base_config(dataset=images, corruptions=_affine())) == []


def _small_dataset(kind, **fields):
    ds = {"type": kind, "num_classes": 2, "per_class_count": 10}
    if kind == "synthetic":
        ds.update(dim=20, class_separation=3.0, class_stddev=1.0)
    ds.update(fields)
    return ds


@pytest.mark.parametrize(
    "dataset, emb_dim, flagged",
    [
        # dim 3 bounds the PCA dim
        (_small_dataset("synthetic", dim=3), 8, True),
        (_small_dataset("synthetic", dim=3), 3, False),
        # N = 20: the test split takes round_half_even(0.25 * 20) = 5, N_train = 15
        (_small_dataset("synthetic"), 16, True),
        (_small_dataset("synthetic"), 15, False),
        # N = 10: round_half_even(2.5) = 2, N_train = 8
        (_small_dataset("synthetic", per_class_count=5), 9, True),
        (_small_dataset("synthetic", per_class_count=5), 8, False),
        # images: height x width features, 12 x 12 by default
        (_small_dataset("synthetic_images", num_classes=6, height=4, width=5), 21, True),
        (_small_dataset("synthetic_images", num_classes=6, height=4, width=5), 20, False),
        (_small_dataset("synthetic_images", num_classes=6, per_class_count=40), 145, True),
        (_small_dataset("synthetic_images", num_classes=6, per_class_count=40), 144, False),
        # an invalid field the bound derives from is reported alone
        (_small_dataset("synthetic", dim="x"), 8, False),
        (_small_dataset("synthetic", per_class_count=0), 8, False),
        (_small_dataset("synthetic", test_fraction=1.5), 30, False),
        (_small_dataset("synthetic_images", height=2), 200, False),
    ],
)
def test_validate_bounds_embedding_dim_by_the_data(dataset, emb_dim, flagged):
    cfg = base_config(dataset=dataset, embedding={"dim": emb_dim})
    violations = validate_config(cfg)
    assert any(v.startswith("embedding.dim") for v in violations) == flagged, violations


def test_run_rejects_negative_seed_override(tmp_path):
    with pytest.raises(ConfigError, match="seed override"):
        run_experiment(base_config(), out_dir=tmp_path, seed_override=-5)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("threads", [0, -1, True])
def test_run_rejects_a_non_positive_worker_count(tmp_path, threads):
    with pytest.raises(ConfigError, match="^threads:"):
        run_experiment(base_config(), out_dir=tmp_path, threads=threads)
    assert not any(tmp_path.iterdir())


def test_run_rejects_invalid_config(tmp_path):
    cfg = base_config()
    cfg["selection"]["ratios"] = []
    with pytest.raises(ConfigError):
        run_experiment(cfg, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# pipeline behavior
# ---------------------------------------------------------------------------

def test_grid_complete_and_full_retention_coincides(tmp_path):
    report = run_experiment(base_config(), out_dir=tmp_path)
    assert len(report.accuracy) == 4
    assert report.accuracy[("global/top", 1.0)] == report.accuracy[("global/random", 1.0)]
    data = json.loads((tmp_path / "report.json").read_text())
    cells = {(row["strategy"], row["ratio"]) for row in data["accuracy"]}
    assert cells == {("global/top", 0.5), ("global/top", 1.0),
                     ("global/random", 0.5), ("global/random", 1.0)}


def test_repeated_plans_and_ratios_are_selected_and_written_once(tmp_path):
    cfg = base_config()
    cfg["selection"] = {"plans": [{"scope": "global", "band": "top"}] * 2,
                        "ratios": [0.5, 0.5, 1.0]}
    report = run_experiment(cfg, out_dir=tmp_path / "dup")
    once = base_config()
    once["selection"] = {"plans": [{"scope": "global", "band": "top"}], "ratios": [0.5, 1.0]}
    run_experiment(once, out_dir=tmp_path / "once")
    written = [str(p.relative_to(tmp_path / "dup")) for p in report.out_files]
    on_disk = [name for name in read_tree(tmp_path / "dup") if not name.startswith("cache/")]
    assert len(written) == len(set(written)) == 8
    assert sorted(written) == on_disk
    assert sorted(report.accuracy) == [("global/top", 0.5), ("global/top", 1.0)]
    for name in ("scores.csv", "accuracy.csv"):
        assert (tmp_path / "dup" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()


def test_ratios_alike_to_six_digits_write_distinct_files(tmp_path):
    # ":g" reads both as 0.5; each ratio's file must hold its own selection
    cfg = base_config()
    cfg["selection"] = {"plans": [{"scope": "global", "band": "top"}],
                        "ratios": [0.5000001, 0.5000002, 0.25, 1.0]}
    report = run_experiment(cfg, out_dir=tmp_path, through="select")
    written = [str(p.relative_to(tmp_path)) for p in report.out_files]
    assert len(written) == len(set(written))
    assert sorted(name for name in read_tree(tmp_path) if name.startswith("selection/")) == [
        f"selection/global-top_r{text}.{ext}"
        for text in ("0.25", "0.5000001", "0.5000002", "1") for ext in ("idx", "json")
    ]


def test_rerun_is_byte_identical(tmp_path):
    cfg = base_config()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert sorted(a) == sorted(b)
    assert all(a[k] == b[k] for k in a)


def test_each_distinct_retained_set_trains_once(tmp_path, monkeypatch):
    cfg = base_config()
    cfg["selection"]["plans"] = [
        {"scope": "global", "band": "top"},
        {"scope": "global", "band": "random"},
        {"scope": "class_wise", "band": "top"},
    ]
    trained, tested = [], []

    def counting_train(data, retained, **fit):
        trained.append((data, retained.tobytes(), fit))
        return ms.train(data, retained, **fit)

    def recording_evaluate(model, data):
        tested.append(data)
        return ms.evaluate(model, data)

    monkeypatch.setattr(experiment, "train", counting_train)
    monkeypatch.setattr(experiment, "evaluate", recording_evaluate)
    report = run_experiment(cfg, out_dir=tmp_path / "t1", threads=1)

    retained = {}
    for path in sorted((tmp_path / "t1" / "selection").glob("*.json")):
        sel = json.loads(path.read_text())
        plan = sel["plan"]
        key = (f"{plan['scope']}/{plan['band']}", plan["retention_ratio"])
        retained[key] = np.asarray(sel["retained_indices"], dtype=np.int64)
    assert sorted(retained) == sorted(report.accuracy)
    # at ratio 1.0 every plan keeps the whole training split
    distinct = {idx.tobytes() for idx in retained.values()}
    assert len(distinct) < len(retained)
    assert sorted(b for _, b, _ in trained) == sorted(distinct)

    data, _, fit = trained[0]
    for key, idx in retained.items():
        direct = ms.evaluate(ms.train(data, idx, **fit), tested[0])["accuracy"]
        assert report.accuracy[key] == direct, key

    for threads in (2, 3):
        run_experiment(cfg, out_dir=tmp_path / f"t{threads}", threads=threads)
        for name in ("accuracy.csv", "report.json"):
            assert ((tmp_path / f"t{threads}" / name).read_bytes()
                    == (tmp_path / "t1" / name).read_bytes())


@pytest.mark.parametrize("fork", [True, False])
def test_grid_cells_run_in_worker_processes_where_fork_exists(tmp_path, monkeypatch, fork):
    log = tmp_path / "pids"

    def logging_train(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return ms.train(*args, **kwargs)

    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(experiment, "train", logging_train)
    run_experiment(base_config(), out_dir=tmp_path / "out", threads=2, through="train")
    pids, parent = log.read_text().split(), str(os.getpid())
    assert len(pids) == 3  # four cells, two of them at ratio 1.0 keep the same set
    if fork:
        assert parent not in pids
    else:
        assert pids == [parent] * 3


def _record_splits(monkeypatch):
    """Make the dataset stage log a weak reference to the features of the
    training split it builds, then to those of each test split its
    ``make_test`` builds; returns that list."""
    build, refs = experiment._build_dataset, []

    def recording_build(*args):
        train, n_test, make_test = build(*args)
        refs.append(weakref.ref(train.features))

        def recording_make_test():
            test = make_test()
            refs.append(weakref.ref(test.features))
            return test

        return train, n_test, recording_make_test

    monkeypatch.setattr(experiment, "_build_dataset", recording_build)
    return refs


@pytest.mark.parametrize("on_raw", [False, True])
def test_raw_splits_are_released_before_the_grid_forks(tmp_path, monkeypatch, on_raw):
    # a classifier on embedded features reads no raw split, so the workers
    # must not fork from a parent that holds one; the report's dataset
    # section does not depend on it
    raw, alive = _record_splits(monkeypatch), []

    def recording_fork(cells, inputs, workers):
        alive.append([ref() is not None for ref in raw])
        return None  # the cells then train in-process

    monkeypatch.setattr(experiment, "_forked_accuracies", recording_fork)
    cfg = base_config()
    cfg["classifier"]["on_raw_features"] = on_raw
    run_experiment(cfg, out_dir=tmp_path, threads=2)
    assert alive == [[on_raw, on_raw]]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["dataset"] == {
        "n_train": 120, "n_test": 40, "num_classes": 4, "dim": 6, "image_shape": None
    }


@pytest.mark.parametrize("through", ["score", "select", "train"])
@pytest.mark.parametrize("on_raw", [False, True])
def test_only_the_classifier_stage_builds_the_test_split(tmp_path, monkeypatch, on_raw,
                                                         through):
    # and it embeds the split only for a classifier on embedded features
    splits, embedded = _record_splits(monkeypatch), []
    real_transform = experiment.transform

    def recording_transform(model, ds):
        embedded.append(ds)
        return real_transform(model, ds)

    monkeypatch.setattr(experiment, "transform", recording_transform)
    cfg = base_config()
    cfg["classifier"]["on_raw_features"] = on_raw
    run_experiment(cfg, out_dir=tmp_path, through=through)
    tests = splits[1:]
    assert len(tests) == (through == "train")
    assert [ds.features is test() for ds in embedded for test in tests].count(True) == (
        through == "train" and not on_raw)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_diverging_classifier_fails_alike_at_any_worker_count(tmp_path, threads):
    # a child process, so that the stderr of the grid's workers is seen too,
    # with numpy's warnings shown as users see them: full-batch fits that
    # overflow in a later epoch and in the first, a mini-batch fit, and
    # gaussian noise past the float64 limit, which the clip absorbs
    fits = [({"learning_rate": 1e80}, 1), ({"learning_rate": 1e308}, 0),
            ({"learning_rate": 1e200, "batch_size": 4}, 0)]
    runs = []
    for fit, epoch in fits:
        cfg = base_config()
        cfg["classifier"].update(fit)
        runs.append((cfg, 1, f"error [stage:classifier] non-finite loss at epoch {epoch}\n"))
    images = {"type": "synthetic_images", "num_classes": 3, "per_class_count": 10}
    runs.append((base_config(dataset=images, corruptions=[
        {"kind": "gaussian", "noise_factor": 1e308, "fraction": 0.5}]), 0, ""))
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    for i, (cfg, code, stderr) in enumerate(runs):
        argv = ["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / f"o{i}"),
                "--threads", threads]
        run = subprocess.run([sys.executable, "-m", "miselect.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (code, stderr), cfg


def _count_scoring(monkeypatch):
    """The list that gets one entry per score_dataset call of the pipeline."""
    calls = []
    score_dataset = experiment.score_dataset

    def counting(*args, **kwargs):
        calls.append(1)
        return score_dataset(*args, **kwargs)

    monkeypatch.setattr(experiment, "score_dataset", counting)
    return calls


def _record_saves(monkeypatch):
    """A dict that maps each score cache entry's file name to the score set
    the pipeline saved under it."""
    saved = {}
    save_scores = experiment.save_scores

    def recording(scores, path, **kwargs):
        saved[Path(path).name] = scores
        return save_scores(scores, path, **kwargs)

    monkeypatch.setattr(experiment, "save_scores", recording)
    return saved


def _outputs(root):
    """The output tree without the score cache."""
    return {name: data for name, data in read_tree(root).items() if not name.startswith("cache/")}


def test_poisoned_score_cache_is_recomputed(tmp_path):
    path = _write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    expected = {name: (out / name).read_bytes() for name in ("scores.csv", "accuracy.csv")}
    entries = sorted((out / "cache").glob("scores-*.json"))
    assert entries
    good = [entry.read_bytes() for entry in entries]

    # truncated entries, as an interrupted write would leave them
    for entry in entries:
        entry.write_bytes(entry.read_bytes()[:100])
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in expected} == expected
    assert [entry.read_bytes() for entry in entries] == good

    # well-formed entries stored for other data
    for entry in entries:
        payload = json.loads(entry.read_text())
        payload["dataset_hash"] = "0" * 64
        payload["n_x"] = [0] * len(payload["n_x"])
        entry.write_text(json.dumps(payload))
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in expected} == expected
    assert [entry.read_bytes() for entry in entries] == good


def _truncate_entry(payload, n=10):
    for name in ("n_x", "n_y"):
        if name in payload:
            payload[name] = [min(count, n - 1) for count in payload[name][:n]]


def _other_estimator_entry(payload):
    payload.update(variant=VARIANT_ONEHOT, k=5, strict=False)


@pytest.mark.parametrize("tamper, rescored", [(_truncate_entry, True),
                                              (_other_estimator_entry, False)],
                         ids=["fewer_samples", "other_estimator"])
def test_score_cache_entry_for_other_settings_is_rescored(tmp_path, monkeypatch, tamper,
                                                          rescored):
    """A well-formed entry under the right key whose counts are not one per
    sample of the run is a miss, and gets rewritten. Estimator settings
    stored in an entry are not read: the key covers them, and the run hits
    the entry."""
    cfg = base_config(dataset={**base_config()["dataset"], "num_classes": 3})
    path = _write_cfg(tmp_path, cfg)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(fresh)]) == 0
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    entries = sorted((out / "cache").glob("scores-*.json"))
    assert entries
    for entry in entries:
        payload = json.loads(entry.read_text())
        tamper(payload)
        entry.write_text(json.dumps(payload))
    calls = _count_scoring(monkeypatch)
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == (len(entries) if rescored else 0)
    assert (read_tree(out) == read_tree(fresh)) == rescored
    assert _outputs(out) == _outputs(fresh)


@pytest.mark.parametrize("variant", ["discrete_label", VARIANT_ONEHOT])
def test_score_cache_entry_whose_scores_its_counts_do_not_give_is_rescored(
        tmp_path, monkeypatch, variant):
    """Local scores and a global MI stored in an entry, here all 0, are not
    read: the run rebuilds them from the entry's counts without scoring, and
    writes the bytes of a cold run."""
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    cfg["estimator"]["variant"] = variant
    path = _write_cfg(tmp_path, cfg)
    cold, out = tmp_path / "cold", tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(cold)]) == 0
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    entries = sorted((out / "cache").glob("scores-*.json"))
    assert entries
    for entry in entries:
        payload = json.loads(entry.read_text())
        payload["local_scores"] = [0.0] * len(payload["n_x"])
        payload["global_mi"] = 0.0
        entry.write_text(json.dumps(payload))
    calls = _count_scoring(monkeypatch)
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert calls == []
    assert _outputs(out) == _outputs(cold)


def _first(mask):
    return int(np.flatnonzero(mask)[0])


def _edit_n_y(counts):
    counts["n_y"][_first(~counts["degenerate"])] -= 1


def _edit_k_effective(counts):
    counts["k_effective"][_first(~counts["degenerate"])] -= 1


def _edit_degenerate(counts):
    counts["degenerate"][_first(~counts["degenerate"])] = True


def _edit_degenerate_n_x(counts):
    counts["n_x"][_first(counts["degenerate"])] = 1


@pytest.mark.parametrize("edit", [_edit_n_y, _edit_k_effective, _edit_degenerate,
                                  _edit_degenerate_n_x],
                         ids=["n_y", "k_effective", "degenerate", "degenerate_n_x"])
def test_discrete_score_cache_entry_whose_counts_are_not_the_labels_is_rescored(
        tmp_path, monkeypatch, edit):
    """A discrete entry's n_y, per-sample k and degenerate flags are the
    labels', whatever the entry holds, and n_x is 0 on a degenerate sample:
    an entry edited to say otherwise is hit without scoring, and the run
    writes a cold run's bytes."""
    cfg = _idx_config(tmp_path)
    labels = Path(cfg["dataset"]["train_labels"])
    raw = bytearray(labels.read_bytes())
    for i in [i for i in range(8, len(raw)) if raw[i] == 2][1:]:
        raw[i] = i % 2  # class 2 keeps one training sample, a degenerate one
    labels.write_bytes(bytes(raw))
    path = _write_cfg(tmp_path, cfg)
    cold, out = tmp_path / "cold", tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(cold)]) == 0
    saved = _record_saves(monkeypatch)
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    entries = sorted((out / "cache").glob("scores-*.json"))
    assert entries
    for entry in entries:
        payload = json.loads(entry.read_text())
        scores = saved[entry.name]
        counts = {name: np.array(getattr(scores, field)) for name, field in (
            ("n_x", "per_sample_n_x"), ("n_y", "per_sample_n_y"),
            ("k_effective", "k_effective"), ("degenerate", "degenerate"))}
        edit(counts)
        payload.update({name: value.tolist() for name, value in counts.items()})
        entry.write_text(json.dumps(payload))
    calls = _count_scoring(monkeypatch)
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert calls == []
    assert _outputs(out) == _outputs(cold)


@pytest.mark.parametrize("estimator", [{}, {"variant": VARIANT_ONEHOT},
                                       {"variant": VARIANT_ONEHOT, "jitter_seed": 1}],
                         ids=["discrete", "onehot_per_class", "onehot_joint"])
def test_warm_run_rebuilds_every_stage_from_the_score_cache(tmp_path, monkeypatch, estimator):
    """On each scoring route, a rerun hits the cache on every stage and
    leaves the whole output tree, the cache included, as the cold run wrote
    it; only the jittered one-hot run takes the joint-space pass."""
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2},
                                   {"kind": "label_flip", "rate": 0.1}])
    cfg["estimator"].update(estimator)
    joint = []
    joint_counts = ksg._joint_counts
    monkeypatch.setattr(ksg, "_joint_counts",
                        lambda *a, **kw: joint.append(1) or joint_counts(*a, **kw))
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)
    cold = read_tree(out)
    # one entry for the clean stage and one after each corruption
    assert len([name for name in cold if name.startswith("cache/")]) == 3
    assert bool(joint) == ("jitter_seed" in estimator)
    calls = _count_scoring(monkeypatch)
    run_experiment(cfg, out_dir=out)
    assert calls == []
    assert read_tree(out) == cold


def test_version_1_score_cache_entry_is_rescored_and_rewritten(tmp_path, monkeypatch):
    """An entry of the first schema, which held every field of the score
    set, is a miss: the run scores again and rewrites it in the current
    schema."""
    out = tmp_path / "out"
    saved = _record_saves(monkeypatch)
    run_experiment(base_config(), out_dir=out, through="score")
    cold = read_tree(out)
    entries = sorted((out / "cache").glob("scores-*.json"))
    assert entries
    for entry in entries:
        scores, key = saved[entry.name], json.loads(entry.read_text())["dataset_hash"]
        payload = {"schema_version": 1, "dataset_hash": key,
                   "local_scores": [None if d else s for s, d in
                                    zip(scores.local_scores.tolist(), scores.degenerate.tolist())],
                   "global_mi": scores.global_mi, "k": scores.k, "n_samples": scores.n_samples,
                   "variant": scores.variant, "n_x": scores.per_sample_n_x.tolist(),
                   "n_y": scores.per_sample_n_y.tolist(),
                   "k_effective": scores.k_effective.tolist(),
                   "degenerate": scores.degenerate.tolist(), "strict": scores.strict,
                   "label_scale": scores.label_scale, "jitter_seed": scores.jitter_seed}
        entry.write_text(json.dumps(payload))
    calls = _count_scoring(monkeypatch)
    run_experiment(base_config(), out_dir=out, through="score")
    assert len(calls) == len(entries)
    assert read_tree(out) == cold
    assert {json.loads(entry.read_text())["schema_version"] for entry in entries} == {2}


def test_package_version_change_misses_the_score_cache(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_experiment(base_config(), out_dir=out, through="score")
    expected = (out / "scores.csv").read_bytes()
    entries = set((out / "cache").glob("scores-*.json"))
    assert entries

    calls = _count_scoring(monkeypatch)
    run_experiment(base_config(), out_dir=out, through="score")
    assert calls == []  # same version: every stage hits the cache

    monkeypatch.setattr(experiment, "__version__", experiment.__version__ + ".post1")
    run_experiment(base_config(), out_dir=out, through="score")
    assert len(calls) == len(entries)  # every stage recomputed
    assert (out / "scores.csv").read_bytes() == expected
    assert len(set((out / "cache").glob("scores-*.json")) - entries) == len(entries)


def test_flip_rate_lowers_reported_global_mi(tmp_path):
    clean_cfg = base_config()
    noisy_cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.5}])
    clean = run_experiment(clean_cfg, out_dir=tmp_path / "clean", through="score")
    noisy = run_experiment(noisy_cfg, out_dir=tmp_path / "noisy", through="score")
    clean_mi = clean.data["mi_by_stage"][-1]["global_mi"]
    noisy_mi = noisy.data["mi_by_stage"][-1]["global_mi"]
    assert noisy_mi < clean_mi


def test_score_csv_rows_and_provenance(tmp_path):
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    run_experiment(cfg, out_dir=tmp_path, through="score")
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(
        ("index", "label", "original_label", "provenance",
         "local_mi", "n_x", "n_y", "k_effective", "degenerate")
    )
    rows = [line.split(",") for line in lines[1:]]
    n_train = 120  # 160 samples minus 25% test split
    assert len(rows) == n_train
    flagged = [r for r in rows if r[3] == "label_flipped"]
    assert len(flagged) == round(0.2 * n_train)
    flagged_mi = np.mean([float(r[4]) for r in flagged])
    clean_mi = np.mean([float(r[4]) for r in rows if r[3] == "clean"])
    assert flagged_mi < clean_mi


def test_clean_run_has_no_corruption_flags(tmp_path):
    run_experiment(base_config(), out_dir=tmp_path, through="score")
    lines = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[3] == "clean" for line in lines)


def test_classifier_seed_does_not_touch_scores(tmp_path):
    cfg_a = base_config()
    cfg_a["classifier"]["seed"] = 1
    cfg_b = base_config()
    cfg_b["classifier"]["seed"] = 99999
    run_experiment(cfg_a, out_dir=tmp_path / "a")
    run_experiment(cfg_b, out_dir=tmp_path / "b")
    assert (tmp_path / "a/scores.csv").read_bytes() == (tmp_path / "b/scores.csv").read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    # overlapping clusters so local scores actually depend on the draw
    cfg = base_config()
    cfg["dataset"]["class_separation"] = 3.0
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b", seed_override=7)
    assert (tmp_path / "a/scores.csv").read_bytes() != (tmp_path / "b/scores.csv").read_bytes()


def test_stage_seed_mixing_is_stable():
    assert stage_seed(42, "dataset") == stage_seed(42, "dataset")
    assert stage_seed(42, "dataset") != stage_seed(42, "classifier")
    assert stage_seed(42, "dataset") != stage_seed(43, "dataset")


def test_mi_by_stage_tracks_each_corruption(tmp_path):
    cfg = base_config(
        corruptions=[
            {"kind": "label_flip", "rate": 0.2},
            {"kind": "label_flip", "rate": 0.3},
        ]
    )
    report = run_experiment(cfg, out_dir=tmp_path, through="score")
    stages = [e["stage"] for e in report.data["mi_by_stage"]]
    assert stages == ["clean", "1:label_flip", "2:label_flip"]
    mis = [e["global_mi"] for e in report.data["mi_by_stage"]]
    assert mis[0] > mis[1] > mis[2]


def test_pca_is_fitted_once_per_distinct_feature_matrix(tmp_path, monkeypatch):
    corruptions = [
        {"kind": "label_flip", "rate": 0.2},
        {"kind": "gaussian", "fraction": 0.3, "noise_factor": 0.5},
        {"kind": "label_flip", "rate": 0.2},
        # round_half_even(0.005 * 60) = 0 of N_train: nothing is corrupted
        {"kind": "gaussian", "fraction": 0.005, "noise_factor": 0.5},
    ]
    dataset = _small_dataset("synthetic_images", num_classes=4, per_class_count=20,
                             height=8, width=8)
    cfg = base_config(dataset=dataset, corruptions=corruptions)
    fits = []
    real_fit_pca = experiment.fit_pca

    def counting_fit_pca(*args, **kwargs):
        fits.append(args[0])
        return real_fit_pca(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_pca", counting_fit_pca)
    run_experiment(cfg, out_dir=tmp_path)
    # the label flips and the empty gaussian keep their input's features:
    # clean and the first gaussian are fitted
    assert len(fits) == 2
    monkeypatch.undo()

    # every stage's global MI equals a fresh fit, embedding and scoring of it
    resolved = experiment.resolve(cfg)
    train, _, _ = experiment._build_dataset(resolved["dataset"], cfg["seed"])
    stages = [train]
    for i, cor in enumerate(resolved["corruptions"]):
        stages.append(ms.apply_corruption(stages[-1], **experiment._corruption_args(cor, i, 42)))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["corruption_stages"][3]["affected"] == 0
    assert len(report["mi_by_stage"]) == len(stages)
    for entry, ds in zip(report["mi_by_stage"], stages):
        embedded = ms.transform(ms.fit_pca(ds, 4), ds)
        assert entry["global_mi"] == ms.score_dataset(embedded, 3).global_mi


_INPUT_NOISE = {
    "gaussian": {"kind": "gaussian", "fraction": 0.4, "noise_factor": 0.9},
    "affine_strong": {"kind": "affine_strong", "fraction": 0.4},
    "affine_mild": {"kind": "affine_mild", "fraction": 0.4},
    "label_flip": {"kind": "label_flip", "rate": 0.3},
}


@pytest.mark.parametrize("kinds, on_raw, fits", [
    # noise_onehot's corruptions: stages 0-2 are read again by the next
    # warp, so only the last stage's split is embedded in place
    (["gaussian", "affine_strong", "affine_mild"], False, ["copy"] * 3 + ["in place"]),
    (["gaussian", "affine_strong", "affine_mild"], True, ["copy"] * 4),
    # a label flip reads no features
    (["gaussian", "label_flip"], False, ["copy", "in place"]),
    (["label_flip", "affine_mild", "label_flip"], True, ["copy"] * 2),
    (["label_flip"], False, ["in place"]),
])
def test_a_split_is_embedded_in_place_only_when_nothing_reads_it_raw_later(
        tmp_path, monkeypatch, kinds, on_raw, fits):
    dataset = _small_dataset("synthetic_images", num_classes=4, per_class_count=20,
                             height=8, width=8)
    cfg = base_config(dataset=dataset, corruptions=[_INPUT_NOISE[kind] for kind in kinds])
    cfg["classifier"]["on_raw_features"] = on_raw
    calls, copied = [], []
    real_fit_pca, real_in_place = experiment.fit_pca, experiment.fit_pca_in_place

    def recording_fit_pca(ds, *args, **kwargs):
        calls.append("copy")
        copied.append((ds.features, ds.features.copy()))
        return real_fit_pca(ds, *args, **kwargs)

    def recording_in_place(*args, **kwargs):
        calls.append("in place")
        return real_in_place(*args, **kwargs)

    def copying_in_place(ds, d, whiten=False):
        model = real_fit_pca(ds, d, whiten=whiten)
        return model, experiment.transform(model, ds)

    monkeypatch.setattr(experiment, "fit_pca", recording_fit_pca)
    monkeypatch.setattr(experiment, "fit_pca_in_place", recording_in_place)
    run_experiment(cfg, out_dir=tmp_path / "in_place")
    assert calls == fits
    # a split that a later step reads is fitted on a copy and left as it was
    assert all(np.array_equal(features, copy) for features, copy in copied)
    # fitted on copies throughout, the run writes the same bytes
    monkeypatch.setattr(experiment, "fit_pca_in_place", copying_in_place)
    run_experiment(cfg, out_dir=tmp_path / "copies")
    assert read_tree(tmp_path / "in_place") == read_tree(tmp_path / "copies")


def test_six_stacked_affine_corruptions_keep_every_provenance_tag(tmp_path):
    kinds = ["affine_strong", "affine_mild"] * 3
    dataset = _small_dataset("synthetic_images", num_classes=4, per_class_count=20,
                             height=8, width=8)
    cfg = base_config(dataset=dataset,
                      corruptions=[{"kind": kind, "fraction": 1.0} for kind in kinds])
    run_experiment(cfg, out_dir=tmp_path, through="score")
    rows = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    # every sample carries all six tags, 83 characters
    assert {row.split(",")[3] for row in rows} == {"+".join(kinds)}


def _traced_peak(cfg, through="score"):
    tracemalloc.start()
    try:
        run_experiment(cfg, through=through)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_corruption_count():
    """Each stage is corrupted, fitted and scored before the next corruption
    runs, so only one stage's raw training features stay live."""
    dataset = _small_dataset("synthetic_images", num_classes=6, per_class_count=60,
                             height=16, width=16)

    def config(kinds):
        corruptions = [{"kind": kind, "fraction": 0.5, "noise_factor": 0.3} for kind in kinds]
        return base_config(dataset=dataset, corruptions=corruptions)

    one = config(["affine_strong"])
    run_experiment(one, through="score")  # imports and first-call caches stay out of the peaks
    raw_bytes = 270 * 16 * 16 * 8  # N_train: 360 samples less a test split of 90
    # keeping every stage's features would add two more copies: 2 * raw_bytes
    assert (_traced_peak(config(["affine_strong", "gaussian", "affine_mild"]))
            <= _traced_peak(one) + 0.25 * raw_bytes)


# (_CHUNK, dim) float64 arrays that one chunk of corrupted samples holds at
# most, by kind: for an affine warp the chunk's features, _warp_images' rel
# and src (two each), sx and sy; _bilinear_sample's x0, y0, fx, fy,
# zero-padded stack (under two from 12x12 images up), corner and out, and
# four temporaries of its corner loop. Gaussian noise holds four
_CHUNK_ARRAYS = {"gaussian": 4, "affine_strong": 20, "affine_mild": 20, "label_flip": 0}
# the interpreter's own objects and the run's per-sample arrays (the
# embedded split, labels, provenance tags, the scorer's radii and counts),
# under 256 KiB at these sizes; the test split is larger than this
_SMALL_BYTES = 256 * 1024


def _check_readme_peak_formula(monkeypatch, dataset, kinds, on_raw):
    """Hold the traced peak of a run through the classifier stage to README's
    formula: the largest of its phases, the name of which is returned. The
    test split is built in the classifier stage, after every fit, so it adds
    nothing to a fit, a corruption or the scoring. The cells' own training
    is left out, as it is from the formula. tracemalloc counts numpy's
    arrays, not where the C heap puts them."""
    monkeypatch.setattr(experiment, "_cell_accuracy", lambda retained, *inputs: 0.0)
    cfg = base_config(dataset=dataset, corruptions=[_INPUT_NOISE[kind] for kind in kinds])
    cfg["classifier"]["on_raw_features"] = on_raw
    # imports and first-call caches stay out of the peak
    sizes = run_experiment(cfg, through="train").data["dataset"]
    n_train, n_test, dim = sizes["n_train"], sizes["n_test"], sizes["dim"]
    train, test = n_train * dim * 8, n_test * dim * 8
    input_noise = any(KINDS[kind].reads_features for kind in kinds)
    later_reader = input_noise or on_raw  # a step after the first fit reads the raw split
    # the covariance, dsyevd's work and iwork, and numpy.linalg.eigh's copy
    # of the covariance and its eigenvectors where no dsyevd runs in place
    fit = 8 * (dim * dim + (1 + 6 * dim + 2 * dim * dim) + (3 + 5 * dim))
    if _lapack.dsyevd_symbol() is None:
        fit += 2 * dim * dim * 8
    phases = {
        # the split it reads, the split it writes and one chunk's temporaries
        "input corruption": input_noise * (
            2 * train + max(_CHUNK_ARRAYS[kind] for kind in kinds) * _CHUNK * dim * 8),
        # a centred copy and the covariance, while a later step reads the split
        "fit on a copy": later_reader * (2 * train + dim * dim * 8),
        "eigensolver": train + fit,
        # the sweep's two float64 buffers and its bool one, 17 bytes an element
        "scoring": later_reader * train + 17 * min(n_train**2, neighbors.BLOCK_BYTES // 8),
        # the classifier stage builds the test split, beside the raw training
        # split under on_raw_features, with two (_GENERATE_CHUNK, dim) arrays
        # of image painting; a classifier on embedded features then holds it
        # beside its projection's centred temporary
        "test split": on_raw * train + test + 2 * _GENERATE_CHUNK * dim * 8,
        "test projection": (not on_raw) * 2 * test,
    }
    assert _traced_peak(cfg, through="train") <= max(phases.values()) + _SMALL_BYTES
    return max(phases, key=phases.get)


@pytest.mark.parametrize("side", [12, 16])
@pytest.mark.parametrize("kinds, on_raw", [
    (["label_flip"], False),
    (["gaussian", "label_flip"], False),
    (["affine_strong", "affine_mild", "affine_strong"], False),
    (["gaussian", "affine_strong", "gaussian"], False),
    (["label_flip"], True),
])
@pytest.mark.parametrize("bundled_dsyevd", [True, False])
def test_traced_peak_stays_within_the_readme_peak_formula(
        monkeypatch, side, kinds, on_raw, bundled_dsyevd):
    """The peak is that of the phase that sets it, as README's formula
    gives it."""
    if not bundled_dsyevd:
        monkeypatch.setattr(_lapack, "_bundled_dsyevd", lambda: (None, None))
    dataset = _small_dataset("synthetic_images", num_classes=6, per_class_count=120,
                             height=side, width=side, test_fraction=0.5)
    _check_readme_peak_formula(monkeypatch, dataset, kinds, on_raw)


@pytest.mark.parametrize("kinds", [["label_flip"], ["gaussian", "label_flip"]])
@pytest.mark.parametrize("on_raw", [False, True])
def test_traced_peak_of_a_large_test_split_stays_within_the_classifier_term(
        monkeypatch, kinds, on_raw):
    """A test split four times the training split sets the peak in the
    classifier stage, where README's formula bounds it."""
    dataset = _small_dataset("synthetic_images", num_classes=6, per_class_count=200,
                             height=12, width=12, test_fraction=0.8)
    phase = "test split" if on_raw else "test projection"
    assert _check_readme_peak_formula(monkeypatch, dataset, kinds, on_raw) == phase


@pytest.mark.parametrize("batch_size", [None, 400])
def test_traced_peak_of_a_raw_feature_cell_stays_within_the_cell_term(monkeypatch,
                                                                       batch_size):
    """One grid cell under on_raw_features, in-process, traced from its call
    to its accuracy: the peak is README's cell term. Training holds one
    design matrix of the retained rows beside the larger of the 256-row
    gather chunk and a mini-batch's copy of its rows, the softmax buffers
    of the retained rows and of a batch, and the weights, the step and the
    gradient's temporaries, eight (C, dim + 1) arrays at most; evaluating
    holds one design matrix of the test split."""
    real_cell = experiment._cell_accuracy
    peaks = []

    def traced_cell(retained, *inputs):
        real_cell(retained, *inputs)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            accuracy = real_cell(retained, *inputs)
            peaks.append((len(retained), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return accuracy

    monkeypatch.setattr(experiment, "_cell_accuracy", traced_cell)
    dataset = _small_dataset("synthetic_images", num_classes=6, per_class_count=200,
                             height=28, width=28)
    cfg = base_config(dataset=dataset, selection={
        "plans": [{"scope": "global", "band": "top"}], "ratios": [0.5]})
    cfg["classifier"].update(epochs=3, batch_size=batch_size, on_raw_features=True)
    sizes = run_experiment(cfg, through="train").data["dataset"]
    n_test, dim, classes = sizes["n_test"], sizes["dim"], sizes["num_classes"]
    [(n, peak)] = peaks
    rows, batch = (256, 0) if batch_size is None else (max(256, batch_size), batch_size)
    training = ((n + rows) * (dim + 1) * 8 + (3 * classes + 2) * (n + batch) * 8
                + 8 * classes * (dim + 1) * 8)
    evaluating = n_test * (dim + 1) * 8
    assert n * (dim + 1) * 8 < peak <= max(training, evaluating) + _SMALL_BYTES


def test_stage_error_quarantines_partial_outputs(tmp_path):
    cfg = base_config()
    # the first gradient step overflows the loss
    cfg["classifier"]["learning_rate"] = 1e300
    with pytest.raises(StageError) as err:
        run_experiment(cfg, out_dir=tmp_path)
    assert err.value.stage == "classifier"
    assert (tmp_path / "quarantine" / "scores.csv").exists()
    assert not (tmp_path / "scores.csv").exists()


def _selection_files():
    return [
        f"selection/global-{band}_r{ratio}.{ext}"
        for band in ("top", "random") for ratio in ("0.5", "1") for ext in ("json", "idx")
    ]


# stage -> (experiment callee that only this stage uses, files earlier stages wrote)
_FAULTS = {
    "dataset": ("generate_synthetic", []),
    "corruption": ("apply_corruption", []),
    "scoring": ("score_dataset", []),
    "selection": ("select", ["scores.csv", "mi_summary.json"]),
    "classifier": ("train", ["scores.csv", "mi_summary.json", *_selection_files()]),
    "report": ("write_atomic", ["scores.csv", "mi_summary.json", *_selection_files(),
                               "accuracy.csv"]),
}


@pytest.mark.parametrize("stage", list(_FAULTS))
def test_fault_at_each_stage_boundary_quarantines_earlier_outputs(
    tmp_path, monkeypatch, capsys, stage
):
    callee, earlier = _FAULTS[stage]
    original = getattr(experiment, callee)

    def faulty(*args, **kwargs):
        if callee != "write_atomic" or Path(args[0]).name == "report.json":
            raise ms.MiselectError("injected fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, callee, faulty)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    out = tmp_path / "out"
    # two workers: a fault raised inside a grid-cell worker surfaces the same way
    argv = ["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out), "--threads", "2"]
    assert cli_main(argv) == 1
    assert f"[stage:{stage}]" in capsys.readouterr().err
    _assert_quarantined(out, earlier)


@pytest.mark.parametrize("name, stage, earlier", [
    ("scores.csv", "scoring", []),
    ("selection/global-top_r0.5.json", "selection",
     ["scores.csv", "mi_summary.json", "selection/global-top_r0.5.idx"]),
    ("report.json", "report", _FAULTS["report"][1]),
])
def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys,
                                                  name, stage, earlier):
    """A write that stops halfway, as on a full disk, leaves neither a partial
    file nor its temporary file; the files written before it still move to
    quarantine/."""
    out = tmp_path / "out"
    temporary = f"{out / name}."

    class HalfWritten:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            self.f.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def interrupting_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return HalfWritten(f) if str(path).startswith(temporary) else f

    monkeypatch.setattr(_util, "open", interrupting_open, raising=False)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"[stage:{stage}]" in err and "No space left on device" in err
    assert not (out / name).exists()
    assert list(out.rglob("*.tmp")) == []
    _assert_quarantined(out, earlier)


@pytest.mark.parametrize("callee, stage, scored", [
    ("apply_corruption", "corruption", 2),
    ("score_dataset", "scoring", 1),
])
def test_second_stage_fault_keeps_its_stage_tag(tmp_path, monkeypatch, capsys,
                                                callee, stage, scored):
    """Corruption and scoring alternate stage by stage: the second call of
    either fails after the stages before it were scored, tagged with its own
    stage. Their cache entries stay; no output file was written yet."""
    original = getattr(experiment, callee)
    calls = []

    def faulty_on_second_call(*args, **kwargs):
        calls.append(callee)
        if len(calls) == 2:
            raise ms.MiselectError("injected fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, callee, faulty_on_second_call)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2},
                                   {"kind": "label_flip", "rate": 0.3}])
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"[stage:{stage}]" in err
    assert "Traceback" not in err
    assert len(list((out / "cache").glob("scores-*.json"))) == scored
    assert not (out / "scores.csv").exists()
    _assert_quarantined(out, [])


@pytest.mark.parametrize("callee, error, stage", [
    ("generate_synthetic", MemoryError, "dataset"),
    ("apply_corruption", OverflowError, "corruption"),
    ("select", MemoryError, "selection"),
    ("train", OverflowError, "classifier"),
])
def test_memory_and_overflow_errors_are_stage_failures(tmp_path, monkeypatch, capsys,
                                                       callee, error, stage):
    """A step that cannot allocate, stubbed here rather than made to try,
    fails its stage and quarantines what the run wrote."""
    def failing(*args, **kwargs):
        raise error()

    monkeypatch.setattr(experiment, callee, failing)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"[stage:{stage}] {error.__name__}" in err
    assert "Traceback" not in err
    _assert_quarantined(out, _FAULTS[stage][1])


def _negative_idx_config(tmp_path):
    """Image files whose count -1 and rows -28 multiply to the 784 bytes they hold."""
    cfg = _idx_config(tmp_path)
    Path(cfg["dataset"]["train_images"]).write_bytes(
        struct.pack(">iiii", 0x00000803, -1, -28, 28) + bytes(784))
    return cfg


def _huge_config(tmp_path):
    """Within what one array can address, but past any address space: the
    allocation fails at once, without touching memory."""
    cfg = base_config()
    cfg["dataset"]["per_class_count"] = 10**15
    return cfg


def _far_means_config(tmp_path):
    cfg = base_config()
    cfg["dataset"]["class_separation"] = 1e308
    return cfg


@pytest.mark.parametrize("make_config, stage", [
    (_negative_idx_config, "dataset"),
    (_huge_config, "dataset"),
    (_far_means_config, "scoring"),
])
def test_valid_configs_whose_data_cannot_be_built_or_embedded_fail_a_stage(
    tmp_path, capsys, make_config, stage
):
    path = _write_cfg(tmp_path, make_config(tmp_path))
    assert cli_main(["validate", "--config", path]) == 0
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"[stage:{stage}]" in err
    assert "Traceback" not in err


def _assert_quarantined(out, earlier):
    quarantine = out / "quarantine"
    quarantined = sorted(p.name for p in quarantine.rglob("*")) if quarantine.exists() else []
    assert quarantined == sorted(Path(name).name for name in earlier)
    for name in earlier:
        assert not (out / name).exists()


def test_dead_grid_cell_worker_is_a_classifier_stage_failure(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def dying_train(*args, **kwargs):
        assert os.getpid() != parent, "a grid cell ran in the parent process"
        os._exit(3)

    monkeypatch.setattr(experiment, "train", dying_train)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    out = tmp_path / "out"
    argv = ["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out), "--threads", "2"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "[stage:classifier]" in err
    assert "Traceback" not in err
    _assert_quarantined(out, _FAULTS["classifier"][1])


def _alive(pid):
    """True while ``pid`` runs; a zombie counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_grid_cell_workers_exit_when_the_run_is_killed(tmp_path):
    pid_log, config = tmp_path / "pids", tmp_path / "config.json"
    config.write_text(json.dumps(base_config()))
    script = tmp_path / "hanging_grid.py"
    script.write_text(
        "import os, time\n"
        "from miselect import experiment\n"
        "def hanging_train(*args, **kwargs):\n"
        f"    with open({str(pid_log)!r}, 'a') as f:\n"
        "        f.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(600)\n"
        "experiment.train = hanging_train\n"
        f"experiment.run_experiment({str(config)!r}, out_dir={str(tmp_path / 'out')!r},\n"
        "                          threads=2, through='train')\n"
    )
    src = str(Path(experiment.__file__).resolve().parents[1])
    run = subprocess.Popen([sys.executable, str(script)], env={**os.environ, "PYTHONPATH": src})
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2 and time.monotonic() < deadline and run.poll() is None:
            time.sleep(0.05)
            pids = [int(p) for p in pid_log.read_text().split()] if pid_log.exists() else []
        assert len(pids) == 2, "both workers should be inside a cell"
        run.kill()
        run.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
    finally:
        if run.poll() is None:
            run.kill()
            run.wait(timeout=30)
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


def _idx_config(tmp_path):
    """base_config on IDX files written under ``tmp_path``."""
    ds = ms.generate_pattern_images(3, 30, height=8, width=8, seed=5)
    train, test = ms.train_test_split(ds, 0.3, seed=1)
    paths = {}
    for name, part in (("train", train), ("test", test)):
        img, lab = write_idx_pair(tmp_path, np.rint(part.features * 255.0), part.labels,
                                  rows=8, cols=8, prefix=f"{name}-")
        paths[name] = (str(img), str(lab))
    cfg = base_config()
    cfg["dataset"] = {
        "type": "idx",
        "train_images": paths["train"][0],
        "train_labels": paths["train"][1],
        "test_images": paths["test"][0],
        "test_labels": paths["test"][1],
    }
    cfg["embedding"]["dim"] = 6
    return cfg


def test_idx_dataset_source(tmp_path):
    report = run_experiment(_idx_config(tmp_path), out_dir=tmp_path / "out", through="train")
    assert len(report.accuracy) == 4


def test_idx_file_gone_after_validation_is_a_dataset_stage_failure(tmp_path, monkeypatch,
                                                                    capsys):
    cfg = _idx_config(tmp_path)
    real_load_idx = experiment.load_idx

    def load_after_removal(images_path, labels_path):
        Path(images_path).unlink()
        return real_load_idx(images_path, labels_path)

    monkeypatch.setattr(experiment, "load_idx", load_after_removal)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "[stage:dataset]" in capsys.readouterr().err
    assert not out.exists()


def _image_dims(raw, rows, cols):
    """An IDX image file's bytes with its images cut to ``rows`` x ``cols``."""
    count = struct.unpack(">i", raw[4:8])[0]
    return raw[:8] + struct.pack(">ii", rows, cols) + raw[16:16 + count * rows * cols]


# test-split file -> (edit of its bytes, the dataset stage's diagnostic)
_BROKEN_TEST_FILES = {
    "truncated": ("test_images", lambda raw: raw[:-3], "truncated pixel data"),
    "truncated_header": ("test_images", lambda raw: raw[:7], "truncated file"),
    "trailing_bytes": ("test_images", lambda raw: raw + b"\0\0", "2 trailing bytes"),
    "bad_magic": ("test_images", lambda raw: struct.pack(">i", 0x999) + raw[4:],
                  "bad image magic"),
    "bad_dimensions": ("test_images", lambda raw: _image_dims(raw, 0, 8),
                       "dimensions [27, 0, 8] must be positive"),
    "count_mismatch": ("test_labels", lambda raw: raw[:4] + struct.pack(">i", len(raw) - 7)
                       + raw[8:] + b"\0", "does not match label count"),
    "other_dim": ("test_images", lambda raw: _image_dims(raw, 7, 8), "inconsistent"),
    # the training pair's 64 pixels an image, as 4 x 16 rather than 8 x 8
    "other_shape": ("test_images", lambda raw: _image_dims(raw, 4, 16), "inconsistent"),
    "other_class_count": ("test_labels", lambda raw: raw[:-1] + bytes([3]), "inconsistent"),
}


@pytest.mark.parametrize("broken", list(_BROKEN_TEST_FILES))
def test_broken_idx_test_split_is_a_dataset_stage_failure(tmp_path, capsys, broken):
    """The test split's pixels are read only in the classifier stage, but a
    test file that cannot give the split still fails the dataset stage,
    before any file is written."""
    cfg = _idx_config(tmp_path)
    which, edit, message = _BROKEN_TEST_FILES[broken]
    path = Path(cfg["dataset"][which])
    path.write_bytes(edit(path.read_bytes()))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[stage:dataset]" in err and message in err
    assert not out.exists()


def test_idx_test_split_changed_after_the_dataset_stage_fails_the_run(tmp_path, monkeypatch,
                                                                      capsys):
    cfg = _idx_config(tmp_path)
    path = Path(cfg["dataset"]["test_images"])
    real_fit = experiment.fit_pca_in_place

    def fit_then_cut(*args, **kwargs):
        path.write_bytes(_image_dims(path.read_bytes(), 7, 8))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_pca_in_place", fit_then_cut)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "since it was opened" in capsys.readouterr().err
    assert not (out / "scores.csv").exists()


def test_idx_test_split_truncated_after_the_dataset_stage_fails_the_run(tmp_path, monkeypatch,
                                                                        capsys):
    """The header still reads as opened, but the pixels run short: an
    IoError of the classifier stage, which reads them, not a reshape
    traceback."""
    cfg = _idx_config(tmp_path)
    path = Path(cfg["dataset"]["test_images"])
    real_fit = experiment.fit_pca_in_place

    def fit_then_truncate(*args, **kwargs):
        path.write_bytes(path.read_bytes()[:-3])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_pca_in_place", fit_then_truncate)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[stage:classifier]" in err and "truncated pixel data" in err
    assert "Traceback" not in err
    assert not (out / "scores.csv").exists()


def test_idx_test_labels_rewritten_after_the_dataset_stage_leave_the_outputs(tmp_path,
                                                                             monkeypatch):
    """The run evaluates on the test labels the dataset stage read and checked."""
    cfg = _idx_config(tmp_path)
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "cold")]) == 0
    labels = Path(cfg["dataset"]["test_labels"])
    real_fit = experiment.fit_pca_in_place

    def fit_then_relabel(*args, **kwargs):
        raw = labels.read_bytes()
        labels.write_bytes(raw[:8] + bytes((b + 1) % 3 for b in raw[8:]))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_pca_in_place", fit_then_relabel)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert read_tree(tmp_path / "out") == read_tree(tmp_path / "cold")


def test_idx_test_pair_without_the_top_class_is_a_test_set(tmp_path, capsys):
    """Test labels need only lie below the training pair's class count; a
    test label at or past it stays a dataset stage failure (see
    _BROKEN_TEST_FILES' other_class_count)."""
    cfg = _idx_config(tmp_path)
    path = Path(cfg["dataset"]["test_labels"])
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + bytes(b % 2 for b in raw[8:]))  # classes 0 and 1 of 3
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"]["num_classes"] == 3
    assert len(report["accuracy"]) == 4


def test_pattern_image_dataset_with_affine(tmp_path):
    cfg = base_config()
    cfg["dataset"] = {
        "type": "synthetic_images",
        "num_classes": 4,
        "per_class_count": 30,
        "height": 10,
        "width": 10,
        "test_fraction": 0.25,
    }
    cfg["embedding"]["dim"] = 6
    cfg["corruptions"] = [{"kind": "affine_strong", "fraction": 0.3}]
    report = run_experiment(cfg, out_dir=tmp_path, through="score")
    lines = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    tagged = [line for line in lines if "affine_strong" in line.split(",")[3]]
    assert len(tagged) == round(0.3 * len(lines))


def test_explicit_affine_params_reach_the_warp(tmp_path):
    identity = {"rotation_deg": 0, "shear_deg": 0, "translate_frac": 0, "scale_range": [1, 1]}
    dataset = _small_dataset("synthetic_images", num_classes=4, per_class_count=30,
                             height=10, width=10)
    cfg = base_config(dataset=dataset, corruptions=[
        {"kind": "affine_strong", "fraction": 0.3, "params": identity}])
    cfg["embedding"]["dim"] = 6
    report = run_experiment(cfg, out_dir=tmp_path, through="score")
    # the identity warp leaves every pixel as it is; the strong preset would move the MI
    clean, warped = report.data["mi_by_stage"]
    assert warped["global_mi"] == clean["global_mi"]
    lines = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    tagged = [line for line in lines if line.split(",")[3] == "affine_strong"]
    assert len(tagged) == round(0.3 * len(lines))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.skipif(sys.platform != "linux", reason="the C locale's encoding is ASCII on Linux")
def test_config_is_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON's encoding is UTF-8 (RFC 8259); under the C locale, without
    # coercion or UTF-8 mode, open() decodes as ASCII
    out = tmp_path / "résultats"
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(base_config(output_dir=str(out)), ensure_ascii=False).encode())
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "miselect.cli", *argv, "--config", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)

    assert cli("validate").returncode == 0
    ran = cli("run", "--out", str(tmp_path / "out"))
    assert ran.returncode == 0, ran.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["output_dir"] == str(out)
    # an ASCII file system encoding cannot name the config's own output path
    ran = cli("run")
    assert ran.returncode == 1 and "[stage:" in ran.stderr and "Traceback" not in ran.stderr
    assert not out.exists()


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, base_config())
    assert cli_main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_idx_path_that_is_a_directory_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["dataset"] = {"type": "idx", **dict.fromkeys(
        ("train_images", "train_labels", "test_images", "test_labels"), str(tmp_path))}
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    assert "dataset.train_images: no regular file at" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_unusable_output_path_is_a_stage_failure(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["run", "--config", _write_cfg(tmp_path, base_config()), "--out", str(blocker / "out")]
    assert cli_main(argv) == 1
    assert "[stage:scoring]" in capsys.readouterr().err


def test_quarantine_that_cannot_be_made_keeps_the_stage_error(tmp_path):
    cfg = base_config()
    cfg["classifier"]["learning_rate"] = 1e300  # the first gradient step overflows
    (tmp_path / "quarantine").write_text("")  # a file where the directory would go
    with pytest.raises(StageError) as err:
        run_experiment(cfg, out_dir=tmp_path)
    assert err.value.stage == "classifier"
    assert (tmp_path / "scores.csv").exists()


def test_cli_validate_bad(tmp_path, capsys):
    cfg = base_config()
    cfg["selection"]["ratios"] = [2.0]
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    assert "selection.ratios[0]" in capsys.readouterr().err


def test_cli_score_and_run(tmp_path, capsys):
    path = _write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli_main(["score", "--config", path, "--out", str(out)]) == 0
    assert (out / "scores.csv").exists()
    assert not (out / "accuracy.csv").exists()
    out2 = tmp_path / "out2"
    assert cli_main(["run", "--config", path, "--out", str(out2), "--threads", "2"]) == 0
    assert (out2 / "report.json").exists()
    assert (out2 / "accuracy.csv").exists()
    printed = capsys.readouterr().out
    assert "global MI" in printed


def test_cli_select_and_train_prefixes(tmp_path):
    path = _write_cfg(tmp_path, base_config())
    out = tmp_path / "sel"
    assert cli_main(["select", "--config", path, "--out", str(out)]) == 0
    assert (out / "selection").is_dir()
    assert not (out / "accuracy.csv").exists()
    out2 = tmp_path / "tr"
    assert cli_main(["train", "--config", path, "--out", str(out2)]) == 0
    assert (out2 / "accuracy.csv").exists()
    assert not (out2 / "report.json").exists()


def test_cli_stage_error_exit_code(tmp_path, capsys):
    cfg = base_config()
    cfg["classifier"]["learning_rate"] = 1e300
    path = _write_cfg(tmp_path, cfg)
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "[stage:classifier]" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    cfg = base_config()
    cfg["dataset"]["class_separation"] = 3.0
    path = _write_cfg(tmp_path, cfg)
    cli_main(["score", "--config", path, "--out", str(tmp_path / "a")])
    cli_main(["score", "--config", path, "--out", str(tmp_path / "b"), "--seed", "7"])
    cli_main(["score", "--config", path, "--out", str(tmp_path / "c"), "--seed", "7"])
    a = (tmp_path / "a/scores.csv").read_bytes()
    b = (tmp_path / "b/scores.csv").read_bytes()
    c = (tmp_path / "c/scores.csv").read_bytes()
    assert a != b and b == c


def test_cli_embedding_dim_beyond_the_data_exits_2(tmp_path, capsys):
    cfg = base_config(dataset=_small_dataset("synthetic", dim=3), embedding={"dim": 8})
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    assert "embedding.dim" in capsys.readouterr().err
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "invalid config: embedding.dim" in err
    assert "[stage:" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "dataset, flagged",
    [
        # 2 classes in dim 3 need a (2, 3) class_means
        (_small_dataset("synthetic", dim=3, class_means=[[0, 0]]), "dataset.class_means"),
        (_small_dataset("synthetic", dim=2, class_means=[[0, 0], [1]]), "dataset.class_means"),
        # class_separation puts each class mean on its own axis
        (_small_dataset("synthetic", num_classes=4, dim=3), "dataset.dim"),
        (_small_dataset("synthetic", dim=2, class_means=[[1, 0], [1.0, 0.0]]),
         "dataset.class_means"),
        # JSON NaN parses, and would make every feature of its class NaN
        (_small_dataset("synthetic", dim=2, class_means=[[float("nan"), 0], [1, 0]]),
         "dataset.class_means"),
    ],
    ids=["means-shape", "means-ragged", "separation-dim", "means-coincide", "means-nan"],
)
def test_cli_synthetic_means_the_dataset_rejects_exit_2(tmp_path, capsys, dataset, flagged):
    path = _write_cfg(tmp_path, base_config(dataset=dataset, embedding={"dim": 2}))
    assert cli_main(["validate", "--config", path]) == 2
    assert flagged in capsys.readouterr().err
    out = tmp_path / "o"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 2
    assert "[stage:" not in capsys.readouterr().err
    assert not out.exists()


# a shift wider than the image side leaves the shifted template nowhere to go
@pytest.mark.parametrize("fields", [{"height": 6, "width": 6, "jitter_px": 9},
                                    {"height": 6, "width": 6, "jitter_px": 7},
                                    {"height": 9, "width": 6, "jitter_px": 7},
                                    {"jitter_px": 13}],
                         ids=["9-on-6x6", "7-on-6x6", "7-on-9x6", "13-on-default-12x12"])
def test_cli_jitter_wider_than_the_image_exits_2(tmp_path, capsys, fields):
    path = _write_cfg(tmp_path, base_config(dataset=_small_dataset("synthetic_images", **fields)))
    assert cli_main(["validate", "--config", path]) == 2
    assert "dataset.jitter_px" in capsys.readouterr().err
    out = tmp_path / "o"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config: dataset.jitter_px" in err
    assert "Traceback" not in err and "[stage:" not in err
    assert not out.exists()


def test_jitter_equal_to_the_image_side_runs(tmp_path):
    dataset = _small_dataset("synthetic_images", height=6, width=6, jitter_px=6)
    cfg = base_config(dataset=dataset)
    assert validate_config(cfg) == []
    run_experiment(cfg, out_dir=tmp_path / "o", through="score")
    assert (tmp_path / "o" / "scores.csv").exists()


# JSON NaN and Infinity parse, and every order comparison with NaN is false
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "section, key",
    [("dataset", "class_stddev"), ("dataset", "class_separation"),
     ("classifier", "learning_rate"), ("classifier", "l2"),
     ("estimator", "label_scale"), ("corruptions", "noise_factor")],
)
def test_cli_non_finite_number_exits_2(tmp_path, capsys, section, key, value):
    cfg = base_config()
    if section == "corruptions":
        cfg["corruptions"] = [{"kind": "gaussian", "noise_factor": value, "fraction": 0.2}]
        flagged = "corruptions[0].noise_factor"
    else:
        cfg[section][key] = value
        flagged = f"{section}.{key}"
    violations = validate_config(cfg)
    assert any(v.startswith(flagged) for v in violations), violations
    out = tmp_path / "o"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "[stage:" not in capsys.readouterr().err
    assert not out.exists()


def test_validate_accepts_synthetic_means_of_the_right_shape():
    dataset = _small_dataset("synthetic", dim=2, class_means=[[0, 0], [1, 0]])
    assert validate_config(base_config(dataset=dataset, embedding={"dim": 2})) == []
    dataset = _small_dataset("synthetic", num_classes=3, dim=3)
    assert validate_config(base_config(dataset=dataset, embedding={"dim": 2})) == []


def test_cli_empty_test_split_exits_2(tmp_path, capsys):
    # N = 20 and round_half_even(0.01 * 20) = 0: the test split would be empty
    cfg = base_config(dataset=_small_dataset("synthetic", test_fraction=0.01))
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    assert "dataset.test_fraction" in capsys.readouterr().err
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "[stage:" not in capsys.readouterr().err


# a stage would fail each of these with exit code 1, so validate rejects them
@pytest.mark.parametrize(
    "dataset, corruptions, flagged",
    [
        # a synthetic dataset has no image shape to warp
        (_small_dataset("synthetic"), [{"kind": "affine_mild", "fraction": 0.2}],
         "corruptions[0].kind"),
        (_small_dataset("synthetic"), [{"kind": "affine_strong", "fraction": 0.0}],
         "corruptions[0].kind"),
        # gaussian noise needs pixel values in [0, 1]; blob features fall outside
        (_small_dataset("synthetic"), [{"kind": "gaussian", "noise_factor": 0.5,
                                         "fraction": 0.2}], "corruptions[0].kind"),
        # a flipped label must move to another class
        (_small_dataset("synthetic", num_classes=1), [{"kind": "label_flip", "rate": 0.2}],
         "corruptions[0].rate"),
        (_small_dataset("synthetic_images", num_classes=1),
         [{"kind": "label_flip", "rate": 0.2}], "corruptions[0].rate"),
        # N = 6: the test split takes round_half_even(1.5) = 2, and N_train = 4 < k + 2
        (_small_dataset("synthetic", per_class_count=3), [], "estimator.k"),
    ],
    ids=["affine-mild-on-synthetic", "affine-strong-on-synthetic", "gaussian-on-synthetic",
         "flip-one-class", "flip-one-class-images", "k-above-n-train"],
)
def test_cli_config_a_stage_would_reject_exits_2(tmp_path, capsys, dataset, corruptions,
                                                 flagged):
    cfg = base_config(dataset=dataset, corruptions=corruptions)
    violations = validate_config(cfg)
    assert any(v.startswith(flagged) for v in violations), violations
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    assert flagged in capsys.readouterr().err
    out = tmp_path / "o"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config: " + flagged in err
    assert "Traceback" not in err and "[stage:" not in err
    assert not out.exists()


def test_cli_ratio_rounding_to_an_empty_selection_exits_2(tmp_path, capsys):
    # N_train = 120: round_half_even(0.48) = 0 and round_half_even(0.6) = 1
    cfg = base_config()
    cfg["selection"]["ratios"] = [0.005, 0.004]
    assert validate_config(cfg) == [
        "selection.ratios[1]: 0.004 of N_train=120 rounds to an empty training set"]
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 2
    out = tmp_path / "o"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config: selection.ratios[1]" in err and "[stage:" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "dataset, corruptions, estimator",
    [
        (_small_dataset("synthetic", per_class_count=3), [], {"k": 2}),
        (_small_dataset("synthetic", num_classes=1), [{"kind": "label_flip", "rate": 0.0}],
         {"k": 3}),
    ],
    ids=["k-equal-to-n-train-minus-2", "flip-rate-0-one-class"],
)
def test_configs_at_the_bounds_run(tmp_path, dataset, corruptions, estimator):
    cfg = base_config(dataset=dataset, corruptions=corruptions, estimator=estimator)
    assert validate_config(cfg) == []
    run_experiment(cfg, out_dir=tmp_path / "o", through="score")
    assert (tmp_path / "o" / "scores.csv").exists()


_MINIMAL = {
    "schema_version": 1,
    "dataset": {"type": "synthetic_images", "num_classes": 3, "per_class_count": 12},
    "corruptions": [{"kind": "label_flip", "rate": 0.2},
                    {"kind": "gaussian", "fraction": 0.3, "noise_factor": 0.5}],
    "selection": {"plans": [{"scope": "global", "band": "top"},
                            {"scope": "class_wise", "band": "random"}],
                  "ratios": [0.5, 1.0]},
}
_SPELLED_OUT = {
    "schema_version": 1,
    "seed": 0,
    "output_dir": None,
    "dataset": {"type": "synthetic_images", "num_classes": 3, "per_class_count": 12,
                "test_fraction": 0.25, "seed": None, "height": 12, "width": 12,
                "noise": 0.05, "jitter_px": 1},
    "embedding": {"dim": 16, "whiten": False},
    "corruptions": [
        {"kind": "label_flip", "rate": 0.2, "fraction": 0.0, "noise_factor": 0.0,
         "seed": None, "params": None},
        {"kind": "gaussian", "rate": 0.0, "fraction": 0.3, "noise_factor": 0.5,
         "seed": None, "params": None},
    ],
    "estimator": {"variant": "discrete_label", "k": 3, "strict": True, "label_scale": None,
                  "jitter_seed": None},
    "selection": _MINIMAL["selection"],
    "classifier": {"learning_rate": 0.1, "epochs": 300, "l2": 1e-4, "batch_size": None,
                   "seed": None, "on_raw_features": False},
}


def test_resolve_fills_every_default_and_leaves_its_input_alone():
    minimal = json.loads(json.dumps(_MINIMAL))
    assert experiment.resolve(minimal) == _SPELLED_OUT
    assert minimal == _MINIMAL
    assert experiment.resolve(_SPELLED_OUT) == _SPELLED_OUT
    blobs = _small_dataset("synthetic")
    assert experiment.resolve({"dataset": blobs})["dataset"] == {
        **blobs, "test_fraction": 0.25, "seed": None, "class_means": None}


def test_defaults_run_as_if_spelled_out(tmp_path):
    run_experiment(_MINIMAL, out_dir=tmp_path / "minimal")
    run_experiment(_SPELLED_OUT, out_dir=tmp_path / "spelled")
    minimal, spelled = read_tree(tmp_path / "minimal"), read_tree(tmp_path / "spelled")
    assert minimal.keys() == spelled.keys()
    reports = [json.loads(tree.pop("report.json")) for tree in (minimal, spelled)]
    assert minimal == spelled
    assert [r.pop("config") for r in reports] == [_MINIMAL, _SPELLED_OUT]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("problem", ["missing", "malformed"])
@pytest.mark.parametrize("with_out", [True, False])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, problem, with_out):
    path = tmp_path / "config.json"
    if problem == "malformed":
        path.write_text("{not json")
    argv = ["run", "--config", str(path)]
    if with_out:
        argv += ["--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    assert "no output directory" not in err
    assert not (tmp_path / "o").exists()


def test_cli_validate_unreadable_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_non_positive_threads_exits_2(tmp_path, capsys, threads):
    out = tmp_path / "o"
    argv = ["run", "--config", _write_cfg(tmp_path, base_config()), "--out", str(out),
            "--threads", threads]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: threads:")
    assert not out.exists()


@pytest.mark.parametrize("argv_tail", [["--seed", "-5"], []])
def test_cli_invalid_config_value_exits_2(tmp_path, capsys, argv_tail):
    cfg = base_config()
    if not argv_tail:
        cfg["classifier"]["seed"] = -1
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli_main(["run", "--config", path, "--out", str(out), *argv_tail]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "Traceback" not in err
    assert not out.exists()
