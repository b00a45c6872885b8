import json
from pathlib import Path

import numpy as np
import pytest

import miselect as ms
from miselect import experiment
from miselect.cli import main as cli_main
from miselect.errors import ConfigError, StageError
from miselect.experiment import run_experiment, stage_seed, validate_config


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
    assert validate_config(base_config(corruptions=_affine())) == []


def test_run_rejects_negative_seed_override(tmp_path):
    with pytest.raises(ConfigError, match="seed override"):
        run_experiment(base_config(), out_dir=tmp_path, seed_override=-5)
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


def test_rerun_is_byte_identical(tmp_path):
    cfg = base_config()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert sorted(a) == sorted(b)
    assert all(a[k] == b[k] for k in a)


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
        payload["local_scores"] = [0.0] * len(payload["local_scores"])
        entry.write_text(json.dumps(payload))
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in expected} == expected
    assert [entry.read_bytes() for entry in entries] == good


def test_package_version_change_misses_the_score_cache(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_experiment(base_config(), out_dir=out, through="score")
    expected = (out / "scores.csv").read_bytes()
    entries = set((out / "cache").glob("scores-*.json"))
    assert entries

    calls = []
    score_dataset = experiment.score_dataset

    def counting(*args, **kwargs):
        calls.append(1)
        return score_dataset(*args, **kwargs)

    monkeypatch.setattr(experiment, "score_dataset", counting)
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


def test_stage_error_quarantines_partial_outputs(tmp_path):
    cfg = base_config()
    # 0.004 of 120 training samples rounds to zero retained
    cfg["selection"]["ratios"] = [0.004]
    with pytest.raises(StageError) as err:
        run_experiment(cfg, out_dir=tmp_path)
    assert err.value.stage == "selection"
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
    "report": ("_write_json", ["scores.csv", "mi_summary.json", *_selection_files(),
                               "accuracy.csv"]),
}


@pytest.mark.parametrize("stage", list(_FAULTS))
def test_fault_at_each_stage_boundary_quarantines_earlier_outputs(
    tmp_path, monkeypatch, capsys, stage
):
    callee, earlier = _FAULTS[stage]
    original = getattr(experiment, callee)

    def faulty(*args, **kwargs):
        if callee != "_write_json" or Path(args[0]).name == "report.json":
            raise ms.MiselectError("injected fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, callee, faulty)
    cfg = base_config(corruptions=[{"kind": "label_flip", "rate": 0.2}])
    out = tmp_path / "out"
    assert cli_main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert f"[stage:{stage}]" in capsys.readouterr().err
    quarantine = out / "quarantine"
    quarantined = sorted(p.name for p in quarantine.rglob("*")) if quarantine.exists() else []
    assert quarantined == sorted(Path(name).name for name in earlier)
    for name in earlier:
        assert not (out / name).exists()


def test_idx_dataset_source(tmp_path):
    rng = np.random.default_rng(0)
    ds = ms.generate_pattern_images(3, 30, height=8, width=8, seed=5)
    train, test = ms.train_test_split(ds, 0.3, seed=1)
    paths = {}
    for name, part in (("train", train), ("test", test)):
        img = tmp_path / f"{name}-images.idx"
        lab = tmp_path / f"{name}-labels.idx"
        ms.save_idx(part, img, lab)
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
    report = run_experiment(cfg, out_dir=tmp_path / "out", through="train")
    assert len(report.accuracy) == 4


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


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, base_config())
    assert cli_main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


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
    cfg["selection"]["ratios"] = [0.004]
    path = _write_cfg(tmp_path, cfg)
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "[stage:selection]" in capsys.readouterr().err


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
