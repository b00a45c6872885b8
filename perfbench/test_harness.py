"""Self-test of the benchmark harness at a tiny size (seconds, not minutes).

    python3 -m pytest -q perfbench/test_harness.py

It is not part of the repository's test suite (pytest's testpaths name
only tests/). Only counts that do not depend on how a layer is implemented
are asserted.
"""

import copy
import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def tiny(name):
    workload = WORKLOADS[name]
    config = copy.deepcopy(workload.config)
    config["dataset"]["per_class_count"] = 40
    config["classifier"]["epochs"] = 5
    return dataclasses.replace(workload, config=config, frozen=None)


@pytest.fixture(scope="module")
def traced():
    return {name: run.measure(tiny(name), SEED, 0, trace=1)[0] for name in WORKLOADS}


def declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emitted(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_end_to_end_metrics_are_emitted_with_units():
    result, _ = run.measure(tiny("score_scale"), SEED, 0, trace=0)
    assert result["correct"] and result["attempted"] >= run.MIN_RUNS
    assert emitted(result) == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_per_layer_metrics_are_emitted_with_units(traced):
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert emitted(result) == declared("per_layer")


def test_workload_shape_counts(traced):
    def value(name, metric):
        return traced[name]["metrics"][metric]["value"]

    assert value("train_grid", "ksg.cache_hit_ratio") == 1.0
    assert value("train_grid", "ksg.score_calls") == 0
    assert value("train_grid", "neighbors.kth_calls") == 0
    assert value("train_grid", "neighbors.count_calls") == 0
    assert value("noise_onehot", "ksg.score_calls") == 4
    assert value("noise_onehot", "embedding.fit_calls") == 4
    assert value("score_scale", "ksg.cache_hit_ratio") == 0.0
    cells = {name: value(name, "selection.cells") for name in WORKLOADS}
    assert cells == {"score_scale": 4, "train_grid": 16, "noise_onehot": 4}
    assert value("train_grid", "logreg.cells") == 16


def test_failed_exit_tampered_or_missing_output_is_a_failed_run(tmp_path):
    workload = tiny("score_scale")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    out = tmp_path / "out"
    result, problem = run.check(workload, config, out, SEED, expected=None)
    assert result is not None and problem is None
    expected = run.digests(out)
    assert run.verify(out, expected) is None

    scores = out / "scores.csv"
    scores.write_text(scores.read_text().replace("clean", "clear", 1))
    assert run.verify(out, expected) == "digest mismatch in scores.csv"
    (out / "accuracy.csv").unlink()
    assert run.verify(out, expected) == "missing output accuracy.csv"

    config.write_text(json.dumps(dict(workload.config, schema_version=99)))
    result, problem = run.check(workload, config, tmp_path / "bad", SEED, expected)
    assert result is None and problem.startswith("miselect run exited 2")


def test_frozen_digest_mismatch_fails_every_run():
    wrong = {name: "0" * 64 for name in run.CHECKED_FILES}
    workload = dataclasses.replace(tiny("score_scale"), frozen=wrong)
    with pytest.raises(RuntimeError, match="digest mismatch"):
        run.measure(workload, run.DEFAULT_SEED, 0, trace=0)


def test_absent_wrap_target_is_reported_not_fatal(monkeypatch):
    class Index:
        def kth(self):
            return 3

    module = types.ModuleType("fake_layer")
    module.Index = Index
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    targets = [("fake_layer", "Index.kth", "neighbors.kth"),
               ("fake_layer", "Index.count", "neighbors.count")]
    monkeypatch.setattr(tracer, "TARGETS", targets)

    t = tracer.Tracer()
    t.install(targets)
    assert t.absent == ["fake_layer.Index.count"]
    assert t.span(tracer.ROOT_SPAN, Index().kth) == 3
    _, absent, _ = tracer.rollup(t.spans, t.absent, 0.0, 0, 0)
    assert set(absent) == {"neighbors.count_s", "neighbors.count_calls"}


def test_self_time_subtracts_covered_children():
    spans = [
        (1, None, tracer.ROOT_SPAN, 0.0, 10.0),
        (2, 1, "ksg.score", 1.0, 5.0),
        (3, 2, "neighbors.kth", 1.5, 2.5),
        (4, 2, "neighbors.count", 2.0, 4.0),
        (5, None, "logreg.train", 4.0, 8.0),  # a worker thread's first span
    ]
    metrics, _, layers = tracer.rollup(spans, [], 9.0, 0, 0)
    assert metrics["ksg.self_s"] == pytest.approx(4.0 - 2.5)
    assert metrics["experiment.self_s"] == pytest.approx(10.0 - 7.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert layers["neighbors"]["total_s"] == pytest.approx(3.0)
