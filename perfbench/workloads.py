"""The benchmark's workloads: one `miselect run` config each.

Every workload uses `synthetic_images` (no IDX data exists offline),
test_fraction 0.25, embedding dim 16 and k 3. The workload seed reaches
the program only as `miselect run --seed`; the configs themselves are
fixed. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    threads: int
    # Score cache filled once per set by a separate child, then copied
    # into every run's output directory, so every run is a cache hit.
    primed: bool = False
    # sha256 of scores.csv and accuracy.csv at DEFAULT_SEED, or None.
    frozen: dict | None = None


def _config(per_class, side, corruptions, variant, plans, ratios, epochs, batch_size=None):
    return {
        "schema_version": 1,
        "dataset": {
            "type": "synthetic_images",
            "num_classes": 6,
            "per_class_count": per_class,
            "height": side,
            "width": side,
            "noise": 0.1,
            "jitter_px": 2,
            "test_fraction": 0.25,
        },
        "embedding": {"dim": 16},
        "corruptions": corruptions,
        "estimator": {"variant": variant, "k": 3},
        "selection": {
            "plans": [{"scope": scope, "band": band} for scope, band in plans],
            "ratios": ratios,
        },
        "classifier": {"learning_rate": 0.1, "epochs": epochs, "batch_size": batch_size},
    }


_GLOBAL = [("global", "top"), ("global", "random")]

_SPECS = [
    Workload(
        name="score_scale",
        why="discrete neighbour path (same-class kth distance, n_x count over all points) "
            "dominates run_s and its temporaries set peak RSS; logreg is a few percent",
        config=_config(
            per_class=700, side=28,
            corruptions=[{"kind": "label_flip", "rate": 0.3}],
            variant="discrete_label", plans=_GLOBAL, ratios=[0.5, 1.0], epochs=50,
        ),
        threads=1,
    ),
    Workload(
        name="train_grid",
        why="16-cell full-batch logreg grid on 2 threads with a primed score cache: "
            "logreg is almost all of run_s and the neighbour layer does no work",
        config=_config(
            per_class=500, side=16,
            corruptions=[{"kind": "label_flip", "rate": 0.3}],
            variant="discrete_label",
            plans=_GLOBAL + [("class_wise", "top"), ("class_wise", "middle")],
            ratios=[0.3, 0.5, 0.7, 1.0], epochs=300,
        ),
        threads=2,
        primed=True,
    ),
    Workload(
        name="noise_onehot",
        why="one-hot joint-space neighbour path, per-sample affine warps, four 784-dim "
            "PCA fits and the mini-batch logreg path",
        config=_config(
            per_class=300, side=28,
            corruptions=[
                {"kind": "gaussian", "noise_factor": 0.9, "fraction": 0.4},
                {"kind": "affine_strong", "fraction": 0.4},
                {"kind": "affine_mild", "fraction": 0.4},
            ],
            variant="onehot_continuous", plans=_GLOBAL, ratios=[0.5, 1.0], epochs=50,
            batch_size=128,
        ),
        threads=1,
    ),
]


def _load_workloads():
    frozen = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    return {w.name: replace(w, frozen=frozen.get(w.name)) for w in _SPECS}


WORKLOADS = _load_workloads()
