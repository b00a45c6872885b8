"""Turning per-sample MI scores into retained training subsets.

A plan is scope x band x retention ratio. ``global`` scope ranks the whole
dataset at once; ``class_wise`` first apportions the target size across
classes proportionally (largest remainder) and applies the band rule
within each class, which preserves class balance. Bands: ``top`` keeps the
highest scores, ``bottom`` the lowest, ``middle`` a contiguous rank window
centered on the median rank, and ``random`` a seeded uniform draw
(stratified when class_wise). Score ties always resolve to the smaller
sample index, and -inf sentinel scores sort below every finite score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import class_shares, is_number, round_half_even, write_atomic, write_json_atomic
from .data import _frozen
from .errors import ConfigError, ConsistencyError

SCOPES = ("global", "class_wise")
BANDS = ("top", "middle", "bottom", "random")
SELECTION_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SelectionPlan:
    scope: str
    band: str
    retention_ratio: float
    seed: int | None = None  # random band only

    def __post_init__(self):
        check_plan(self.scope, self.band)
        check_ratio(self.retention_ratio)

    @property
    def strategy(self):
        return f"{self.scope}/{self.band}"


@dataclass(frozen=True)
class SelectionResult:
    retained_indices: np.ndarray
    plan: SelectionPlan
    per_class_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "retained_indices", _frozen(self.retained_indices))
        object.__setattr__(self, "per_class_counts", _frozen(self.per_class_counts))

    @property
    def size(self):
        return len(self.retained_indices)


def _band_pick(local, positions, m, band, rng):
    """Pick m of ``positions`` (ascending global indices): a seeded draw for
    the random band, else a window of m in one ranking of their scores,
    ascending for bottom and descending otherwise, ties to the smaller
    index; the window starts at the first rank, or for middle at
    (len - m) // 2."""
    if band == "random":
        return positions[rng.choice(len(positions), size=m, replace=False)]
    scores = local[positions]
    order = np.lexsort((positions, scores if band == "bottom" else -scores))
    start = (len(positions) - m) // 2 if band == "middle" else 0
    return positions[order[start : start + m]]


def check_plan(scope="global", band="top"):
    """A plan's scope and band, each on its own; the config check calls it too."""
    if scope not in SCOPES:
        raise ConfigError("scope: must be global or class_wise")
    if band not in BANDS:
        raise ConfigError("band: must be top, middle, bottom or random")


def check_ratio(ratio, n=None, what="retention_ratio"):
    """A ratio in (0, 1] and, given N, round(ratio * N), the samples kept of N,
    at least one; ``what`` names the ratio."""
    if not (is_number(ratio) and 0.0 < ratio <= 1.0):
        raise ConfigError(f"{what}: must lie in (0, 1]")
    m = None if n is None else round_half_even(ratio * n)
    if m == 0:
        raise ConfigError(f"{what}: {ratio} of N_train={n} rounds to an empty training set")
    return m


def select(scores, labels, plan, num_classes=None):
    """Apply a selection plan to local MI scores.

    Retains exactly round(retention_ratio * N) samples; raises ConfigError
    if rounding makes that zero, and ConsistencyError for a label outside
    [0, num_classes). ``scores`` may be an MIScoreSet or a plain array of
    local scores.
    """
    local = np.asarray(getattr(scores, "local_scores", scores), dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if local.shape != labels.shape:
        raise ConsistencyError("scores and labels must be aligned")
    n = len(local)
    m = check_ratio(plan.retention_ratio, n)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConsistencyError("labels must lie in [0, num_classes)")
    rng = None
    if plan.band == "random":
        if plan.seed is None:
            raise ConfigError("random band requires a seed")
        rng = np.random.default_rng(plan.seed)

    # global scope is one group of every sample; class_wise is one per class
    groups = ([(np.arange(n), m)] if plan.scope == "global"
              else class_shares(labels, num_classes, m))
    retained = np.sort(np.concatenate(
        [_band_pick(local, members, quota, plan.band, rng) for members, quota in groups]))
    per_class = np.bincount(labels[retained], minlength=num_classes)
    return SelectionResult(retained_indices=retained, plan=plan, per_class_counts=per_class)


def save_selection(result, json_path=None, index_path=None):
    """Export a selection as JSON with plan metadata and/or a newline-
    delimited index file, each written atomically."""
    if index_path is not None:
        write_atomic(index_path, "".join(f"{i}\n" for i in result.retained_indices.tolist()))
    if json_path is not None:
        payload = {
            "schema_version": SELECTION_SCHEMA_VERSION,
            "plan": {
                "scope": result.plan.scope,
                "band": result.plan.band,
                "retention_ratio": result.plan.retention_ratio,
                "seed": result.plan.seed,
            },
            "retained_indices": result.retained_indices.tolist(),
            "per_class_counts": result.per_class_counts.tolist(),
        }
        write_json_atomic(json_path, payload, indent=2)
