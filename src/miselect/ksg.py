"""k-nearest-neighbor mutual information scoring.

Every sample receives a local MI contribution

    score_i = psi(k) + psi(N) - psi(n_x(i) + 1) - psi(n_y(i) + 1)

whose mean over the dataset is the global MI estimate (in nats). Local
scores can be negative; strongly negative scores mark samples whose inputs
carry little or contradictory information about their labels, which is
what makes the ranking useful for filtering noisy data.

Two variants are provided. ``score_discrete`` (default) treats labels as a
discrete variable: the radius for sample i is the distance to its kth
nearest neighbor among same-label points, n_x counts points of any label
inside that radius, and n_y + 1 is the size of the sample's class.
``score_onehot`` embeds labels as scaled one-hot vectors and runs the
generic continuous estimator on the concatenated joint space; the same
joint-space counts (``_joint_counts``) back ``score_continuous``, which
handles two real-valued variables and is how the estimator is validated
against the bivariate Gaussian closed form. Without jitter, when every
class has more than k members and every kth same-label distance is at most
the label scale, ``score_onehot`` takes a per-class route instead: the
joint kth is then the same-label kth and n_y has a closed form, so the
result equals the joint-space one bit for bit without the joint-space pass.

Only n_x, and one-hot n_y, cost neighbour queries. Every scorer ends in
``_from_counts``, which builds the rest of the score set from them, and a
score artifact holds only those counts, which ``load_scores`` rebuilds the
set from with the same function.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import is_number, write_json_atomic
from .data import _frozen
from .errors import (ConfigError, ConsistencyError, DegenerateInputError, DomainError, FormatError,
                     MiselectError)
from .neighbors import NeighborIndex, add_jitter

SCORES_SCHEMA_VERSION = 2

VARIANT_DISCRETE = "discrete_label"
VARIANT_ONEHOT = "onehot_continuous"
VARIANT_CONTINUOUS = "continuous"


def digamma(x):
    """Digamma function, elementwise, to better than 1e-10 absolute error.

    Arguments below 6 are shifted up with psi(x) = psi(x+1) - 1/x, then the
    asymptotic expansion with Bernoulli coefficients through x**-12 is
    evaluated. Accepts scalars or arrays of positive reals.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(arr > 0):
        raise DomainError("digamma requires strictly positive arguments")
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr).astype(np.float64).copy()
    acc = np.zeros_like(work)
    for _ in range(6):
        small = work < 6.0
        if not small.any():
            break
        acc[small] -= 1.0 / work[small]
        work[small] += 1.0
    inv = 1.0 / work
    inv2 = inv * inv
    tail = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0))))
        )
    )
    out = np.log(work) - 0.5 * inv - tail + acc
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


@dataclass(frozen=True)
class MIScoreSet:
    """Per-sample local MI contributions plus the global estimate.

    ``local_scores`` holds -inf for degenerate samples (singleton classes,
    which have no same-label neighbor); those are flagged in ``degenerate``
    and excluded from ``global_mi``. ``k_effective`` records the per-sample
    k after any small-class fallback.
    """

    local_scores: np.ndarray
    global_mi: float
    k: int
    n_samples: int
    variant: str
    per_sample_n_x: np.ndarray
    per_sample_n_y: np.ndarray
    k_effective: np.ndarray
    degenerate: np.ndarray
    strict: bool = True
    label_scale: float | None = None
    jitter_seed: int | None = None

    def __post_init__(self):
        scores = np.asarray(self.local_scores, dtype=np.float64)
        nx = np.asarray(self.per_sample_n_x, dtype=np.int64)
        ny = np.asarray(self.per_sample_n_y, dtype=np.int64)
        keff = np.asarray(self.k_effective, dtype=np.int64)
        deg = np.asarray(self.degenerate, dtype=bool)
        n = self.n_samples
        for name, a in (("local_scores", scores), ("n_x", nx), ("n_y", ny),
                        ("k_effective", keff), ("degenerate", deg)):
            if a.shape != (n,):
                raise ConsistencyError(f"{name} must have length n_samples")
        if nx.size and (nx.min() < 0 or nx.max() > n - 1):
            raise ConsistencyError("per-sample n_x counts must lie in [0, N-1]")
        if ny.size and (ny.min() < 0 or ny.max() > n - 1):
            raise ConsistencyError("per-sample n_y counts must lie in [0, N-1]")
        object.__setattr__(self, "local_scores", _frozen(scores))
        object.__setattr__(self, "per_sample_n_x", _frozen(nx))
        object.__setattr__(self, "per_sample_n_y", _frozen(ny))
        object.__setattr__(self, "k_effective", _frozen(keff))
        object.__setattr__(self, "degenerate", _frozen(deg))

    @property
    def k_substitutions(self):
        """Number of samples scored with a reduced k (small-class fallback)."""
        return int(((self.k_effective != self.k) & ~self.degenerate).sum())

    @property
    def global_mi_bits(self):
        return self.global_mi / math.log(2.0)


def check_k(n, k):
    """The one check of k against the sample count N that every scorer makes."""
    if not 1 <= k <= n - 2:
        raise ConfigError(f"k: {k} must lie in [1, N - 2 = {n - 2}]")


def check_estimator(variant=VARIANT_DISCRETE, label_scale=1.0):
    """A known scoring variant, and a positive, finite one-hot label coordinate."""
    if variant not in (VARIANT_DISCRETE, VARIANT_ONEHOT):
        raise ConfigError("variant: must be discrete_label or onehot_continuous")
    if not (is_number(label_scale) and label_scale > 0):
        raise ConfigError("label_scale: must be positive")


def _class_counts(labels, k):
    """Per sample, what the discrete scorer takes from the class sizes alone:
    n_y (class size - 1), k capped at n_y, and the degenerate flag of a
    singleton class's sample."""
    ny = np.bincount(labels)[labels] - 1
    return ny, np.minimum(k, ny), ny == 0


def _label_scale(points, label_scale):
    """The one-hot label coordinate: ``label_scale`` when given, else four
    times the features' span (at least 1)."""
    if label_scale is not None:
        return label_scale
    with np.errstate(over="ignore"):  # features near the float64 limit overflow the span
        span = points.features.max() - points.features.min() if points.features.size else 1.0
    if not np.isfinite(span):
        raise DegenerateInputError("the features' spread overflows float64, "
                                   "no label_scale to derive from it")
    return 4.0 * max(float(span), 1.0)


def _from_counts(points, nx, ny, k, variant, strict, label_scale, jitter_seed):
    """The score set from per-sample neighbour counts: psi(k) + psi(N)
    - psi(n_x + 1) - psi(n_y + 1) for each usable sample, -inf for each
    degenerate one, and the usable samples' mean as the global estimate.

    ``points`` is the labelled dataset of a discrete or one-hot set, None
    for a continuous one. Discrete n_y, per-sample k and degenerate flags
    come from the class sizes, and n_x is 0 on each degenerate sample; the
    other variants use k on every sample and have none degenerate. A
    one-hot set takes its label coordinate from ``_label_scale``.
    """
    n = len(nx)
    keff, deg, psi_k = np.full(n, k, dtype=np.int64), np.zeros(n, dtype=bool), digamma(float(k))
    if variant == VARIANT_DISCRETE:
        ny, keff, deg = _class_counts(points.labels, k)
        nx, psi_k, label_scale = np.where(deg, 0, nx), digamma(keff[~deg].astype(float)), None
    elif variant == VARIANT_ONEHOT:
        label_scale = float(_label_scale(points, label_scale))
    usable = ~deg
    if not usable.any():
        raise DegenerateInputError("every sample is degenerate; no global MI")
    scores = np.full(n, -np.inf)
    scores[usable] = (psi_k + digamma(float(n))
                      - digamma(nx[usable] + 1.0) - digamma(ny[usable] + 1.0))
    return MIScoreSet(
        local_scores=scores,
        global_mi=float(np.mean(scores[usable])),
        k=k,
        n_samples=n,
        variant=variant,
        per_sample_n_x=nx,
        per_sample_n_y=ny,
        k_effective=keff,
        degenerate=deg,
        strict=strict,
        label_scale=label_scale,
        jitter_seed=jitter_seed,
    )


def _class_kth(x, labels, keff):
    """Per sample: the distance to its ``keff``th nearest same-label point,
    0 in a singleton class."""
    radii = np.zeros(len(labels))
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if len(members) > 1:
            radii[members] = NeighborIndex(x[members]).kth_distance_bulk(int(keff[members[0]]))
    return radii


def score_discrete(points, k, strict=True, jitter_seed=None):
    """Local MI contributions with labels treated as a discrete variable.

    For each sample, the kth-nearest same-label distance (Chebyshev, self
    excluded) sets the radius; n_x counts points of any label strictly
    inside it (or within it if ``strict`` is False) and n_y + 1 is the
    class size. Classes with k or fewer members fall back to
    k_i = class_size - 1; singleton classes are flagged degenerate with a
    -inf sentinel and excluded from the global mean.
    """
    labels = points.labels
    check_k(len(labels), k)
    x = add_jitter(points.features, jitter_seed)
    radii = _class_kth(x, labels, _class_counts(labels, k)[1])
    nx = NeighborIndex(x).count_within_bulk(radii, strict=strict)
    return _from_counts(points, nx, None, k, VARIANT_DISCRETE, strict, None, jitter_seed)


def _joint_counts(x, y, k, strict, jitter_seed):
    """(n_x, n_y) of the KSG estimator on the column concatenation of the
    2-D ``x`` and ``y``, jittered by ``jitter_seed``: each sample's kth
    joint neighbour distance (Chebyshev) is its radius for the count in
    each marginal."""
    joint = add_jitter(np.hstack([x, y]), jitter_seed)
    eps = NeighborIndex(joint).kth_distance_bulk(k)
    dx = x.shape[1]
    return tuple(NeighborIndex(part).count_within_bulk(eps, strict=strict)
                 for part in (joint[:, :dx], joint[:, dx:]))


def score_continuous(x, y, k, strict=True, jitter_seed=None):
    """Generic KSG estimator for two real-valued variables.

    The joint space is the column concatenation of x and y under the
    Chebyshev metric; the kth joint neighbor distance sets each sample's
    radius for the marginal counts.
    """
    # a 1-D variable is one column
    x, y = (a[:, None] if a.ndim == 1 else a
            for a in (np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
    if x.shape[0] != y.shape[0]:
        raise ConsistencyError("x and y must have the same number of samples")
    check_k(x.shape[0], k)
    return _from_counts(None, *_joint_counts(x, y, k, strict, jitter_seed), k, VARIANT_CONTINUOUS,
                        strict, None, jitter_seed)


def score_onehot(points, k, label_scale, strict=True, jitter_seed=None):
    """Local MI via the continuous estimator on (x, scaled one-hot labels).

    With ``label_scale`` well above the data diameter, cross-label pairs
    can never fall inside a sample's radius and the marginal-y counts
    reduce to same-label counts.

    Without jitter, every cross-label joint distance is at least
    ``label_scale`` and every same-label one is the distance in x. So when
    each class has more than k members and each sample's kth same-label
    distance in x is at most ``label_scale``, that distance is the joint kth
    (Ross 2014, PLoS ONE), and n_y has a closed form. The counts are then
    computed per class, without the joint-space pass, and equal the joint
    ones bit for bit; otherwise ``_joint_counts`` runs, as in
    ``score_continuous``. Either way the set is built by ``_from_counts``.
    """
    check_estimator(label_scale=label_scale)
    labels = points.labels
    check_k(len(labels), k)
    same, keff, _ = _class_counts(labels, k)
    per_class = jitter_seed is None and keff.min() >= k
    eps = _class_kth(points.features, labels, keff) if per_class else None
    if per_class and eps.max() <= label_scale:
        nx = NeighborIndex(points.features).count_within_bulk(eps, strict=strict)
        # one-hot distances are 0 within a class and label_scale across
        # classes, and no radius exceeds label_scale
        cross = len(labels) - 1 - same
        ny = same * (eps > 0) if strict else same + cross * (eps >= label_scale)
    else:
        onehot = np.zeros((len(labels), points.num_classes))
        onehot[np.arange(len(labels)), labels] = label_scale
        nx, ny = _joint_counts(points.features, onehot, k, strict, jitter_seed)
    return _from_counts(points, nx, ny, k, VARIANT_ONEHOT, strict, label_scale, jitter_seed)


def score_dataset(points, k, variant=VARIANT_DISCRETE, strict=True, label_scale=None,
                  jitter_seed=None):
    """Dispatch to the configured scoring variant."""
    check_estimator(variant=variant)
    if variant == VARIANT_DISCRETE:
        return score_discrete(points, k, strict=strict, jitter_seed=jitter_seed)
    return score_onehot(points, k, _label_scale(points, label_scale), strict=strict,
                        jitter_seed=jitter_seed)


def per_class_summary(scores, labels):
    """Per-class and overall {mean, stddev, min, max, count} of local scores.

    Degenerate (-inf) samples are excluded; ``count`` is the number of
    finite scores contributing to each entry.
    """
    local = scores.local_scores if isinstance(scores, MIScoreSet) else np.asarray(scores)
    labels = np.asarray(labels, dtype=np.int64)
    if local.shape != labels.shape:
        raise ConsistencyError("scores and labels must be aligned")
    finite = np.isfinite(local)

    def stats(mask):
        vals = local[mask]
        if vals.size == 0:
            return {"mean": float("nan"), "stddev": float("nan"),
                    "min": float("nan"), "max": float("nan"), "count": 0}
        return {
            "mean": float(vals.mean()),
            "stddev": float(vals.std()),
            "min": float(vals.min()),
            "max": float(vals.max()),
            "count": int(vals.size),
        }

    out = {}
    for c in np.unique(labels):
        out[int(c)] = stats(finite & (labels == c))
    out["overall"] = stats(finite)
    return out


def dataset_content_hash(points, labels):
    """Stable content hash of an embedded dataset (exact float bytes)."""
    h = hashlib.sha256()
    pts = np.ascontiguousarray(points, dtype=np.float64)
    h.update(str(pts.shape).encode())
    h.update(pts.tobytes())
    h.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def save_scores(scores, path, dataset_hash=None):
    """Write a score set's neighbour counts to a versioned JSON artifact:
    ``n_x``, and ``n_y`` unless the variant is discrete (whose n_y the
    labels give). ``load_scores`` rebuilds every other field.

    The artifact is written under a temporary name in the same directory
    and then renamed over ``path``, so an interrupted write never leaves a
    partial file at ``path``.
    """
    payload = {"schema_version": SCORES_SCHEMA_VERSION, "dataset_hash": dataset_hash,
               "n_x": scores.per_sample_n_x.tolist()}
    if scores.variant != VARIANT_DISCRETE:
        payload["n_y"] = scores.per_sample_n_y.tolist()
    write_json_atomic(path, payload)


def load_scores(path, points, k, variant=VARIANT_DISCRETE, strict=True, label_scale=None,
                jitter_seed=None):
    """Read a score artifact as the score set of ``points`` under
    ``score_dataset``'s settings; returns (MIScoreSet, dataset_hash).

    The stored counts are taken on trust, and every other field is built
    from them as the scorers build it. Raises FormatError when the file is
    not a JSON object of this schema version, or its counts are missing or
    not one integer in [0, N - 1] per sample.
    """
    check_estimator(variant=variant)
    check_k(len(points.labels), k)
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable score artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: score artifact is not a JSON object")
    if payload.get("schema_version") != SCORES_SCHEMA_VERSION:
        raise FormatError(f"{path}: unsupported score artifact version")
    keys = ("n_x",) if variant == VARIANT_DISCRETE else ("n_x", "n_y")
    try:
        counts = {key: np.asarray(payload[key]) for key in keys}
        if any(c.dtype.kind != "i" or c.shape != points.labels.shape for c in counts.values()):
            raise TypeError("the counts are not one integer per sample")
        scores = _from_counts(points, counts["n_x"], counts.get("n_y"), k, variant, strict,
                              label_scale, jitter_seed)
    except (KeyError, TypeError, ValueError, MiselectError) as exc:
        raise FormatError(f"{path}: ill-formed score artifact: {exc!r}") from exc
    return scores, payload.get("dataset_hash")
