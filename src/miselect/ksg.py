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
continuous core (``score_continuous``) also handles two real-valued
variables, which is how the estimator is validated against the bivariate
Gaussian closed form. Without jitter, when every class has more than k
members and every kth same-label distance is at most the label scale,
``score_onehot`` takes a per-class route instead: the joint kth is then the
same-label kth and n_y has a closed form, so the result equals the
joint-space one bit for bit without the joint-space pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import is_number, write_json_atomic
from .data import _frozen
from .errors import ConfigError, ConsistencyError, DegenerateInputError, DomainError, FormatError
from .neighbors import NeighborIndex, add_jitter

SCORES_SCHEMA_VERSION = 1

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


def _score_set(k, nx, ny, variant, strict, jitter_seed, keff=None, deg=None):
    """The score set from per-sample counts: psi(k) + psi(N) - psi(n_x + 1)
    - psi(n_y + 1) for each usable sample, -inf for each degenerate one, and
    the usable samples' mean as the global estimate.

    The discrete scorer passes its per-sample k (``keff``) and ``deg``
    flags; for the others every sample uses ``k`` and none is degenerate.
    """
    n = len(nx)
    if deg is None:
        deg = np.zeros(n, dtype=bool)
    usable = ~deg
    if not usable.any():
        raise DegenerateInputError("every sample is degenerate; no global MI")
    if keff is None:
        keff, psi_k = np.full(n, k, dtype=np.int64), digamma(float(k))
    else:
        psi_k = digamma(keff[usable].astype(float))
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
        jitter_seed=jitter_seed,
    )


def _class_kth(x, labels, k):
    """Per sample: the distance to its kth nearest same-label point, with k
    capped at class size - 1, the capped k, and the class size. Singleton
    classes get radius 0 and k 0."""
    radii = np.zeros(len(labels))
    sizes = np.zeros(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        sizes[members] = len(members)
        if len(members) > 1:
            radii[members] = NeighborIndex(x[members]).kth_distance_bulk(min(k, len(members) - 1))
    return radii, np.minimum(k, sizes - 1), sizes


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
    radii, keff, sizes = _class_kth(x, labels, k)
    deg = sizes == 1
    nx = NeighborIndex(x).count_within_bulk(radii, strict=strict)
    nx[deg] = 0
    return _score_set(k, nx, sizes - 1, VARIANT_DISCRETE, strict, jitter_seed, keff, deg)


def score_continuous(x, y, k, strict=True, jitter_seed=None, variant=VARIANT_CONTINUOUS):
    """Generic KSG estimator for two real-valued variables.

    The joint space is the column concatenation of x and y under the
    Chebyshev metric; the kth joint neighbor distance sets each sample's
    radius for the marginal counts.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise ConsistencyError("x and y must have the same number of samples")
    check_k(x.shape[0], k)
    joint = add_jitter(np.hstack([x, y]), jitter_seed)
    dx = x.shape[1]
    index_joint = NeighborIndex(joint)
    index_x = NeighborIndex(joint[:, :dx])
    index_y = NeighborIndex(joint[:, dx:])

    eps = index_joint.kth_distance_bulk(k)
    nx = index_x.count_within_bulk(eps, strict=strict)
    ny = index_y.count_within_bulk(eps, strict=strict)
    return _score_set(k, nx, ny, variant, strict, jitter_seed)


def score_onehot(points, k, label_scale, strict=True, jitter_seed=None):
    """Local MI via the continuous estimator on (x, scaled one-hot labels).

    With ``label_scale`` well above the data diameter, cross-label pairs
    can never fall inside a sample's radius and the marginal-y counts
    reduce to same-label counts.

    Without jitter, every cross-label joint distance is at least
    ``label_scale`` and every same-label one is the distance in x. So when
    each class has more than k members and each sample's kth same-label
    distance in x is at most ``label_scale``, that distance is the joint kth
    (Ross 2014, PLoS ONE), and n_y has a closed form. The result is then
    computed per class, without the joint-space pass, and equals the
    general one bit for bit; otherwise the general path runs.
    """
    check_estimator(label_scale=label_scale)
    check_k(len(points.labels), k)
    result = None
    if jitter_seed is None:
        result = _score_onehot_per_class(points, k, label_scale, strict)
    if result is None:
        labels = points.labels
        onehot = np.zeros((len(labels), points.num_classes))
        onehot[np.arange(len(labels)), labels] = label_scale
        result = score_continuous(
            points.features, onehot, k, strict=strict, jitter_seed=jitter_seed,
            variant=VARIANT_ONEHOT,
        )
    return replace(result, label_scale=float(label_scale))


def _score_onehot_per_class(points, k, label_scale, strict):
    """``score_onehot`` without jitter, computed per class; None where that
    would not equal the joint-space result."""
    labels = points.labels
    n = len(labels)
    eps, keff, sizes = _class_kth(points.features, labels, k)
    if keff.min() < k or eps.max() > label_scale:
        return None
    nx = NeighborIndex(points.features).count_within_bulk(eps, strict=strict)
    # one-hot distances are 0 within a class and label_scale across classes
    cross = n - sizes
    if strict:
        ny = (sizes - 1) * (eps > 0) + cross * (eps > label_scale)
    else:
        ny = (sizes - 1) + cross * (eps >= label_scale)
    return _score_set(k, nx, ny, VARIANT_ONEHOT, strict, None)


def score_dataset(points, k, variant=VARIANT_DISCRETE, strict=True, label_scale=None,
                  jitter_seed=None):
    """Dispatch to the configured scoring variant."""
    check_estimator(variant=variant)
    if variant == VARIANT_DISCRETE:
        return score_discrete(points, k, strict=strict, jitter_seed=jitter_seed)
    if label_scale is None:
        with np.errstate(over="ignore"):  # features near the float64 limit overflow the span
            span = points.features.max() - points.features.min() if points.features.size else 1.0
        if not np.isfinite(span):
            raise DegenerateInputError("the features' spread overflows float64, "
                                       "no label_scale to derive from it")
        label_scale = 4.0 * max(float(span), 1.0)
    return score_onehot(points, k, label_scale, strict=strict, jitter_seed=jitter_seed)


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


# Score-artifact key -> MIScoreSet field, in the field order; save_scores
# writes these keys beside the schema version and the dataset hash, and
# load_scores reads them back.
_ARTIFACT_FIELDS = {
    "local_scores": "local_scores", "global_mi": "global_mi", "k": "k",
    "n_samples": "n_samples", "variant": "variant", "n_x": "per_sample_n_x",
    "n_y": "per_sample_n_y", "k_effective": "k_effective", "degenerate": "degenerate",
    "strict": "strict", "label_scale": "label_scale", "jitter_seed": "jitter_seed",
}


def null_degenerate(scores):
    """The local scores as a list with None (JSON null) for each degenerate
    sample's -inf, as the score artifact and the report's hash hold them."""
    return [None if d else s for s, d in
            zip(scores.local_scores.tolist(), scores.degenerate.tolist())]


def save_scores(scores, path, dataset_hash=None):
    """Write a score set to a versioned JSON artifact (exact round trip).

    Degenerate samples' scores are written as null. The artifact is written
    under a temporary name in the same directory and then renamed over
    ``path``, so an interrupted write never leaves a partial file at ``path``.
    """
    payload = {"schema_version": SCORES_SCHEMA_VERSION, "dataset_hash": dataset_hash}
    for key, field in _ARTIFACT_FIELDS.items():
        value = getattr(scores, field)
        payload[key] = value.tolist() if isinstance(value, np.ndarray) else value
    payload["local_scores"] = null_degenerate(scores)
    write_json_atomic(path, payload)


def load_scores(path):
    """Read a score artifact; returns (MIScoreSet, dataset_hash).

    Raises FormatError when the file is not JSON or lacks a field.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable score artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: score artifact is not a JSON object")
    if payload.get("schema_version") != SCORES_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported score artifact version")
    try:
        fields = {field: payload[key] for key, field in _ARTIFACT_FIELDS.items()}
        fields["local_scores"] = [-np.inf if v is None else v for v in fields["local_scores"]]
        scores = MIScoreSet(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ill-formed score artifact: {exc!r}") from exc
    return scores, payload.get("dataset_hash")
