"""Linear dimensionality reduction for neighbor-based scoring.

Raw feature vectors (e.g. flattened images) are compressed with PCA into a
low-dimensional space where nearest-neighbor distances are meaningful. The
transform is deterministic: components carry a fixed sign convention and
ties never depend on library internals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import _frozen
from .errors import ConfigError, ConsistencyError, DegenerateInputError

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA transform.

    ``components`` holds d orthonormal rows (principal directions) of the
    source space; ``explained_variance`` is non-increasing. With ``whiten``
    each projected coordinate is scaled to unit variance.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    whiten: bool = False

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        ev = np.asarray(self.explained_variance, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ConsistencyError("components must be (d, source_dim)")
        if ev.shape != (comps.shape[0],):
            raise ConsistencyError("explained_variance must have one entry per component")
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=_ORTHO_TOL):
            raise ConsistencyError("components are not orthonormal")
        if np.any(np.diff(ev) > 1e-12) or np.any(ev < -1e-12):
            raise ConsistencyError("explained_variance must be non-negative, non-increasing")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "components", _frozen(comps))
        object.__setattr__(self, "explained_variance", _frozen(np.maximum(ev, 0.0)))

    @property
    def source_dim(self):
        return self.mean.shape[0]


def fit_pca(ds, d, whiten=False):
    """Fit a d-component PCA on a dataset's features.

    Components are the top-d eigenvectors of the sample covariance
    (ddof=1) of the centered features. For determinism every component is
    flipped so that its largest-magnitude coordinate is positive. Uses a
    symmetric eigensolver on the explicit covariance while source_dim is
    small; falls back to an SVD of the centered data otherwise.
    """
    x = ds.features
    n, dim = x.shape
    if n < 2:
        raise ConfigError("fit_pca needs at least 2 samples")
    if not (1 <= d <= min(n, dim)):
        raise ConfigError(f"latent dim {d} must lie in [1, min(N={n}, dim={dim})]")
    mean = x.mean(axis=0)
    xc = x - mean
    total_var = float((xc**2).sum()) / (n - 1)
    if total_var == 0.0:
        raise DegenerateInputError("zero-variance dataset, nothing to embed")

    if dim <= 1024:
        cov = (xc.T @ xc) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1][:d]
        ev = eigvals[order]
        comps = eigvecs[:, order].T
    else:
        u, s, vt = np.linalg.svd(xc, full_matrices=False)
        ev = (s[:d] ** 2) / (n - 1)
        comps = vt[:d]

    ev = np.maximum(ev, 0.0)
    comps = comps.copy()
    for j in range(d):
        peak = np.argmax(np.abs(comps[j]))
        if comps[j, peak] < 0:
            comps[j] = -comps[j]
    if whiten and np.any(ev <= 1e-300):
        raise DegenerateInputError("cannot whiten: a requested component has zero variance")
    return PcaModel(mean=mean, components=comps, explained_variance=ev, whiten=whiten)


def transform_points(model, x):
    """Project raw feature rows into the latent space."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.source_dim:
        raise ConsistencyError(
            f"feature dim {x.shape[1]} does not match model source dim {model.source_dim}"
        )
    p = (x - model.mean) @ model.components.T
    if model.whiten:
        p = p / np.sqrt(model.explained_variance)
    return p


def transform(model, ds):
    """Embed a labeled dataset: a LabeledDataset whose features are the
    projected points; labels and provenance pass through unchanged."""
    return replace(ds, features=transform_points(model, ds.features), image_shape=None)
