"""Linear dimensionality reduction for neighbor-based scoring.

Raw feature vectors (e.g. flattened images) are compressed with PCA into a
low-dimensional space where nearest-neighbor distances are meaningful. The
transform is deterministic: components carry a fixed sign convention and
ties never depend on library internals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _lapack
from ._util import frozen, is_int
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
        object.__setattr__(self, "mean", frozen(mean))
        object.__setattr__(self, "components", frozen(comps))
        object.__setattr__(self, "explained_variance", frozen(np.maximum(ev, 0.0)))

    @property
    def source_dim(self):
        return self.mean.shape[0]


def check_dim(d, n, dim):
    """A PCA fit on N samples of ``dim`` features has 1 to min(N, dim) components."""
    if not is_int(d, 1):
        raise ConfigError(f"dim: {d} must be a positive integer")
    if d > min(n, dim):
        raise ConfigError(f"dim: {d} must lie in [1, min(N={n}, feature dim={dim})]")


def fit_pca(ds, d, whiten=False):
    """Fit a d-component PCA on a dataset's features.

    Components are the top-d eigenvectors of the sample covariance
    (ddof=1) of the centered features. For determinism every component is
    flipped so that its largest-magnitude coordinate is positive. The
    components come from a symmetric eigensolver on the explicit
    covariance at every feature dim. The dataset is not modified: the fit
    centres a copy of its features.
    """
    return _fit(ds.features, d, whiten, in_place=False)


def fit_pca_in_place(ds, d, whiten=False):
    """``fit_pca`` and ``transform`` of one dataset without a copy of its
    features: returns the model and the embedded dataset, with the same bits
    as ``model = fit_pca(ds, d, whiten)`` and ``transform(model, ds)``.

    The fit centres ``ds.features`` in place and projects the dataset from
    there, so neither ``ds`` nor anything sharing its feature array may be
    read afterwards.
    """
    x = ds.features
    x.flags.writeable = True
    model = _fit(x, d, whiten, in_place=True)
    return model, replace(ds, features=_project(x, model), image_shape=None)


def _fit(x, d, whiten, in_place):
    """The PCA fit of both entry points, on ``x`` centred into a copy or,
    with ``in_place``, into ``x`` itself."""
    n, dim = x.shape
    if n < 2:
        raise ConfigError("fit_pca needs at least 2 samples")
    check_dim(d, n, dim)
    # values near the float64 limit overflow here; the sum of squares then
    # reads inf or NaN, and while it is finite it bounds every covariance entry
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        xc = np.subtract(x, mean, out=x if in_place else None)
        spread = np.vdot(xc, xc)
    # zero exactly when every centred value squares to zero, as
    # (xc**2).sum() == 0 would decide, without that (N, dim) temporary
    if spread == 0.0:
        raise DegenerateInputError("zero-variance dataset, nothing to embed")
    if not np.isfinite(spread):
        raise DegenerateInputError("the features' spread overflows float64, nothing to embed")

    cov = xc.T @ xc
    cov /= n - 1
    # a centred copy is dead once the covariance is formed: free it
    # before the eigensolver allocates its workspace, which then
    # overwrites the covariance with the eigenvectors
    del xc
    eigvals, eigvecs = _lapack.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d]
    ev = np.maximum(eigvals[order], 0.0)
    comps = eigvecs[:, order].T
    for j in range(d):
        peak = np.argmax(np.abs(comps[j]))
        if comps[j, peak] < 0:
            comps[j] = -comps[j]
    if whiten and np.any(ev <= 1e-300):
        raise DegenerateInputError("cannot whiten: a requested component has zero variance")
    return PcaModel(mean=mean, components=comps, explained_variance=ev, whiten=whiten)


def _project(xc, model):
    """Centred features ``xc`` in the model's coordinates."""
    p = xc @ model.components.T
    if model.whiten:
        p /= np.sqrt(model.explained_variance)
    return p


def transform(model, ds):
    """Embed a labeled dataset: a LabeledDataset whose features are the
    projected points; labels and provenance pass through unchanged."""
    if ds.dim != model.source_dim:
        raise ConsistencyError(
            f"feature dim {ds.dim} does not match model source dim {model.source_dim}"
        )
    return replace(ds, features=_project(ds.features - model.mean, model), image_shape=None)
