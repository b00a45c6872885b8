"""Multinomial logistic regression trained from scratch.

Used to measure the downstream effect of each selection strategy: train on
a retained subset, evaluate on a clean test set. Plain (mini-batch)
gradient descent on mean cross-entropy with an L2 penalty on the weights
(bias excluded), zero-initialized so full-batch runs are deterministic
without any seed dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import frozen, is_int, is_number
from .errors import ConfigError, ConsistencyError, DivergenceError


@dataclass(frozen=True)
class LogRegModel:
    """weights has shape (C, d+1) with the bias in the last column."""

    weights: np.ndarray
    num_classes: int
    input_dim: int
    loss_history: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.num_classes, self.input_dim + 1):
            raise ConsistencyError("weights must have shape (C, d+1)")
        if not np.all(np.isfinite(w)):
            raise ConsistencyError("weights must be finite")
        object.__setattr__(self, "weights", frozen(w))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# numpy adds a row of fewer than 8 values in order and a longer one
# pairwise; the class-major sum adds the classes in order, so from this many
# classes on the kernel sums the (n, C) rows with numpy's own reduction
_PAIRWISE_FROM = 8


class _Buffers:
    """The arrays of one softmax pass over n labels, which one fit reuses
    across its calls on n samples.

    ``z`` holds the class-major (C, n) logits, then their max-subtracted
    exponentials; ``s`` the per-sample max, then the per-sample sum; ``p``
    the (n, C) probabilities; ``pos`` the positions of the labels in ``z``
    raveled and ``onehot`` the labels one-hot in the (n, C) layout.
    """

    def __init__(self, labels, num_classes):
        n = labels.shape[0]
        self.z = np.empty((num_classes, n))
        self.s = np.empty(n)
        self.p = np.empty((n, num_classes))
        self.pos = labels * n + np.arange(n)
        self.onehot = np.eye(num_classes).take(labels, axis=0)


def _forward(weights, x, l2, buf):
    """Loss of ``loss_and_gradient`` and its penalty weights; leaves the
    softmax parts its gradient reuses in ``buf``.

    The elementwise work runs on the (C, n) copy of the logits, where the
    per-sample max and sum are contiguous reductions over axis 0 and ``exp``
    has contiguous input and output. Below 8 classes that sum adds the
    classes in order, as numpy's row sum does; from 8 on, the exponentials
    go to ``buf.p`` and are summed there by row, pairwise, as numpy does.
    """
    z, s = buf.z, buf.s
    np.copyto(z, (x @ weights.T).T)
    np.maximum.reduce(z, axis=0, out=s)
    z -= s
    picked = z.take(buf.pos)
    np.exp(z, out=z)
    if z.shape[0] < _PAIRWISE_FROM:
        np.add.reduce(z, axis=0, out=s)
    else:
        np.copyto(buf.p.T, z)
        np.add.reduce(buf.p, axis=1, out=s)
    picked -= np.log(s)
    loss = -float(np.add.reduce(picked) / picked.size)  # .mean(), without its overhead
    penalty = weights.copy()
    penalty[:, -1] = 0.0
    loss += 0.5 * l2 * float((penalty**2).sum())
    return loss, penalty


def loss_and_gradient(weights, x, labels, l2, buf=None):
    """Mean cross-entropy + (l2/2)*||W||^2 (bias excluded) and its gradient.

    ``x`` must already carry the bias column of ones. The log-probabilities
    and the probabilities share one max-subtracted ``exp``; the probabilities
    equal ``_softmax(logits)`` bit for bit. ``buf`` is a ``_Buffers`` for
    these labels, reused across calls; without it the call makes its own.
    """
    if buf is None:
        buf = _Buffers(labels, weights.shape[0])
    loss, penalty = _forward(weights, x, l2, buf)
    p = buf.p
    if weights.shape[0] < _PAIRWISE_FROM:
        np.divide(buf.z, buf.s, out=p.T)
    else:
        np.divide(p, buf.s[:, None], out=p)  # the exponentials are in p already
    p -= buf.onehot
    grad = (p.T @ x) / x.shape[0] + l2 * penalty
    return loss, grad


def check_fit(learning_rate=0.1, epochs=1, l2=0.0, batch_size=None):
    """Each of train's settings on its own; the config check calls it too."""
    if not (is_number(learning_rate) and learning_rate > 0):
        raise ConfigError("learning_rate: must be positive")
    if not is_int(epochs, 1):
        raise ConfigError("epochs: must be a positive integer")
    if not (is_number(l2) and l2 >= 0):
        raise ConfigError("l2: must be non-negative")
    if not (batch_size is None or is_int(batch_size, 1)):
        raise ConfigError("batch_size: must be a positive integer or null")


# a diverging fit overflows its weights, steps and loss to inf or NaN, which
# the loss check after each epoch reports
@np.errstate(over="ignore", invalid="ignore")
def train(data, retained=None, learning_rate=0.1, epochs=300, l2=1e-4, batch_size=None,
          seed=0):
    """Fit a multinomial logistic regression on the retained subset.

    ``epochs`` steps of size ``learning_rate`` on the mean cross-entropy
    plus (l2/2)*||W||^2, over batches of ``batch_size`` samples (None: the
    full batch). The class count is taken from the full dataset, so classes
    absent from the subset remain valid outputs. Deterministic: zero
    initialization and a shuffle order derived from ``seed`` when
    mini-batching.
    """
    check_fit(learning_rate, epochs, l2, batch_size)
    if retained is None:
        retained = np.arange(data.n)
    retained = np.asarray(retained, dtype=np.int64)
    if retained.size == 0:
        raise ConfigError("retained training set is empty")
    if retained.min() < 0 or retained.max() >= data.n:
        raise ConfigError(f"retained indices must lie in [0, {data.n})")
    labels = data.labels[retained]
    num_classes = data.num_classes
    n, dim = retained.size, data.dim
    # the retained rows with a bias column of ones, gathered 256 rows at a
    # time so that no second (n, dim) copy is ever live
    xb = np.empty((n, dim + 1))
    for start in range(0, n, 256):
        xb[start : start + 256, :dim] = data.features[retained[start : start + 256]]
    xb[:, dim] = 1.0
    weights = np.zeros((num_classes, dim + 1))
    rng = np.random.default_rng(seed)
    batch = n if batch_size is None else min(batch_size, n)
    buf = _Buffers(labels, num_classes)

    # The full-data call that records an epoch's loss also yields the
    # gradient of the next full-batch step, so a full-batch epoch makes one
    # call and the last epoch, with no step after it, records the loss alone;
    # a mini-batch epoch steps on its batches and records the loss alone.
    # Every full-data call reuses the fit's buffers; a batch makes its own.
    history = []
    if batch == n:
        _, grad = loss_and_gradient(weights, xb, labels, l2, buf)
    for epoch in range(epochs):
        if batch == n:
            weights = weights - learning_rate * grad
            if epoch + 1 < epochs:
                loss, grad = loss_and_gradient(weights, xb, labels, l2, buf)
            else:
                loss = _forward(weights, xb, l2, buf)[0]
        else:
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                _, grad = loss_and_gradient(weights, xb[rows], labels[rows], l2)
                weights = weights - learning_rate * grad
            loss = _forward(weights, xb, l2, buf)[0]
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        history.append(loss)

    return LogRegModel(
        weights=weights,
        num_classes=num_classes,
        input_dim=dim,
        loss_history=tuple(history),
    )


def predict_proba(model, x):
    """Class probability matrix for feature rows (bias added internally)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ConsistencyError(
            f"feature dim {x.shape[1]} does not match model input dim {model.input_dim}"
        )
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    return _softmax(xb @ model.weights.T)


def evaluate(model, data):
    """Accuracy, per-class accuracy and confusion matrix on a test set.

    Confusion matrix rows are true classes, columns predicted classes.
    Per-class accuracy is NaN for classes absent from the test set.
    """
    labels = data.labels
    if len(labels) == 0:
        raise ConfigError("cannot evaluate on an empty test set")
    c = max(data.num_classes, model.num_classes)
    preds = np.argmax(predict_proba(model, data.features), axis=1)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    correct = confusion.diagonal().sum()
    totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(totals > 0, confusion.diagonal() / totals, np.nan)
    return {
        "accuracy": float(correct / len(labels)),
        "per_class_accuracy": per_class,
        "confusion_matrix": confusion,
    }
