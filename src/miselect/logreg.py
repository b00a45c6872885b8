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

from .data import _frozen
from .errors import ConfigError, ConsistencyError, DivergenceError


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 1e-4
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive")


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
        object.__setattr__(self, "weights", _frozen(w))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(weights, x, labels, l2):
    """Loss of ``loss_and_gradient`` plus the softmax parts its gradient reuses.

    Returns (loss, e, s, flat, penalty): ``e`` holds the max-subtracted
    exponentials, ``s`` their row sums and ``flat`` the positions of the
    labels in ``e`` raveled. The row max is a running ``np.maximum`` over the
    C columns, which is exact and much cheaper than ``max(axis=1)`` on short
    rows; ``e.sum(axis=1)`` stays a numpy reduction so that its summation
    order, pairwise from 8 columns on, matches the reference.
    """
    logits = x @ weights.T
    n, c = logits.shape
    row_max = logits[:, 0].copy()
    for j in range(1, c):
        np.maximum(row_max, logits[:, j], out=row_max)
    z = logits - row_max[:, None]
    e = np.exp(z)
    s = e.sum(axis=1)
    flat = np.arange(n) * c + labels
    loss = -float((z.take(flat) - np.log(s)).mean())
    penalty = weights.copy()
    penalty[:, -1] = 0.0
    loss += 0.5 * l2 * float((penalty**2).sum())
    return loss, e, s, flat, penalty


def loss_and_gradient(weights, x, labels, l2):
    """Mean cross-entropy + (l2/2)*||W||^2 (bias excluded) and its gradient.

    ``x`` must already carry the bias column of ones. The log-probabilities
    and the probabilities share one max-subtracted ``exp``; the probabilities
    equal ``_softmax(logits)`` bit for bit.
    """
    loss, e, s, flat, penalty = _forward(weights, x, labels, l2)
    p = e / s[:, None]
    p.ravel()[flat] -= 1.0
    grad = (p.T @ x) / x.shape[0] + l2 * penalty
    return loss, grad


def train(data, retained=None, cfg=TrainConfig()):
    """Fit a multinomial logistic regression on the retained subset.

    The class count is taken from the full dataset, so classes absent from
    the subset remain valid outputs. Deterministic: zero initialization and
    a shuffle order derived from cfg.seed when mini-batching.
    """
    if retained is None:
        retained = np.arange(data.n)
    retained = np.asarray(retained, dtype=np.int64)
    if retained.size == 0:
        raise ConfigError("retained training set is empty")
    x = data.features[retained]
    labels = data.labels[retained]
    num_classes = data.num_classes
    n, dim = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    weights = np.zeros((num_classes, dim + 1))
    rng = np.random.default_rng(cfg.seed)
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)

    # The full-data call that records an epoch's loss also yields the
    # gradient of the next full-batch step, so a full-batch epoch makes one
    # call and the last epoch, with no step after it, records the loss alone;
    # a mini-batch epoch steps on its batches and records the loss alone.
    history = []
    if batch == n:
        _, grad = loss_and_gradient(weights, xb, labels, cfg.l2)
    for epoch in range(cfg.epochs):
        if batch == n:
            weights = weights - cfg.learning_rate * grad
            if epoch + 1 < cfg.epochs:
                loss, grad = loss_and_gradient(weights, xb, labels, cfg.l2)
            else:
                loss = _forward(weights, xb, labels, cfg.l2)[0]
        else:
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                _, grad = loss_and_gradient(weights, xb[rows], labels[rows], cfg.l2)
                weights = weights - cfg.learning_rate * grad
            loss = _forward(weights, xb, labels, cfg.l2)[0]
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
