"""Multinomial logistic regression trained from scratch.

Used to measure the downstream effect of each selection strategy: train on
a retained subset, evaluate on a clean test set. Plain (mini-batch)
gradient descent on mean cross-entropy with an L2 penalty on the weights
(bias excluded), zero-initialized so full-batch runs are deterministic
without any seed dependence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import write_json_atomic
from .data import _frozen
from .errors import ConfigError, ConsistencyError, DivergenceError, FormatError

MODEL_SCHEMA_VERSION = 1


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


def loss_and_gradient(weights, x, labels, l2):
    """Mean cross-entropy + (l2/2)*||W||^2 (bias excluded) and its gradient.

    ``x`` must already carry the bias column of ones. The log-probabilities
    and the probabilities share one max-subtracted ``exp``; the probabilities
    equal ``_softmax(logits)`` bit for bit.
    """
    n = x.shape[0]
    rows = np.arange(n)
    logits = x @ weights.T
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    log_p = z - np.log(s)
    loss = -float(log_p[rows, labels].mean())
    penalty = weights.copy()
    penalty[:, -1] = 0.0
    loss += 0.5 * l2 * float((penalty**2).sum())
    p = e / s
    p[rows, labels] -= 1.0
    grad = (p.T @ x) / n + l2 * penalty
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
    # call; a mini-batch epoch steps on its batches and discards that gradient.
    history = []
    if batch == n:
        _, grad = loss_and_gradient(weights, xb, labels, cfg.l2)
    for epoch in range(cfg.epochs):
        if batch == n:
            weights = weights - cfg.learning_rate * grad
        else:
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                _, grad = loss_and_gradient(weights, xb[rows], labels[rows], cfg.l2)
                weights = weights - cfg.learning_rate * grad
        loss, grad = loss_and_gradient(weights, xb, labels, cfg.l2)
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


def predict(model, features):
    """Predicted class and probability vector for one sample.

    Probabilities sum to 1 (max-subtracted softmax); ties in the argmax
    resolve to the lower class id.
    """
    probs = predict_proba(model, np.asarray(features, dtype=np.float64))[0]
    return int(np.argmax(probs)), probs


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


def save_model(model, path):
    """Write a model to a versioned JSON artifact (exact round trip).

    The write is atomic: an interrupted save leaves ``path`` as it was.
    """
    write_json_atomic(
        path,
        {
            "schema_version": MODEL_SCHEMA_VERSION,
            "weights": model.weights.tolist(),
            "num_classes": model.num_classes,
            "input_dim": model.input_dim,
        },
    )


def load_model(path):
    """Read a model artifact written by ``save_model``.

    Raises FormatError when the file is not JSON or lacks a field.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable model artifact: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: model artifact is not a JSON object")
    if payload.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported model artifact version")
    try:
        return LogRegModel(
            weights=np.asarray(payload["weights"]),
            num_classes=payload["num_classes"],
            input_dim=payload["input_dim"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ill-formed model artifact: {exc!r}") from exc
