import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miselect as ms
from miselect import logreg
from miselect.errors import ConfigError, ConsistencyError, DivergenceError
from miselect.logreg import loss_and_gradient


def _reference_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _reference_log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _reference_loss_and_gradient(weights, x, labels, l2):
    """Loss and gradient with a separate exp for log_p and for p."""
    n = x.shape[0]
    logits = x @ weights.T
    log_p = _reference_log_softmax(logits)
    loss = -float(log_p[np.arange(n), labels].mean())
    penalty = weights.copy()
    penalty[:, -1] = 0.0
    loss += 0.5 * l2 * float((penalty**2).sum())
    p = _reference_softmax(logits)
    p[np.arange(n), labels] -= 1.0
    grad = (p.T @ x) / n + l2 * penalty
    return loss, grad


def _reference_train(data, retained, learning_rate=0.1, epochs=300, l2=1e-4, batch_size=None,
                     seed=0):
    """Two calls per full-batch epoch: one to step, one to record the loss."""
    x = data.features[retained]
    labels = data.labels[retained]
    n, dim = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    weights = np.zeros((data.num_classes, dim + 1))
    rng = np.random.default_rng(seed)
    batch = n if batch_size is None else min(batch_size, n)
    history = []
    for epoch in range(epochs):
        order = np.arange(n) if batch == n else rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            _, grad = _reference_loss_and_gradient(weights, xb[rows], labels[rows], l2)
            weights = weights - learning_rate * grad
        loss, _ = _reference_loss_and_gradient(weights, xb, labels, l2)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        history.append(loss)
    return weights, tuple(history)


def _blobs(n_per_class=40, classes=2, dim=2, sep=6.0, seed=0):
    ds = ms.generate_synthetic(classes, n_per_class, dim, 0.7, class_separation=sep, seed=seed)
    return ms.LabeledDataset.from_arrays(ds.features, ds.labels)


def test_separable_blobs_reach_perfect_training_accuracy():
    emb = _blobs()
    model = ms.train(emb, epochs=200)
    preds = np.argmax(ms.predict_proba(model, emb.features), axis=1)
    assert (preds == emb.labels).mean() == 1.0


def test_single_sample_memorized():
    emb = ms.LabeledDataset.from_arrays(np.array([[0.6, -0.8]]), [1], num_classes=3)
    model = ms.train(emb, epochs=300)
    probs = ms.predict_proba(model, np.array([0.6, -0.8]))[0]
    assert np.argmax(probs) == 1
    assert probs[1] > 0.9


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(3)
    x = np.hstack([rng.standard_normal((5, 3)), np.ones((5, 1))])
    labels = np.array([0, 2, 1, 2, 0])
    w = rng.standard_normal((3, 4)) * 0.5
    _, grad = loss_and_gradient(w, x, labels, l2=0.01)
    eps = 1e-6
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            lp, _ = loss_and_gradient(wp, x, labels, l2=0.01)
            lm, _ = loss_and_gradient(wm, x, labels, l2=0.01)
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
            assert abs(grad[i, j] - numeric) / denom < 1e-5


def test_zero_weights_uniform_prediction():
    model = ms.LogRegModel(weights=np.zeros((4, 3)), num_classes=4, input_dim=2)
    probs = ms.predict_proba(model, np.array([1.0, -2.0]))[0]
    assert np.argmax(probs) == 0  # tie resolves to the lowest class id
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    model = ms.LogRegModel(weights=rng.standard_normal((5, 4)), num_classes=5, input_dim=3)
    probs = ms.predict_proba(model, rng.standard_normal((20, 3)))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 4))
    model_a = ms.LogRegModel(weights=w, num_classes=3, input_dim=3)
    shift = rng.standard_normal(4)
    model_b = ms.LogRegModel(weights=w + shift, num_classes=3, input_dim=3)
    x = rng.standard_normal(3)
    pa = ms.predict_proba(model_a, x)[0]
    pb = ms.predict_proba(model_b, x)[0]
    assert np.all(np.abs(pa - pb) < 1e-12)


def test_evaluate_counting_and_confusion():
    emb = _blobs(n_per_class=25, classes=4, dim=4)
    # constant model always predicts class 0
    model = ms.LogRegModel(weights=np.zeros((4, 5)), num_classes=4, input_dim=4)
    result = ms.evaluate(model, emb)
    assert result["accuracy"] == 0.25
    assert result["confusion_matrix"].sum() == emb.n
    assert np.all(result["confusion_matrix"][:, 1:] == 0)


def test_evaluate_matches_recount_oracle():
    emb = _blobs(n_per_class=30, classes=3, dim=3, seed=6)
    model = ms.train(emb, epochs=100)
    result = ms.evaluate(model, emb)
    correct = 0
    for i in range(emb.n):
        cls = np.argmax(ms.predict_proba(model, emb.features[i])[0])
        correct += int(cls == emb.labels[i])
    assert result["accuracy"] == correct / emb.n


def test_loss_monotone_with_small_learning_rate():
    emb = _blobs(n_per_class=30, classes=3, dim=3, seed=7)
    model = ms.train(emb, learning_rate=1e-3, epochs=120)
    losses = np.asarray(model.loss_history)
    assert np.all(np.diff(losses) <= 1e-12)


def test_training_deterministic():
    emb = _blobs(n_per_class=30, classes=3, dim=3, seed=8)
    a = ms.train(emb, epochs=50, batch_size=16, seed=123)
    b = ms.train(emb, epochs=50, batch_size=16, seed=123)
    assert np.array_equal(a.weights, b.weights)


def test_retained_subset_and_class_count_from_full_dataset():
    emb = _blobs(n_per_class=20, classes=3, dim=3, seed=9)
    only_two = np.flatnonzero(emb.labels < 2)
    model = ms.train(emb, retained=only_two, epochs=50)
    assert model.num_classes == 3  # absent class stays a valid output
    probs = ms.predict_proba(model, emb.features[:3])
    assert probs.shape == (3, 3)


def test_divergence_reports_epoch():
    emb = _blobs(n_per_class=20, classes=2, dim=2, seed=10, sep=50.0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        ms.train(emb, learning_rate=1e12, epochs=40)
    assert "epoch" in str(err.value)


def test_train_errors():
    emb = _blobs()
    with pytest.raises(ConfigError):
        ms.train(emb, retained=np.array([], dtype=int))
    for retained in ([999], [-1], [0, emb.n]):
        with pytest.raises(ConfigError, match=rf"retained indices must lie in \[0, {emb.n}\)"):
            ms.train(emb, retained=retained)
    with pytest.raises(ConfigError):
        ms.train(emb, learning_rate=0.0)
    with pytest.raises(ConfigError):
        ms.train(emb, epochs=0)
    with pytest.raises(ConsistencyError):
        ms.predict_proba(ms.train(emb, epochs=5), np.zeros(7))


def test_loss_and_gradient_matches_separate_exp_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for n, c, d, scale in [(1, 2, 1, 1.0), (7, 3, 4, 1.0), (50, 6, 16, 10.0), (33, 4, 5, 300.0)]:
        x = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
        w = rng.standard_normal((c, d + 1)) * scale
        labels = rng.integers(0, c, size=n)
        for l2 in (0.0, 1e-4, 0.3):
            loss, grad = loss_and_gradient(w, x, labels, l2)
            ref_loss, ref_grad = _reference_loss_and_gradient(w, x, labels, l2)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3000),
    c=st.integers(2, 12),
    d=st.integers(1, 20),
    present=st.integers(1, 12),
    scale=st.floats(0.0, 300.0),
    l2=st.sampled_from([0.0, 1e-4, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_gradient_matches_reference_bit_for_bit_property(n, c, d, present, scale,
                                                                  l2, seed):
    # C >= 8 switches numpy's row sum to pairwise summation; labels drawn from
    # the first ``present`` classes leave the others absent
    rng = np.random.default_rng(seed)
    x = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
    w = rng.standard_normal((c, d + 1)) * scale
    labels = rng.integers(0, min(present, c), size=n)
    loss, grad = loss_and_gradient(w, x, labels, l2)
    ref_loss, ref_grad = _reference_loss_and_gradient(w, x, labels, l2)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


def test_numpy_sums_short_rows_in_order_and_long_rows_pairwise():
    # the kernel sums fewer than 8 classes over axis 0 of its (C, n) layout,
    # in class order, and relies on numpy's (n, C) row sum doing the same
    # below 8 columns; from 8 on it takes numpy's pairwise row sum. In order,
    # the first row sums to 0 (1 + big rounds to big) where pairing the big
    # values first gives 1, and the second to big where adding the two ones
    # first, as the pairwise sum does, gives big + 2
    big = 2.0**53
    heads = ([1.0, big, -big], [big, 0.0, 1.0, 1.0])
    for c in range(2, 13):
        rows = np.zeros((2, c))
        for row, head in zip(rows, heads):
            row[: min(c, len(head))] = head[:c]
        in_order = [functools.reduce(operator.add, row.tolist()) for row in rows]
        assert np.ascontiguousarray(rows.T).sum(axis=0).tolist() == in_order
        if c < 8:
            assert rows.sum(axis=1).tolist() == in_order
        else:
            assert rows.sum(axis=1).tolist() != in_order


@pytest.mark.parametrize(
    "fit, subset, classes",
    [
        (dict(epochs=60, l2=0.0), False, 4),
        (dict(epochs=60, l2=1e-3), False, 4),
        (dict(epochs=60, batch_size=10_000), False, 4),
        (dict(epochs=60, learning_rate=0.3), True, 4),
        (dict(epochs=25, batch_size=16, seed=123), False, 4),
        # either side of the switch to numpy's pairwise row sum at 8 classes,
        # over enough epochs that a buffer reused stale would show
        (dict(epochs=60, l2=1e-3), False, 2),
        (dict(epochs=60, l2=1e-3), False, 10),
        (dict(epochs=25, batch_size=16, seed=123), False, 10),
    ],
    ids=[
        "full-l2-zero",
        "full-l2",
        "batch-over-n",
        "subset-absent-class",
        "mini-batch",
        "full-2-classes",
        "full-10-classes",
        "mini-batch-10-classes",
    ],
)
def test_training_matches_two_pass_reference_bit_for_bit(fit, subset, classes):
    emb = _blobs(n_per_class=30, classes=classes, dim=max(4, classes), sep=3.0, seed=13)
    retained = np.flatnonzero(emb.labels != 2)[::2] if subset else np.arange(emb.n)
    model = ms.train(emb, retained, **fit)
    weights, history = _reference_train(emb, retained, **fit)
    assert np.array_equal(model.weights, weights)
    assert model.loss_history == history
    assert len(history) == fit["epochs"]


def test_train_holds_one_copy_of_the_retained_rows():
    # 2,000 retained rows of 784 features, in shuffled order across the
    # 256-row chunks that gather them beside their bias column
    rng = np.random.default_rng(15)
    ds = ms.LabeledDataset.from_arrays(rng.uniform(size=(2100, 784)), np.arange(2100) % 10)
    retained = rng.permutation(2100)[:2000]
    tracemalloc.start()
    try:
        model = ms.train(ds, retained, epochs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, dim + 1) design matrix, one 256-row chunk and the small arrays
    # of a fit; a second copy of the rows would double it
    assert peak <= 1.25 * 2000 * 785 * 8
    weights, history = _reference_train(ds, retained, epochs=1)
    assert np.array_equal(model.weights, weights)
    assert model.loss_history == history


def test_divergence_raises_at_reference_epoch():
    emb = _blobs(n_per_class=20, classes=2, dim=2, seed=10, sep=50.0)
    fit = dict(learning_rate=1e12, epochs=40)
    retained = np.arange(emb.n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as ref:
            _reference_train(emb, retained, **fit)
        with pytest.raises(DivergenceError) as err:
            ms.train(emb, retained, **fit)
    assert str(err.value) == str(ref.value)


def test_full_batch_makes_one_loss_and_gradient_call_per_epoch(monkeypatch):
    emb = _blobs(n_per_class=20, classes=3, dim=3, seed=14)
    calls = []

    def counting(*args):
        calls.append(args[1].shape[0])
        return loss_and_gradient(*args)

    monkeypatch.setattr(logreg, "loss_and_gradient", counting)
    ms.train(emb, epochs=37)
    # one priming call, then one per epoch but the last, whose loss takes no gradient
    assert calls == [emb.n] * 37
    calls.clear()
    ms.train(emb, epochs=5, batch_size=16)
    batches = -(-emb.n // 16)
    assert len(calls) == 5 * batches  # the epoch's full-data loss takes no gradient
