import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import miselect as ms
from miselect import ksg, neighbors
from miselect._util import write_json_atomic
from miselect.errors import (ConfigError, ConsistencyError, DegenerateInputError, DomainError,
                             FormatError)
import _oracle

# ---------------------------------------------------------------------------
# frozen high-precision digamma values (40-digit series evaluation, computed
# independently ahead of time)
# ---------------------------------------------------------------------------

DIGAMMA_TABLE = {
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.7: 1.1671535393615113859,
    10.0: 2.2517525890667211076,
    100.0: 4.6001618527380874002,
    0.001: -1000.5755719318103005,
}

EULER_GAMMA = 0.57721566490153286061


def psi_of_int(n):
    """Exact digamma at integers via harmonic numbers: psi(n) = -gamma + H_{n-1}."""
    return -EULER_GAMMA + sum(1.0 / j for j in range(1, n))


@pytest.mark.parametrize("x,expected", sorted(DIGAMMA_TABLE.items()))
def test_digamma_frozen_values(x, expected):
    assert abs(ms.digamma(x) - expected) < 1e-10


def test_digamma_recurrence_identity():
    assert abs(ms.digamma(2.0) - (ms.digamma(1.0) + 1.0)) < 1e-12
    for x in (0.3, 1.7, 4.2):
        assert abs(ms.digamma(x + 1.0) - (ms.digamma(x) + 1.0 / x)) < 1e-12


def test_digamma_array_and_domain():
    xs = np.array([0.5, 1.0, 10.0])
    out = ms.digamma(xs)
    assert out.shape == (3,)
    for v, x in zip(out, xs):
        assert abs(v - DIGAMMA_TABLE[float(x)]) < 1e-10
    with pytest.raises(DomainError):
        ms.digamma(0.0)
    with pytest.raises(DomainError):
        ms.digamma(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        ms.digamma(float("nan"))


def test_digamma_matches_harmonic_numbers_at_integers():
    for n in range(1, 30):
        assert abs(ms.digamma(float(n)) - psi_of_int(n)) < 1e-10


# ---------------------------------------------------------------------------
# 12-point hand instance: term-by-term arithmetic oracle
# ---------------------------------------------------------------------------

HAND_POINTS = np.arange(12, dtype=np.float64)
HAND_LABELS = np.array([0, 1] * 6, dtype=np.int64)


def hand_oracle_scores(points, labels, k):
    """From-scratch evaluation with linear scans and harmonic-number digammas."""
    n = len(points)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        dists = sorted(abs(points[j] - points[i]) for j in same)
        r = dists[k - 1]
        n_x = sum(
            1 for j in range(n) if j != i and abs(points[j] - points[i]) < r
        )
        n_y = len(same)
        scores.append(psi_of_int(k) + psi_of_int(n) - psi_of_int(n_x + 1) - psi_of_int(n_y + 1))
    return np.asarray(scores)


def test_local_scores_match_hand_oracle():
    emb = ms.LabeledDataset.from_arrays(HAND_POINTS[:, None], HAND_LABELS)
    result = ms.score_discrete(emb, 2)
    expected = hand_oracle_scores(HAND_POINTS, HAND_LABELS, 2)
    assert np.all(np.abs(result.local_scores - expected) < 1e-10)
    assert abs(result.global_mi - expected.mean()) < 1e-10
    assert np.all(result.per_sample_n_y == 5)


def test_strict_flag_changes_tied_counts():
    emb = ms.LabeledDataset.from_arrays(HAND_POINTS[:, None], HAND_LABELS)
    strict = ms.score_discrete(emb, 2, strict=True)
    loose = ms.score_discrete(emb, 2, strict=False)
    # integer spacing produces exact ties at the radius, so <= counts more
    assert np.all(loose.per_sample_n_x >= strict.per_sample_n_x)
    assert np.any(loose.per_sample_n_x > strict.per_sample_n_x)
    assert loose.global_mi != strict.global_mi


# ---------------------------------------------------------------------------
# analytic and statistical checks
# ---------------------------------------------------------------------------

def plugin_histogram_mi(values, labels, bins=40):
    """Plug-in MI estimate between a 1-D variable and discrete labels."""
    edges = np.linspace(values.min(), values.max() + 1e-9, bins + 1)
    classes = np.unique(labels)
    joint = np.zeros((len(classes), bins))
    for row, c in enumerate(classes):
        joint[row], _ = np.histogram(values[labels == c], bins=edges)
    p = joint / joint.sum()
    px = p.sum(axis=0, keepdims=True)
    py = p.sum(axis=1, keepdims=True)
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / (py @ px)[mask])).sum())


def _separated(num_classes, per_class, seed, stddev=0.01, sep=100.0, dim=4):
    ds = ms.generate_synthetic(num_classes, per_class, dim, stddev, class_separation=sep,
                               seed=seed)
    return ms.LabeledDataset.from_arrays(ds.features, ds.labels)


def test_two_cluster_limit_is_ln2():
    emb = _separated(2, 100, seed=0)
    result = ms.score_discrete(emb, 3)
    assert abs(result.global_mi - math.log(2)) < 0.05
    plugin = plugin_histogram_mi(emb.features[:, 0], emb.labels)
    assert abs(result.global_mi - plugin) < 0.05


def test_independent_labels_give_zero_mi():
    rng = np.random.default_rng(100)
    pts = rng.standard_normal((500, 3))
    labels = rng.integers(0, 4, 500)
    emb = ms.LabeledDataset.from_arrays(pts, labels)
    result = ms.score_discrete(emb, 3)
    assert abs(result.global_mi) < 0.05


def test_onehot_matches_discrete_with_large_scale():
    emb = _separated(3, 60, seed=4, stddev=0.5, sep=10.0)
    span = float(emb.features.max() - emb.features.min())
    discrete = ms.score_discrete(emb, 3)
    onehot = ms.score_onehot(emb, 3, label_scale=2.0 * span)
    assert abs(onehot.global_mi - discrete.global_mi) < 0.1
    assert onehot.variant == "onehot_continuous"
    assert onehot.label_scale == 2.0 * span


def test_onehot_independent_labels_zero():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((400, 2))
    labels = rng.integers(0, 3, 400)
    emb = ms.LabeledDataset.from_arrays(pts, labels)
    result = ms.score_onehot(emb, 3, label_scale=50.0)
    assert abs(result.global_mi) < 0.05


def test_continuous_gaussian_closed_form():
    rho = 0.9
    target = -0.5 * math.log(1 - rho * rho)
    rng = np.random.default_rng(0)
    xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2000)
    result = ms.score_continuous(xy[:, 0], xy[:, 1], 3)
    assert abs(result.global_mi - target) < 0.05


def test_estimator_consistency_error_shrinks_with_n():
    rho = 0.9
    target = -0.5 * math.log(1 - rho * rho)

    def mean_abs_error(n):
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)
            errs.append(abs(ms.score_continuous(xy[:, 0], xy[:, 1], 3).global_mi - target))
        return float(np.mean(errs))

    assert mean_abs_error(4000) <= mean_abs_error(500)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_global_is_mean_of_locals():
    emb = _separated(3, 50, seed=7, stddev=1.0, sep=5.0)
    result = ms.score_discrete(emb, 3)
    finite = result.local_scores[~result.degenerate]
    assert abs(result.global_mi - math.fsum(finite) / len(finite)) < 1e-12


def test_permutation_invariance():
    emb = _separated(3, 40, seed=8, stddev=1.0, sep=5.0)
    result = ms.score_discrete(emb, 3)
    rng = np.random.default_rng(1)
    perm = rng.permutation(emb.n)
    emb_p = ms.LabeledDataset.from_arrays(emb.features[perm], emb.labels[perm])
    result_p = ms.score_discrete(emb_p, 3)
    assert np.all(np.abs(result_p.local_scores - result.local_scores[perm]) < 1e-12)
    assert abs(result_p.global_mi - result.global_mi) < 1e-12


def test_label_permutation_symmetry():
    emb = _separated(4, 30, seed=9, stddev=1.0, sep=6.0)
    result = ms.score_discrete(emb, 3)
    relabel = np.array([2, 0, 3, 1])  # bijection on class ids
    emb_r = ms.LabeledDataset.from_arrays(emb.features, relabel[emb.labels])
    result_r = ms.score_discrete(emb_r, 3)
    assert np.array_equal(result_r.local_scores, result.local_scores)


def _score_both(features, labels, k, strict, label_scale):
    """score_discrete and score_onehot on one labeled point set."""
    ds = ms.LabeledDataset.from_arrays(features, labels)
    return (ms.score_discrete(ds, k, strict=strict),
            ms.score_onehot(ds, k, label_scale, strict=strict))


def _assert_same_scores(a, b, perm=slice(None)):
    """b's per-sample outputs are a's, reordered by ``perm``."""
    for field in ("local_scores", "per_sample_n_x", "per_sample_n_y", "k_effective",
                  "degenerate"):
        assert np.array_equal(getattr(b, field), getattr(a, field)[perm]), field


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_invariants(data):
    """Scores permute with the samples and do not change under class-id
    relabelling, dyadic translation or power-of-two scaling.

    The points lie on a grid of quarter steps, so translation and scaling
    are exact in floating point and every invariant holds bit for bit;
    only the global mean of permuted scores sums in another order.
    """
    k = data.draw(st.integers(1, 3), label="k")
    strict = data.draw(st.booleans(), label="strict")
    # classes of size 1, 2 and k among others; the first always has a neighbour
    sizes = [data.draw(st.sampled_from([2, k + 1, 5]), label="first class size")]
    sizes += data.draw(st.lists(st.sampled_from([1, 2, k, k + 1]), max_size=3),
                       label="other class sizes")
    n = sum(sizes)
    assume(n >= k + 2)
    d = data.draw(st.integers(1, 3), label="d")
    grid = data.draw(st.lists(st.integers(-6, 6), min_size=n * d, max_size=n * d),
                     label="grid")
    points = 0.25 * np.asarray(grid, dtype=np.float64).reshape(n, d)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    label_scale = 0.25 * data.draw(st.integers(1, 16), label="label_scale / 0.25")
    base = _score_both(points, labels, k, strict, label_scale)

    perm = np.asarray(data.draw(st.permutations(range(n)), label="sample permutation"))
    for a, b in zip(base, _score_both(points[perm], labels[perm], k, strict, label_scale)):
        _assert_same_scores(a, b, perm)
        assert abs(a.global_mi - b.global_mi) <= 1e-12

    relabel = np.asarray(data.draw(st.permutations(range(len(sizes))), label="relabel"))
    shift = 0.25 * data.draw(st.integers(-64, 64), label="shift / 0.25")
    scale = 2.0 ** data.draw(st.integers(-4, 4), label="log2 scale")
    for moved in (_score_both(points, relabel[labels], k, strict, label_scale),
                  _score_both((points + shift) * scale, labels, k, strict, label_scale * scale)):
        for a, b in zip(base, moved):
            _assert_same_scores(a, b)
            assert a.global_mi == b.global_mi


def _joint_onehot(ds, k, label_scale, strict, jitter_seed):
    """score_onehot by definition: the continuous estimator on the joint space."""
    onehot = np.eye(ds.num_classes)[ds.labels] * label_scale
    general = ms.score_continuous(ds.features, onehot, k, strict=strict, jitter_seed=jitter_seed)
    return replace(general, variant=ksg.VARIANT_ONEHOT, label_scale=float(label_scale))


# at least 200 examples, and the "contract" profile's count when it is larger
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_onehot_equals_joint_space_estimator(data):
    """score_onehot equals the joint-space estimator bit for bit in every
    field, whether or not its per-class route applies: with classes of k
    members or fewer, with label_scale below some kth radii, with ties and
    duplicate points on a quarter grid, and with jitter."""
    k = data.draw(st.integers(1, 3), label="k")
    strict = data.draw(st.booleans(), label="strict")
    # half the draws keep every class above k members, as the route needs
    smallest = data.draw(st.sampled_from([1, k + 1]), label="smallest allowed class")
    sizes = data.draw(st.lists(st.integers(smallest, k + 2), min_size=1, max_size=4),
                      label="class sizes")
    n = sum(sizes)
    assume(n >= k + 2)
    d = data.draw(st.integers(1, 3), label="d")
    grid = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d),
                     label="grid")
    points = 0.25 * np.asarray(grid, dtype=np.float64).reshape(n, d)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    label_scale = 0.25 * data.draw(st.integers(1, 12), label="label_scale / 0.25")
    jitter_seed = data.draw(st.sampled_from([None, None, 3]), label="jitter_seed")
    ds = ms.LabeledDataset.from_arrays(points, labels)

    got = ms.score_onehot(ds, k, label_scale, strict=strict, jitter_seed=jitter_seed)
    _assert_identical(got, _joint_onehot(ds, k, label_scale, strict, jitter_seed))


def _assert_identical(got, want):
    """Every field of ``got`` is ``want``'s, bit for bit and of the same type."""
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("label_scale, per_class", [(100.0, True), (1e-3, False)])
def test_onehot_per_class_route_skips_the_joint_space(monkeypatch, label_scale, per_class):
    emb = _separated(3, 20, seed=4, stddev=1.0, sep=4.0)
    want = _joint_onehot(emb, 3, label_scale, True, None)
    calls, built = [], []
    joint_counts, score_set = ksg._joint_counts, ksg.MIScoreSet
    monkeypatch.setattr(ksg, "_joint_counts",
                        lambda *a, **kw: calls.append(1) or joint_counts(*a, **kw))
    monkeypatch.setattr(ksg, "MIScoreSet", lambda **kw: built.append(1) or score_set(**kw))
    got = ms.score_onehot(emb, 3, label_scale)
    assert calls == ([] if per_class else [1])
    assert np.array_equal(got.local_scores, want.local_scores)
    assert got.per_sample_n_y.tolist() == want.per_sample_n_y.tolist()
    # jitter always takes the joint-space pass, and its counts build the one score set
    calls.clear(), built.clear()
    ms.score_onehot(emb, 3, label_scale, jitter_seed=1)
    assert calls == [1] and built == [1]


@pytest.mark.parametrize("strict", [True, False])
def test_onehot_kth_radius_equal_to_label_scale(strict):
    # every kth radius is 1.0 = label_scale: the per-class route applies, and
    # only non-strict counting takes in the other class in y
    ds = ms.LabeledDataset.from_arrays(np.array([[0.0], [1.0], [5.0], [6.0]]), [0, 0, 1, 1])
    got = ms.score_onehot(ds, 1, 1.0, strict=strict)
    assert got.per_sample_n_y.tolist() == ([1] * 4 if strict else [3] * 4)
    _assert_same_scores(_joint_onehot(ds, 1, 1.0, strict, None), got)


def test_structure_choice_does_not_change_scores(monkeypatch):
    """Scores do not depend on the bulk kernel's row blocks, and their
    neighbour counts equal the linear-scan oracle's."""
    emb = _separated(3, 40, seed=10, stddev=1.0, sep=4.0)
    x, n, k = emb.features, emb.n, 3
    joint = np.hstack([x, np.eye(3)[emb.labels] * 100.0])
    same_class_kth = np.empty(n)
    for c in range(3):
        members = emb.labels == c
        same_class_kth[members] = _oracle.kth_distances(x, k, members)[members]
    oracle_nx = _oracle.radius_counts(x, same_class_kth).tolist()
    oracle_onehot_nx = _oracle.radius_counts(x, _oracle.kth_distances(joint, k)).tolist()
    results = []
    for budget in (1, 8 * n * 7, 8 * n * n):  # 1 row, 7 rows (N=120), all rows
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        a = ms.score_discrete(emb, k)
        c = ms.score_onehot(emb, k, label_scale=100.0)
        assert a.per_sample_n_x.tolist() == oracle_nx
        assert c.per_sample_n_x.tolist() == oracle_onehot_nx
        results.append((a, c))
    (a, c), rest = results[0], results[1:]
    for b, d in rest:
        assert np.array_equal(a.local_scores, b.local_scores)
        assert a.global_mi == b.global_mi
        assert np.array_equal(c.local_scores, d.local_scores)


@pytest.mark.parametrize("jitter_seed", [None, 2])
@pytest.mark.parametrize("strict", [True, False])
def test_joint_counts_equal_the_linear_scan_oracle(monkeypatch, strict, jitter_seed):
    """The joint route's n_x and n_y equal the linear-scan oracle's: the kth
    distance in the jittered joint space, counted in each part, for
    duplicate points and radii at the label scale, under row blocks of one
    row and of all rows."""
    n, k = 36, 3
    x = 0.25 * np.random.default_rng(7).integers(-3, 4, size=(n, 2))
    assert len(np.unique(x, axis=0)) < n
    y = np.eye(3)[np.arange(n) % 3] * 0.25
    joint = neighbors.add_jitter(np.hstack([x, y]), jitter_seed)
    eps = _oracle.kth_distances(joint, k)
    want = [_oracle.radius_counts(part, eps, strict).tolist()
            for part in (joint[:, :2], joint[:, 2:])]
    # some radii take in other classes in y
    assert max(want[1]) > n // 3 - 1
    for budget in (1, 8 * n * n):  # 1 row, all rows
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", budget)
        got = ksg._joint_counts(x, y, k, strict, jitter_seed)
        assert [counts.tolist() for counts in got] == want


def test_scorers_reject_features_without_columns():
    # a LabeledDataset, which score_discrete takes, cannot be built without columns
    with pytest.raises(ConsistencyError, match="dim >= 1"):
        ms.LabeledDataset.from_arrays(np.empty((6, 0)), [0, 0, 0, 1, 1, 1])
    with pytest.raises(ConfigError, match="non-empty 2-D"):
        ms.score_continuous(np.empty((6, 0)), np.arange(6.0), 1)


def test_noise_monotonic_in_flip_rate():
    for seed in range(3):
        ds = ms.generate_synthetic(4, 100, 8, 0.5, class_separation=10.0, seed=seed)
        mis = []
        for rate in (0.0, 0.2, 0.5, 0.8):
            noisy = ms.flip_labels(ds, rate, seed=100 + seed)
            model = ms.fit_pca(noisy, 8)
            mis.append(ms.score_discrete(ms.transform(model, noisy), 3).global_mi)
        assert mis[0] > mis[1] > mis[2] > mis[3]


def ranking_auc(clean_scores, corrupted_scores):
    """Probability that a random clean sample out-scores a random corrupted one."""
    both = np.concatenate([corrupted_scores, clean_scores])
    order = both.argsort(kind="stable")
    ranks = np.empty(len(both))
    ranks[order] = np.arange(1, len(both) + 1)
    # midranks for ties
    for v in np.unique(both):
        tie = both == v
        if tie.sum() > 1:
            ranks[tie] = ranks[tie].mean()
    n_c = len(corrupted_scores)
    n_k = len(clean_scores)
    rank_sum = ranks[n_c:].sum()
    return (rank_sum - n_k * (n_k + 1) / 2) / (n_k * n_c)


def test_flipped_samples_score_lower():
    for seed in range(3):
        ds = ms.generate_synthetic(4, 100, 8, 0.5, class_separation=10.0, seed=seed)
        noisy = ms.flip_labels(ds, 0.1, seed=200 + seed)
        model = ms.fit_pca(noisy, 8)
        scores = ms.score_discrete(ms.transform(model, noisy), 3)
        flipped = noisy.label_flipped
        assert scores.local_scores[flipped].mean() < scores.local_scores[~flipped].mean()
        assert ranking_auc(scores.local_scores[~flipped], scores.local_scores[flipped]) >= 0.85


# ---------------------------------------------------------------------------
# degenerate classes, summaries, artifacts
# ---------------------------------------------------------------------------

def test_small_class_fallback_and_singleton_sentinel():
    pts = np.array([[0.0], [0.1], [0.2], [0.3], [5.0], [5.1], [99.0]])
    labels = np.array([0, 0, 0, 0, 1, 1, 2])
    emb = ms.LabeledDataset.from_arrays(pts, labels)
    result = ms.score_discrete(emb, 3)
    # class 0 has enough members for the requested k
    assert np.all(result.k_effective[labels == 0] == 3)
    # class 1 has 2 members: k drops to 1 for them
    assert np.all(result.k_effective[labels == 1] == 1)
    assert result.k_substitutions == 2
    # singleton class 2 is flagged and scored with the sentinel
    assert result.degenerate[6]
    assert result.local_scores[6] == -np.inf
    finite = result.local_scores[~result.degenerate]
    assert abs(result.global_mi - finite.mean()) < 1e-12


def test_score_requires_enough_samples():
    emb = ms.LabeledDataset.from_arrays(np.zeros((3, 1)), [0, 0, 1])
    with pytest.raises(ConfigError):
        ms.score_discrete(emb, 3)
    with pytest.raises(ConfigError):
        ms.score_continuous(np.zeros((3, 1)), np.zeros((3, 1)), 3)


def two_pass_stats(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def test_per_class_summary_constant_and_single_class():
    scores = np.full(6, 2.5)
    labels = np.array([0, 0, 1, 1, 2, 2])
    summary = ms.per_class_summary(scores, labels)
    for c in (0, 1, 2):
        assert summary[c]["mean"] == 2.5 and summary[c]["stddev"] == 0.0
    single = ms.per_class_summary(np.array([1.0, 2.0]), np.array([0, 0]))
    assert single[0] == single["overall"]


def test_per_class_summary_matches_two_pass_oracle():
    rng = np.random.default_rng(17)
    scores = rng.standard_normal(200)
    labels = rng.integers(0, 5, 200)
    summary = ms.per_class_summary(scores, labels)
    for c in range(5):
        vals = scores[labels == c].tolist()
        mean, std = two_pass_stats(vals)
        assert abs(summary[c]["mean"] - mean) < 1e-12
        assert abs(summary[c]["stddev"] - std) < 1e-12
        assert summary[c]["count"] == len(vals)
        assert summary[c]["min"] == min(vals) and summary[c]["max"] == max(vals)


def test_score_artifact_round_trip(tmp_path):
    """An artifact saved and loaded with the run's points and settings holds
    the scorer's set, field for field: discrete with a reduced k and a
    degenerate sample, and one-hot with jitter and a derived label scale."""
    pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [99.0]])
    labels = np.array([0, 0, 0, 1, 1, 2])
    emb = ms.LabeledDataset.from_arrays(pts, labels)
    content = ms.dataset_content_hash(emb.features, emb.labels)
    path = tmp_path / "scores.json"
    for settings in ({"k": 3}, {"k": 2, "variant": ksg.VARIANT_ONEHOT, "strict": False,
                                "jitter_seed": 7}):
        result = ms.score_dataset(emb, **settings)
        ms.save_scores(result, path, dataset_hash=content)
        loaded, stored_hash = ms.load_scores(path, emb, **settings)
        assert stored_hash == content
        _assert_identical(loaded, result)


def test_score_artifact_malformed_raises_format_error(tmp_path):
    emb = ms.LabeledDataset.from_arrays(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]))
    path = tmp_path / "scores.json"
    ms.save_scores(ms.score_discrete(emb, 2), path)
    good = path.read_text()
    payload = json.loads(good)
    texts = [good[: len(good) // 2], "", "[1, 2]", "\xff",
             json.dumps({**payload, "schema_version": 1}),
             json.dumps({key: value for key, value in payload.items() if key != "n_x"})]
    # n_x below 0 (digamma's domain) or above N - 1, one count short, and not integers
    for n_x in ([-1] * 6, [6] * 6, [2] * 5, ["2"] * 6, [2.0] * 6, [None] * 6, 2):
        texts.append(json.dumps({**payload, "n_x": n_x}))
    for text in texts:
        path.write_text(text, encoding="latin-1")
        with pytest.raises(FormatError):
            ms.load_scores(path, emb, 2)
    path.write_text(good)  # a one-hot entry holds n_y too
    with pytest.raises(FormatError, match="n_y"):
        ms.load_scores(path, emb, 2, variant=ksg.VARIANT_ONEHOT)


# a field and the value every sample's entry of it is set to
@pytest.mark.parametrize("key, value", [
    ("global_mi", 0.0),
    ("local_scores", 0.0),
    ("k_effective", 0),
    ("degenerate", True),
    ("n_x", 5),
])
def test_score_artifact_whose_scores_its_counts_do_not_give_raises_format_error(tmp_path,
                                                                                 key, value):
    """Only an artifact's counts are read: a global MI, local scores,
    per-sample k or degenerate flags stored beside them do not change the
    loaded set, and an edited n_x within [0, N - 1] is taken on trust, with
    0 on the degenerate samples."""
    # two singleton classes: degenerate samples with k_effective 0 among the others
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 3])
    emb = ms.LabeledDataset.from_arrays(np.arange(8.0)[:, None], labels)
    path = tmp_path / "scores.json"
    want = ms.score_discrete(emb, 2)
    ms.save_scores(want, path)
    payload = json.loads(path.read_text())
    payload[key] = value if key == "global_mi" else [value] * len(labels)
    path.write_text(json.dumps(payload))
    got = ms.load_scores(path, emb, 2)[0]
    if key == "n_x":
        assert got.per_sample_n_x.tolist() == [5] * 6 + [0, 0]
        want = ksg._from_counts(emb, np.array([5] * 8), None, 2, ksg.VARIANT_DISCRETE, True,
                                None, None)
    _assert_identical(got, want)


def test_score_artifact_write_is_atomic(tmp_path, monkeypatch):
    emb = ms.LabeledDataset.from_arrays(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]))
    result = ms.score_discrete(emb, 2)
    path = tmp_path / "scores.json"
    ms.save_scores(result, path)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]

    def interrupted(payload, **kwargs):
        # the text is encoded before the temporary file is opened
        assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]
        raise KeyboardInterrupt

    monkeypatch.setattr(ksg.json, "dumps", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ms.save_scores(result, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]


def test_atomic_json_bytes_match_json_dump(tmp_path):
    payload = {
        "b": {"z": [1, None, -0.0, True], "a": 5e-324, "m": {"y": 2.2250738585072014e-308 / 3}},
        "a": [1e308, -1e308, 0.1, 123456789012345678901234567890, "x\u00e9\n"],
        "c": None,
    }
    expected = tmp_path / "expected.json"
    with open(expected, "w", newline="\n") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    got = tmp_path / "got.json"
    write_json_atomic(got, payload)
    assert got.read_bytes() == expected.read_bytes()


def test_content_hash_sensitivity():
    a = ms.dataset_content_hash(np.zeros((3, 2)), [0, 1, 0])
    b = ms.dataset_content_hash(np.zeros((3, 2)), [0, 1, 1])
    c = ms.dataset_content_hash(np.ones((3, 2)), [0, 1, 0])
    assert a != b and a != c


def test_score_dataset_dispatch():
    emb = _separated(2, 20, seed=11, stddev=0.5, sep=8.0)
    d = ms.score_dataset(emb, 3, variant="discrete_label")
    assert d.variant == "discrete_label"
    o = ms.score_dataset(emb, 3, variant="onehot_continuous")
    assert o.variant == "onehot_continuous" and o.label_scale is not None
    with pytest.raises(ConfigError):
        ms.score_dataset(emb, 3, variant="kernel")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_derived_label_scale_rejects_a_span_past_float64():
    """Features at -1e308 and 1e308 span more than float64 holds: the derived
    one-hot label_scale fails on the spread, without a leaked overflow warning,
    rather than on a label_scale the caller never gave."""
    pts = np.array([[-1e308], [-1e308], [1e308], [1e308]])
    emb = ms.LabeledDataset.from_arrays(pts, np.array([0, 1, 0, 1]))
    with pytest.raises(DegenerateInputError, match="spread overflows float64"):
        ms.score_dataset(emb, 1, variant="onehot_continuous")


def test_global_mi_bits_conversion():
    emb = _separated(2, 50, seed=12)
    result = ms.score_discrete(emb, 3)
    assert abs(result.global_mi_bits - result.global_mi / math.log(2)) < 1e-15
