import json
import math

import numpy as np
import pytest

import miselect as ms
from miselect import ksg, neighbors
from miselect.errors import ConfigError, DomainError, FormatError

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
    spec = ms.SyntheticSpec.separated(num_classes, per_class, dim, sep, stddev, seed)
    ds = ms.generate_synthetic(spec)
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


def test_structure_choice_does_not_change_scores(monkeypatch):
    """Scores do not depend on the bulk kernel's row blocks, and their
    neighbour counts equal the single-query oracle's."""
    emb = _separated(3, 40, seed=10, stddev=1.0, sep=4.0)
    n, k = emb.n, 3
    joint = np.hstack([emb.features, np.eye(3)[emb.labels] * 100.0])
    eps = [ms.NeighborIndex(joint).knn(i, k).distances[-1] for i in range(n)]
    x_index = ms.NeighborIndex(emb.features)
    oracle_nx = [
        x_index.count_within(i, x_index.knn_among(i, k, emb.labels == emb.labels[i]).distances[-1])
        for i in range(n)
    ]
    oracle_onehot_nx = [x_index.count_within(i, eps[i]) for i in range(n)]
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


def test_noise_monotonic_in_flip_rate():
    for seed in range(3):
        spec = ms.SyntheticSpec.separated(4, 100, 8, 10.0, 0.5, seed)
        ds = ms.generate_synthetic(spec)
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
        spec = ms.SyntheticSpec.separated(4, 100, 8, 10.0, 0.5, seed)
        ds = ms.generate_synthetic(spec)
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
    pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [99.0]])
    labels = np.array([0, 0, 0, 1, 1, 2])
    emb = ms.LabeledDataset.from_arrays(pts, labels)
    result = ms.score_discrete(emb, 3)
    content = ms.dataset_content_hash(emb.features, emb.labels)
    path = tmp_path / "scores.json"
    ms.save_scores(result, path, dataset_hash=content)
    loaded, stored_hash = ms.load_scores(path)
    assert stored_hash == content
    assert np.array_equal(loaded.local_scores, result.local_scores)
    assert loaded.global_mi == result.global_mi
    assert np.array_equal(loaded.per_sample_n_x, result.per_sample_n_x)
    assert np.array_equal(loaded.degenerate, result.degenerate)
    assert loaded.variant == result.variant and loaded.k == result.k


def test_score_artifact_malformed_raises_format_error(tmp_path):
    emb = ms.LabeledDataset.from_arrays(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]))
    path = tmp_path / "scores.json"
    ms.save_scores(ms.score_discrete(emb, 2), path)
    good = path.read_text()
    payload = json.loads(good)
    del payload["n_x"]
    for text in (good[: len(good) // 2], "", "[1, 2]", "\xff", json.dumps(payload)):
        path.write_text(text, encoding="latin-1")
        with pytest.raises(FormatError):
            ms.load_scores(path)


def test_score_artifact_write_is_atomic(tmp_path, monkeypatch):
    emb = ms.LabeledDataset.from_arrays(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]))
    result = ms.score_discrete(emb, 2)
    path = tmp_path / "scores.json"
    ms.save_scores(result, path)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]

    def interrupted(payload, f, **kwargs):
        f.write('{"schema_version": 1, "local_')
        raise KeyboardInterrupt

    monkeypatch.setattr(ksg.json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ms.save_scores(result, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]


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


def test_global_mi_bits_conversion():
    emb = _separated(2, 50, seed=12)
    result = ms.score_discrete(emb, 3)
    assert abs(result.global_mi_bits - result.global_mi / math.log(2)) < 1e-15
