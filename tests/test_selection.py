import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
import miselect as ms
from miselect._util import class_shares
from miselect.errors import ConfigError, ConsistencyError
from miselect.selection import BANDS, SCOPES

SCORES = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
LABELS = np.zeros(5, dtype=np.int64)


def _plan(scope, band, ratio, seed=None):
    return ms.SelectionPlan(scope=scope, band=band, retention_ratio=ratio, seed=seed)


def test_full_retention_keeps_everything():
    for band in ("top", "middle", "bottom", "random"):
        plan = _plan("global", band, 1.0, seed=0)
        result = ms.select(SCORES, LABELS, plan)
        assert result.retained_indices.tolist() == [0, 1, 2, 3, 4]


def test_band_examples_on_descending_scores():
    top = ms.select(SCORES, LABELS, _plan("global", "top", 0.4))
    assert top.retained_indices.tolist() == [0, 1]
    bottom = ms.select(SCORES, LABELS, _plan("global", "bottom", 0.4))
    assert bottom.retained_indices.tolist() == [3, 4]
    middle = ms.select(SCORES, LABELS, _plan("global", "middle", 0.4))
    assert middle.retained_indices.tolist() == [1, 2]


def test_class_wise_proportional_quotas():
    rng = np.random.default_rng(0)
    labels = np.array([0] * 60 + [1] * 40)
    scores = rng.standard_normal(100)
    result = ms.select(scores, labels, _plan("class_wise", "top", 0.5))
    assert result.per_class_counts.tolist() == [30, 20]
    assert result.size == 50


def test_ties_break_by_lower_index():
    scores = np.array([1.0, 1.0, 1.0, 0.5])
    labels = np.zeros(4, dtype=np.int64)
    top = ms.select(scores, labels, _plan("global", "top", 0.5))
    assert top.retained_indices.tolist() == [0, 1]
    bottom = ms.select(scores, labels, _plan("global", "bottom", 0.75))
    # 0.5 is lowest, then tied 1.0s resolve to indices 0, 1
    assert bottom.retained_indices.tolist() == [0, 1, 3]


def test_degenerate_sentinel_sorts_below_finite():
    scores = np.array([0.2, -np.inf, 0.7, -5.0])
    labels = np.zeros(4, dtype=np.int64)
    top = ms.select(scores, labels, _plan("global", "top", 0.75))
    assert top.retained_indices.tolist() == [0, 2, 3]
    bottom = ms.select(scores, labels, _plan("global", "bottom", 0.25))
    assert bottom.retained_indices.tolist() == [1]


def test_random_band_seeded_and_stratified_variant():
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1, 2], 30)
    scores = rng.standard_normal(90)
    a = ms.select(scores, labels, _plan("global", "random", 0.5, seed=7))
    b = ms.select(scores, labels, _plan("global", "random", 0.5, seed=7))
    assert np.array_equal(a.retained_indices, b.retained_indices)
    c = ms.select(scores, labels, _plan("global", "random", 0.5, seed=8))
    assert not np.array_equal(a.retained_indices, c.retained_indices)
    strat = ms.select(scores, labels, _plan("class_wise", "random", 0.5, seed=9))
    assert strat.per_class_counts.tolist() == [15, 15, 15]


def test_selection_errors():
    with pytest.raises(ConfigError):
        _plan("global", "top", 0.0)
    with pytest.raises(ConfigError):
        _plan("global", "top", 1.5)
    with pytest.raises(ConfigError):
        _plan("nearby", "top", 0.5)
    with pytest.raises(ConfigError):
        _plan("global", "best", 0.5)
    with pytest.raises(ConfigError):
        ms.select(SCORES, LABELS, _plan("global", "random", 0.5))  # no seed
    with pytest.raises(ConfigError):
        ms.select(np.array([1.0] * 100), np.zeros(100, dtype=int),
                  _plan("global", "top", 0.004))  # rounds to zero
    with pytest.raises(ConsistencyError):
        ms.select(SCORES, np.zeros(3, dtype=int), _plan("global", "top", 0.5))


def test_a_label_outside_num_classes_is_rejected():
    """A label at or above num_classes, or below 0, falls in no class's
    share; class-wise top at ratio 1.0 would keep 3 of these 4 samples."""
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    for scope in ("global", "class_wise"):
        with pytest.raises(ConsistencyError, match="num_classes"):
            ms.select(scores, [0, 0, 1, 2], _plan(scope, "top", 1.0), num_classes=2)
        with pytest.raises(ConsistencyError, match="num_classes"):
            ms.select(scores, [0, 0, -1, 1], _plan(scope, "top", 1.0))


def test_mixed_sign_scores_and_middle_window_formula():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(37)
    labels = np.zeros(37, dtype=np.int64)
    m = round(0.4 * 37)
    result = ms.select(scores, labels, _plan("global", "middle", 0.4))
    order = np.lexsort((np.arange(37), -scores))
    start = (37 - m) // 2
    expected = np.sort(order[start : start + m])
    assert result.retained_indices.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# invariant battery on random cases (full 1000-case battery lives in the
# acceptance suite)
# ---------------------------------------------------------------------------

def _random_case(rng):
    n = int(rng.integers(2, 120))
    classes = int(rng.integers(1, 5))
    labels = rng.integers(0, classes, n)
    scores = np.round(rng.standard_normal(n), 1)  # rounded: plenty of ties
    if rng.random() < 0.2:
        scores[rng.integers(0, n)] = -np.inf
    return scores, labels.astype(np.int64), classes


def test_selection_invariants_random_battery():
    rng = np.random.default_rng(99)
    for _ in range(150):
        scores, labels, classes = _random_case(rng)
        n = len(scores)
        ratio = float(rng.uniform(0.05, 1.0))
        m = round(ratio * n)
        if m == 0:
            continue
        scope = "global" if rng.random() < 0.5 else "class_wise"
        band = ("top", "middle", "bottom", "random")[int(rng.integers(0, 4))]
        plan = _plan(scope, band, ratio, seed=int(rng.integers(0, 1000)))
        result = ms.select(scores, labels, plan, num_classes=classes)
        # cardinality
        assert result.size == m
        assert len(np.unique(result.retained_indices)) == m
        # class balance for class-wise scope
        if scope == "class_wise":
            counts = np.bincount(labels, minlength=classes)
            for c in range(classes):
                assert abs(result.per_class_counts[c] - m * counts[c] / n) < 1.0 + 1e-9
        # dominance for global top
        if scope == "global" and band == "top":
            kept = np.zeros(n, dtype=bool)
            kept[result.retained_indices] = True
            if (~kept).any():
                assert scores[kept].min() >= scores[~kept].max()


@st.composite
def _labelled_scores(draw):
    """(scores, labels, num_classes or None): few distinct scores, so plenty
    of ties, the -inf sentinel among them, and classes from one sample up,
    some of them empty."""
    num_classes = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    values = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 3.0]) | st.floats(-4.0, 4.0)
    scores = draw(st.lists(values, min_size=n, max_size=n))
    given_classes = draw(st.sampled_from([None, num_classes]))
    return np.array(scores), np.array(labels, dtype=np.int64), given_classes


@settings(deadline=None)
@given(case=_labelled_scores(), scope=st.sampled_from(SCOPES),
       band=st.sampled_from(BANDS), ratio=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
# a single class; a class of one sample whose quota rounds to 0
@example(case=(np.array([1.0, -np.inf, 1.0, 0.5]), np.zeros(4, dtype=np.int64), None),
         scope="class_wise", band="middle", ratio=0.5, seed=0)
@example(case=(np.arange(11.0), np.array([0] * 10 + [1]), 2), scope="class_wise",
         band="bottom", ratio=0.3, seed=0)
# exact remainders 0.8, 0.4, 0.4, 0.4: the second extra sample goes to class
# 1, though 6 * 6 / 15 - 2 is below 0.4 in float64 and 6 * 1 / 15 is not
@example(case=(np.arange(15.0), np.repeat([0, 1, 2, 3], [2, 6, 6, 1]), None),
         scope="class_wise", band="top", ratio=0.4, seed=0)
def test_select_equals_the_per_scope_oracle(case, scope, band, ratio, seed):
    """select keeps the samples, in the order, that the selection rule
    written out per scope and per band keeps."""
    scores, labels, num_classes = case
    plan = _plan(scope, band, ratio, seed)
    m = round(ratio * len(scores))  # Python's round breaks ties to even, as select does
    if m == 0:
        with pytest.raises(ConfigError):
            ms.select(scores, labels, plan, num_classes=num_classes)
        return
    got = ms.select(scores, labels, plan, num_classes=num_classes)
    retained, per_class = _oracle.select(scores, labels, scope, band, m,
                                         num_classes or int(labels.max()) + 1, seed)
    assert got.retained_indices.dtype == np.int64
    assert got.retained_indices.tolist() == retained.tolist()
    assert got.per_class_counts.tolist() == per_class.tolist()


@given(counts=st.lists(st.integers(0, 30), min_size=1, max_size=6).filter(any),
       data=st.data())
def test_class_shares_are_largest_remainder_quotas(counts, data):
    """Quotas sum to m; each is the floor or the ceiling of its class's
    exact share and at most the class size; the ceilings go to the largest
    remainders, ties to the lower class id; a class whose quota is 0 is left
    out, and each class's members are its samples in ascending order."""
    labels = np.array(data.draw(st.permutations(np.repeat(range(len(counts)), counts).tolist())))
    total = len(labels)
    m = data.draw(st.integers(0, total))
    shares = class_shares(labels, len(counts), m)
    classes = [int(labels[members[0]]) for members, _ in shares]
    assert classes == sorted(set(classes))
    quotas = dict.fromkeys(range(len(counts)), 0)
    for c, (members, quota) in zip(classes, shares):
        assert members.tolist() == np.flatnonzero(labels == c).tolist()
        assert quota > 0
        quotas[c] = quota
    assert sum(quotas.values()) == m
    exact = {c: Fraction(m * count, total) for c, count in enumerate(counts)}
    for c, quota in quotas.items():
        assert math.floor(exact[c]) <= quota <= min(math.ceil(exact[c]), counts[c])
    rounded_up = [c for c in quotas if quotas[c] > exact[c]]
    rounded_down = [c for c in quotas if quotas[c] < exact[c]]
    for up in rounded_up:
        for down in rounded_down:
            rem_up, rem_down = exact[up] % 1, exact[down] % 1
            assert rem_up > rem_down or (rem_up == rem_down and up < down)
    for bad in (-1, total + 1):
        with pytest.raises(ValueError):
            class_shares(labels, len(counts), bad)


def test_affine_score_invariance():
    rng = np.random.default_rng(5)
    scores, labels, classes = _random_case(rng)
    plan = _plan("global", "top", 0.5)
    base = ms.select(scores, labels, plan, num_classes=classes)
    shifted = ms.select(scores + 7.5, labels, plan, num_classes=classes)
    scaled = ms.select(scores * 3.0, labels, plan, num_classes=classes)
    assert np.array_equal(base.retained_indices, shifted.retained_indices)
    assert np.array_equal(base.retained_indices, scaled.retained_indices)


def test_nesting_of_top_selections():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal(80)
    labels = np.zeros(80, dtype=np.int64)
    prev = set()
    for ratio in (0.1, 0.3, 0.6, 0.9):
        kept = set(ms.select(scores, labels, _plan("global", "top", ratio)).retained_indices.tolist())
        assert prev <= kept
        prev = kept


def test_selection_result_arrays_are_read_only():
    result = ms.select(SCORES, LABELS, _plan("class_wise", "random", 0.6, seed=0))
    for arr in (result.retained_indices, result.per_class_counts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 4


def test_selection_export(tmp_path):
    result = ms.select(SCORES, LABELS, _plan("global", "top", 0.4))
    json_path = tmp_path / "sel.json"
    idx_path = tmp_path / "sel.idx"
    ms.save_selection(result, json_path=json_path, index_path=idx_path)
    assert idx_path.read_text() == "0\n1\n"
    payload = json.loads(json_path.read_text())
    assert payload["retained_indices"] == [0, 1]
    assert payload["plan"]["band"] == "top"
    assert payload["per_class_counts"] == [2]
