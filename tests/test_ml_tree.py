"""Gini and decision-tree oracle tests: hand-computed splits, ties, invariants, and the
trainers against the reference grower in tree_oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ranguard.ml import AdaBoost, KnnClassifier, RandomForest
from ranguard.ml.tree import DecisionTree, TreeConfig, _grow, _split_costs, rank_codes
from file_oracle import whole_payload
from tree_oracle import decision_path, gini, oracle_adaboost, oracle_costs, oracle_forest, oracle_tree, tree_depth

SMALL = TreeConfig(max_depth=15, min_samples_split=2, min_samples_leaf=1)


def grow(X, y, n_classes, config, w=None, subsample=None, rng=None) -> DecisionTree:
    """One tree grown as the forest and AdaBoost grow theirs: weighted rows, and maybe
    `subsample` features drawn from `rng` at each split. Each row counts once toward the
    sample floors."""
    n = X.shape[0]
    w = np.ones(n) if w is None else w
    draws = np.ones(n, dtype=np.int64)
    return _grow(X, rank_codes(X), np.asarray(y, np.int64), w, n_classes, config, subsample, rng, draws)


# --- gini (the oracle's impurity) ------------------------------------------------

def test_gini_pure_node_is_zero():
    assert gini([10, 0, 0, 0, 0]) == 0.0


def test_gini_uniform_binary():
    assert gini([5, 5]) == 0.5


def test_gini_hand_arithmetic():
    # 1 - (9 + 4 + 1) / 36
    assert gini([3, 2, 1]) == pytest.approx(1 - 14 / 36)


def test_gini_errors():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([0, 0])
    with pytest.raises(ValueError):
        gini([3, -1])


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=8).filter(lambda c: sum(c) > 0))
def test_gini_bounds_and_purity(counts):
    g = gini(counts)
    k = len(counts)
    assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-12
    pure = sum(1 for c in counts if c > 0) == 1
    assert (g == 0.0) == pure


# --- hand-built split oracles ----------------------------------------------------

def test_separable_data_splits_at_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.train(X, y, 2, SMALL)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5
    assert tree.predict([2.4]) == 0 and tree.predict([2.6]) == 1


def test_all_midpoints_cost_checked_by_hand():
    # candidates 1.5 / 2.5 / 3.5 cost 1/3, 0, 1/3 -> picks 2.5
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.train(X, y, 2, SMALL)
    assert len(tree.feature) == 3  # one split is enough
    assert tree_depth(tree) == 1


def test_xor_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = DecisionTree.train(X, y, 2, TreeConfig(2, 2, 1))
    assert (tree.predict_batch(X) == y).all()
    assert tree_depth(tree) == 2


def test_all_identical_labels_single_leaf():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.zeros(10, dtype=int)
    tree = DecisionTree.train(X, y, 2, SMALL)
    assert len(tree.feature) == 1
    assert tree.predict([3.3]) == 0


def test_tie_breaks_to_lower_feature_index():
    # features 1 and 0 both split perfectly; must pick 0
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.train(X, y, 2, SMALL)
    assert tree.feature[0] == 0


def test_tie_breaks_to_lower_threshold():
    # thresholds 1.5 and 2.5 tie at cost 1/3; must pick 1.5
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0])
    tree = DecisionTree.train(X, y, 2, SMALL)
    assert tree.threshold[0] == 1.5


def test_min_samples_leaf_blocks_edge_splits():
    # perfect split at 1.5 forbidden with min_leaf=2; falls back to 2.5
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 1, 1])
    tree = DecisionTree.train(X, y, 2, TreeConfig(15, 2, 2))
    assert tree.threshold[0] == 2.5


def test_min_samples_split_stops_growth():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.train(X, y, 2, TreeConfig(15, 5, 1))
    assert len(tree.feature) == 1
    assert tree.predict([0.0]) == 0  # 2-2 leaf tie -> lowest class index


def test_max_depth_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    y = rng.integers(0, 3, size=300)
    for depth in (1, 2, 5):
        tree = DecisionTree.train(X, y, 3, TreeConfig(depth, 2, 1))
        assert tree_depth(tree) <= depth


def test_a_midpoint_past_the_float_range_does_not_overflow():
    tree = DecisionTree.train([[1e308], [1.7e308]], [0, 1], 2, TreeConfig(3, 2, 1))
    assert float(tree.threshold[0]) == 1e308 * 0.5 + 1.7e308 * 0.5 == 1.35e308
    assert tree.predict([1e308]) == 0 and tree.predict([1.7e308]) == 1
    tree = DecisionTree.train([[-1e308], [-1.7e308]], [0, 1], 2, TreeConfig(3, 2, 1))
    assert float(tree.threshold[0]) == -1.35e308


def test_thresholds_are_midpoints_of_adjacent_values():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3))
    y = rng.integers(0, 2, size=200)
    tree = DecisionTree.train(X, y, 2, TreeConfig(6, 2, 1))
    # each threshold must be the midpoint of the two values straddling it
    # within the data subset that reached that node
    stack = [(0, np.arange(200))]
    checked = 0
    while stack:
        node, idx = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            continue
        thr = float(tree.threshold[node])
        vals = X[idx, f]
        below = vals[vals <= thr]
        above = vals[vals > thr]
        assert below.size and above.size
        assert thr == (below.max() + above.min()) / 2.0
        checked += 1
        stack.append((int(tree.left[node]), idx[vals <= thr]))
        stack.append((int(tree.right[node]), idx[vals > thr]))
    assert checked > 3


def test_weighting_equals_duplication():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, size=60)
    dup = np.concatenate([X, X[:20]]), np.concatenate([y, y[:20]])
    w = np.ones(60)
    w[:20] = 2.0
    t_dup = DecisionTree.train(dup[0], dup[1], 3, TreeConfig(4, 2, 2))
    t_w = grow(X, y, 3, TreeConfig(4, 2, 1), w)
    # same impurity surface -> same first split
    assert t_dup.feature[0] == t_w.feature[0]
    assert t_dup.threshold[0] == t_w.threshold[0]


# --- invariants -------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_tree():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 10.0, size=(500, 5))
    y = ((X[:, 0] > 5) & (X[:, 2] < 3)).astype(int) + (X[:, 4] > 8).astype(int)
    tree = DecisionTree.train(X, y, 3, TreeConfig(8, 4, 1))
    return tree, X, y, rng


def test_batch_matches_single(random_tree):
    tree, X, _, _ = random_tree
    batch = tree.predict_batch(X[:100])
    single = [tree.predict(x) for x in X[:100]]
    assert batch.tolist() == single


def test_piecewise_constant_between_thresholds(random_tree):
    tree, X, _, rng = random_tree
    for x in X[:50]:
        base = tree.predict(x)
        path = decision_path(tree, x)
        x2 = x.copy()
        for f, thr, went_left in path:
            # nudge toward the threshold but never across it
            gap = thr - x2[f]
            x2[f] = x2[f] + 0.5 * gap if went_left else x2[f] + 0.5 * gap
            if went_left:
                assert x2[f] <= thr
            else:
                assert x2[f] > thr
        assert tree.predict(x2) == base


def test_monotone_rescale_leaves_labels_unchanged(random_tree):
    tree, X, y, _ = random_tree
    scale = np.array([2.0, 4.0, 0.5, 8.0, 1.0])
    offset = np.array([1.0, -3.0, 0.0, 100.0, 2.0])
    t2 = DecisionTree.train(X * scale + offset, y, 3, TreeConfig(8, 4, 1))
    queries = X[:200]
    assert (tree.predict_batch(queries) == t2.predict_batch(queries * scale + offset)).all()


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 4))
    y = rng.integers(0, 4, size=150)
    a = DecisionTree.train(X, y, 4, TreeConfig(6, 3, 1))
    b = DecisionTree.train(X, y, 4, TreeConfig(6, 3, 1))
    assert a.to_dict() == b.to_dict()


def test_leaf_counts_match_training_data():
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0, 0, 1, 1, 1])
    tree = DecisionTree.train(X, y, 2, SMALL)
    root_counts = tree.counts[0]
    assert root_counts.tolist() == [2.0, 3.0]
    leaf_totals = sum(
        tree.counts[i].sum() for i in range(len(tree.feature)) if tree.feature[i] < 0
    )
    assert leaf_totals == 5.0


def test_every_leaf_holds_min_samples(random_tree):
    tree, _, _, _ = random_tree
    for i in range(len(tree.feature)):
        if tree.feature[i] < 0:
            assert tree.counts[i].sum() >= 1


# --- the trainers against the oracle grower ---------------------------------------

@st.composite
def training_sets(draw, max_rows: int = 40):
    """Tie-heavy data: few values per column, duplicate rows, maybe a constant column."""
    n_classes = draw(st.integers(2, 6))
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 5))
    distinct = draw(st.integers(1, n))
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=distinct, max_size=distinct))
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from(pool)))
    dup = draw(st.integers(0, n // 2))
    X[n - dup :] = X[:dup]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = pool[0]
    y = draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    return X, y, n_classes


# normalised weights far from whole numbers, as AdaBoost's rounds make them
adaboost_weights = st.floats(1e-3, 1e3).map(lambda v: v / 7.0)

tree_configs = st.builds(TreeConfig, st.integers(1, 8), st.integers(2, 6), st.integers(1, 4))


def same_model(a, b) -> bool:
    # repr keeps the sign of a zero threshold, which == on floats would not
    return repr(whole_payload(a)) == repr(whole_payload(b))


@settings(max_examples=300, deadline=None)
@given(training_sets(), st.data())
def test_split_costs_equal_the_oracle_bit_for_bit(data, draw):
    # the sums' association shows in the costs' last bits long before it flips a split
    X, y, n_classes = data
    n, d = X.shape
    w = draw.draw(st.none() | arrays(np.float64, n, elements=adaboost_weights))
    w = np.ones(n) if w is None else w / w.sum()
    idx = np.flatnonzero(draw.draw(arrays(np.bool_, n)))
    features = np.flatnonzero(draw.draw(arrays(np.bool_, d)))
    assume(idx.size >= 2 and features.size >= 1)
    min_leaf = draw.draw(st.integers(1, 4))
    node_counts = np.bincount(y[idx], weights=w[idx], minlength=n_classes)
    found = _split_costs(rank_codes(X), y, w, idx, features, node_counts, min_leaf, np.ones(n, np.int64))
    ref = list(oracle_costs(X, y, w, idx, features, min_leaf, n_classes))
    if not ref:
        assert found is None
        return
    order, at, fi, cost = found
    assert cost.tobytes() == np.concatenate([c for *_, c in ref]).tobytes()
    assert features[fi].tolist() == [f for f, _, pos, _ in ref for _ in pos]
    assert (at - fi * idx.size + 1).tolist() == [b for *_, pos, _ in ref for b in pos]


@settings(max_examples=300, deadline=None)
@given(training_sets(), tree_configs, st.data())
def test_tree_equals_the_oracle_grower(data, config, draw):
    X, y, n_classes = data
    n, d = X.shape
    w = draw.draw(st.none() | arrays(np.float64, n, elements=adaboost_weights))
    w = None if w is None else w / w.sum()
    subsample = draw.draw(st.none() | st.integers(1, d))
    seed = draw.draw(st.integers(0, 2**32 - 1))
    ours = grow(X, y, n_classes, config, w, subsample, np.random.default_rng(seed))
    ref = oracle_tree(
        X, y, n_classes, config, sample_weight=w, feature_subsample=subsample, rng=np.random.default_rng(seed)
    )
    assert same_model(ours, ref)
    if w is None and subsample is None:
        assert same_model(DecisionTree.train(X, y, n_classes, config), ref)


@settings(max_examples=60, deadline=None)
@given(
    training_sets(),
    tree_configs,
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_forest_equals_the_oracle_grower(data, config, n_trees, seed):
    X, y, n_classes = data
    assert same_model(
        RandomForest.train(X, y, n_classes, config, n_trees, seed),
        oracle_forest(X, y, n_classes, config, n_trees, seed),
    )


@settings(max_examples=100, deadline=None)
@given(training_sets(), st.integers(1, 5))
def test_adaboost_equals_the_oracle_grower(data, rounds):
    X, y, n_classes = data
    try:
        ref = oracle_adaboost(X, y, n_classes, rounds)
    except ValueError:
        with pytest.raises(ValueError, match="chance"):
            AdaBoost.train(X, y, n_classes, rounds)
        return
    assert same_model(AdaBoost.train(X, y, n_classes, rounds), ref)


@settings(max_examples=4, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.booleans(),
    st.builds(TreeConfig, st.integers(1, 3), st.integers(2, 6), st.integers(1, 4)),
)
def test_tree_with_more_ranks_than_uint16_equals_the_oracle_grower(seed, n_classes, weighted, config):
    # 70,000 distinct values in column 0: the codes are uint32, whose stable sort is not a radix sort
    rng = np.random.default_rng(seed)
    n = 70_000
    X = np.column_stack([rng.permutation(n) / 3.0, rng.integers(0, 4, n), rng.normal(size=n).round(1)])
    y = np.minimum((X[:, 0] > n / 6) + (X[:, 1] == 2) + rng.integers(0, 2, n), n_classes - 1)
    w = rng.uniform(0.1, 3.0, n) / n if weighted else None
    assert rank_codes(X).dtype == np.uint32
    ours = DecisionTree.train(X, y, n_classes, config) if w is None else grow(X, y, n_classes, config, w)
    assert same_model(ours, oracle_tree(X, y, n_classes, config, sample_weight=w))


@settings(max_examples=100, deadline=None)
@given(training_sets())
def test_rank_codes_order_and_tie_as_the_values(data):
    X, _, _ = data
    codes = rank_codes(X)
    assert codes.shape == X.T.shape and codes.dtype == np.uint8
    for col, code in zip(X.T, codes):
        assert (np.sign(np.subtract.outer(col, col)) == np.sign(np.subtract.outer(code.astype(int), code))).all()
        assert np.unique(code).tolist() == list(range(np.unique(col).size))  # dense


def test_rank_codes_use_the_smallest_unsigned_type():
    assert rank_codes(np.arange(256.0)[:, None]).dtype == np.uint8
    assert rank_codes(np.arange(257.0)[:, None]).dtype == np.uint16
    assert rank_codes(np.arange(65_536.0)[:, None]).dtype == np.uint16
    assert rank_codes(np.arange(65_537.0)[:, None]).dtype == np.uint32


# --- validation -------------------------------------------------------------------

def test_rejects_empty_data():
    with pytest.raises(ValueError, match="non-empty"):
        DecisionTree.train(np.empty((0, 3)), np.empty(0, dtype=int), 2, SMALL)


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        DecisionTree.train(np.zeros((5, 2)), np.zeros(4, dtype=int), 2, SMALL)


def test_rejects_out_of_range_labels():
    with pytest.raises(ValueError, match="labels"):
        DecisionTree.train(np.zeros((3, 2)), np.array([0, 1, 2]), 2, SMALL)


def test_rejects_labels_that_are_not_whole_numbers():
    X = np.arange(4.0).reshape(-1, 1)
    y = np.array([0.9, 0.2, 1.7, 1.1])  # truncating would train these as [0, 0, 1, 1]
    with pytest.raises(ValueError, match="whole numbers"):
        DecisionTree.train(X, y, 2, SMALL)
    with pytest.raises(ValueError, match="whole numbers"):
        KnnClassifier.train(X, y, 2, 1)
    with pytest.raises(ValueError, match="whole numbers"):
        DecisionTree.train(X, np.array([0.0, 1.0, np.nan, 1.0]), 2, SMALL)
    whole = DecisionTree.train(X, np.array([0.0, 0.0, 1.0, 1.0]), 2, SMALL)
    assert same_model(whole, DecisionTree.train(X, np.array([0, 0, 1, 1]), 2, SMALL))


def test_rejects_non_finite_features():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(ValueError, match="finite"):
        DecisionTree.train(X, np.array([0, 1]), 2, SMALL)


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        TreeConfig(max_depth=0)
    with pytest.raises(ValueError):
        TreeConfig(min_samples_split=1)
    with pytest.raises(ValueError):
        TreeConfig(min_samples_leaf=0)


def test_predict_rejects_wrong_width(random_tree):
    tree, _, _, _ = random_tree
    with pytest.raises(ValueError, match="features"):
        tree.predict([1.0, 2.0])
    with pytest.raises(ValueError, match="matrix"):
        tree.predict_batch(np.zeros((3, 2)))
