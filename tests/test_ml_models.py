"""Forest, kNN, and boosting: oracles against their own definitions."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from ranguard.ml.adaboost import AdaBoost
from ranguard.ml.forest import RandomForest
from ranguard.ml.neighbors import KnnClassifier
from ranguard.ml.tree import DecisionTree, TreeConfig
from file_oracle import whole_payload
from tree_oracle import oracle_tree


def leaf_tree(label: int, n_features: int = 2, n_classes: int = 3) -> DecisionTree:
    counts = np.zeros((1, n_classes))
    counts[0, label] = 1.0
    return DecisionTree(
        n_features,
        n_classes,
        np.array([-1], dtype=np.int32),
        np.array([0.0]),
        np.array([-1], dtype=np.int32),
        np.array([-1], dtype=np.int32),
        counts,
    )


@pytest.fixture(scope="module")
def blob_data():
    rng = np.random.default_rng(10)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    X = np.concatenate([rng.normal(c, 0.7, size=(80, 2)) for c in centers])
    y = np.repeat(np.arange(4), 80)
    shuffle = rng.permutation(len(y))
    return X[shuffle], y[shuffle]


# --- random forest ---------------------------------------------------------------

def test_forest_of_one_tree_votes_like_that_tree(blob_data):
    X, y = blob_data
    rf = RandomForest.train(X, y, 4, TreeConfig(max_depth=6), n_trees=1, seed=5)
    queries = X[:100]
    assert (rf.predict_batch(queries) == rf.trees[0].predict_batch(queries)).all()


def test_forest_vote_equals_explicit_tally(blob_data):
    X, y = blob_data
    rf = RandomForest.train(X, y, 4, TreeConfig(max_depth=6), n_trees=25, seed=6)
    queries = X[:150]
    tally = np.zeros((len(queries), 4), dtype=int)
    for tree in rf.trees:
        for i, q in enumerate(queries):
            tally[i, tree.predict(q)] += 1
    assert (rf.predict_batch(queries) == np.argmax(tally, axis=1)).all()


def test_forest_vote_tie_goes_to_lowest_class_index():
    trees = [leaf_tree(2), leaf_tree(2), leaf_tree(1), leaf_tree(1)]
    rf = RandomForest(trees, n_features=2, n_classes=3)
    assert rf.predict([0.0, 0.0]) == 1
    assert rf.predict_batch(np.zeros((3, 2))).tolist() == [1, 1, 1]


def test_forest_training_deterministic_given_seed(blob_data):
    X, y = blob_data
    a = RandomForest.train(X, y, 4, TreeConfig(max_depth=5), n_trees=8, seed=9)
    b = RandomForest.train(X, y, 4, TreeConfig(max_depth=5), n_trees=8, seed=9)
    c = RandomForest.train(X, y, 4, TreeConfig(max_depth=5), n_trees=8, seed=10)
    assert whole_payload(a) == whole_payload(b)
    assert whole_payload(a) != whole_payload(c)


def test_forest_replicates_manual_bootstrap(blob_data):
    # one tree, replicated by hand from the same seed tape
    X, y = blob_data
    rf = RandomForest.train(X, y, 4, TreeConfig(max_depth=5), n_trees=1, seed=3)
    child = np.random.SeedSequence(3).spawn(1)[0]
    rng = np.random.default_rng(child)
    boot = rng.integers(0, len(y), size=len(y))
    # ceil(sqrt(2)) = 2 features a split: all of them, so no subset is drawn
    manual = DecisionTree.train(X[boot], y[boot], 4, TreeConfig(5, 5, 1))
    assert rf.trees[0].to_dict() == manual.to_dict()


@pytest.mark.parametrize("min_split, min_leaf", [(4, 1), (2, 2)])
def test_forest_counts_draws_not_distinct_rows(min_split, min_leaf):
    # seed 28's bootstrap draws rows 0, 0, 1, 2: three distinct rows, four draws. Only the
    # second draw of row 0 meets min_samples_split=4 and gives the left side of x <= 0.5
    # the two samples min_samples_leaf=2 asks for.
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    child = np.random.SeedSequence(28).spawn(1)[0]
    assert np.random.default_rng(child).integers(0, 4, size=4).tolist() == [0, 0, 1, 2]
    config = TreeConfig(max_depth=3, min_samples_split=min_split, min_samples_leaf=min_leaf)
    tree = RandomForest.train(X, y, 2, config, n_trees=1, seed=28).trees[0]
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == 0.5
    assert tree.counts.tolist() == [[2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]


def test_forest_default_subsample_is_ceil_sqrt_d():
    # the third tree of a 10-feature forest, rebuilt by hand: its bootstrap, then
    # ceil(sqrt(10)) = 4 features drawn at each split from the same tape
    data = np.random.default_rng(0)
    X = data.normal(size=(100, 10))
    y = (X[:, 1] + X[:, 6] - X[:, 8] > 0).astype(int) + (X[:, 3] > 1)
    config = TreeConfig(max_depth=4)
    rf = RandomForest.train(X, y, 3, config, n_trees=3, seed=1)

    def by_hand(m: int) -> DecisionTree:
        rng = np.random.default_rng(np.random.SeedSequence(1).spawn(3)[2])
        boot = rng.integers(0, len(y), size=len(y))
        return oracle_tree(X[boot], y[boot], 3, config, feature_subsample=m, rng=rng)

    assert rf.trees[2].to_dict() == by_hand(4).to_dict()
    assert all(rf.trees[2].to_dict() != by_hand(m).to_dict() for m in (3, 5))


def test_forest_monotone_rescale_invariance(blob_data):
    X, y = blob_data
    scale, offset = np.array([2.0, 0.25]), np.array([10.0, -5.0])
    a = RandomForest.train(X, y, 4, TreeConfig(max_depth=6), n_trees=10, seed=11)
    b = RandomForest.train(X * scale + offset, y, 4, TreeConfig(max_depth=6), n_trees=10, seed=11)
    queries = X[:200]
    assert (a.predict_batch(queries) == b.predict_batch(queries * scale + offset)).all()


def test_forest_batch_matches_single(blob_data):
    X, y = blob_data
    rf = RandomForest.train(X, y, 4, TreeConfig(max_depth=5), n_trees=7, seed=2)
    batch = rf.predict_batch(X[:60])
    assert batch.tolist() == [rf.predict(x) for x in X[:60]]


def test_forest_config_validation():
    with pytest.raises(ValueError, match="n_trees must be >= 1, got 0"):
        RandomForest.train(np.zeros((2, 1)), np.array([0, 1]), 2, n_trees=0)
    with pytest.raises(ValueError):
        RandomForest([], 2, 3)


# --- kNN --------------------------------------------------------------------------

def test_knn_memorizes_training_points():
    X = np.array([[0.0, 0.0], [5.0, 1.0], [9.0, 3.0]])
    y = np.array([2, 0, 1])
    knn = KnnClassifier(1).fit(X, y, 3)
    for x, label in zip(X, y):
        assert knn.predict(x) == label


def test_knn_k_equals_train_size_gives_global_majority():
    X = np.arange(10, dtype=float).reshape(-1, 1) * 3
    y = np.array([0, 1, 1, 1, 0, 1, 0, 1, 1, 0])  # six 1s, four 0s
    knn = KnnClassifier(10).fit(X, y, 2)
    assert knn.predict([100.0]) == 1


def test_knn_hand_vote():
    X = np.array([[0.0], [1.0], [10.0]])
    y = np.array([0, 0, 1])
    knn = KnnClassifier(3).fit(X, y, 2)
    assert knn.predict([4.4]) == 0  # votes 2-1


def test_knn_scaling_changes_the_neighbourhood():
    # raw distance would pick label 1; min-max scaling picks label 0
    X = np.array([[0.0, 0.0], [1000.0, 1.0]])
    y = np.array([0, 1])
    knn = KnnClassifier(1).fit(X, y, 2)
    assert knn.predict([900.0, 0.05]) == 0


def test_knn_vote_tie_goes_to_lowest_class_index():
    X = np.array([[0.0], [10.0]])
    y = np.array([1, 0])
    knn = KnnClassifier(2).fit(X, y, 2)
    assert knn.predict([5.0]) == 0


def test_knn_agrees_with_linear_scan():
    rng = np.random.default_rng(20)
    X = rng.uniform(0, 1, size=(400, 6)) * rng.uniform(1, 100, size=6)
    y = rng.integers(0, 5, size=400)
    queries = rng.uniform(0, 1, size=(500, 6)) * rng.uniform(1, 100, size=6)
    k = 5
    knn = KnnClassifier(k).fit(X, y, 5)
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    Xs = (X - mins) / ranges
    got = knn.predict_batch(queries)
    for q, pred in zip(queries, got):
        d = np.sqrt((((q - mins) / ranges - Xs) ** 2).sum(axis=1))
        near = np.argsort(d, kind="stable")[:k]
        votes = np.bincount(y[near], minlength=5)
        assert pred == np.argmax(votes)


def test_knn_constant_feature_is_harmless():
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    y = np.array([0, 0, 1])
    knn = KnnClassifier(1).fit(X, y, 2)
    assert knn.predict([2.9, 7.0]) == 1


def test_knn_batch_matches_single():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 3, size=200)
    queries = rng.normal(size=(50, 4))
    knn = KnnClassifier(7).fit(X, y, 3)
    assert knn.predict_batch(queries).tolist() == [knn.predict(q) for q in queries]


def test_knn_batch_memory_is_bounded_by_the_chunk_budget():
    # 512-row chunks against 6000 training rows once peaked at about 100 MB
    rng = np.random.default_rng(3)
    knn = KnnClassifier(5).fit(rng.normal(size=(6000, 10)), rng.integers(0, 5, 6000), 5)
    queries = rng.normal(size=(24_000, 10))
    tracemalloc.start()
    try:
        labels = knn.predict_batch(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    sample = rng.choice(len(queries), 50, replace=False)
    assert labels[sample].tolist() == [knn.predict(queries[i]) for i in sample]


def test_knn_validation():
    with pytest.raises(ValueError, match="k must be"):
        KnnClassifier(0)
    with pytest.raises(ValueError, match="exceeds"):
        KnnClassifier(5).fit(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError, match="not fitted"):
        KnnClassifier(1).predict([1.0])


# --- AdaBoost ----------------------------------------------------------------------

def test_adaboost_alpha_matches_samme_formula(blob_data):
    X, y = blob_data
    model = AdaBoost.train(X, y, 4, rounds=1)
    stump = model.trees[0]
    err = float(np.mean(stump.predict_batch(X) != y))  # uniform weights in round 1
    expected = math.log((1 - err) / err) + math.log(4 - 1)
    assert model.weights[0] == pytest.approx(expected)


def test_adaboost_one_round_predicts_like_its_stump(blob_data):
    X, y = blob_data
    model = AdaBoost.train(X, y, 4, rounds=1)
    assert (model.predict_batch(X) == model.trees[0].predict_batch(X)).all()


def test_adaboost_improves_over_single_stump():
    # three bands on one feature: a lone stump cannot cut twice
    rng = np.random.default_rng(30)
    x0 = rng.uniform(0, 3, size=600)
    X = np.column_stack([x0, rng.normal(size=600)])
    y = np.digitize(x0, [1.0, 2.0])
    model = AdaBoost.train(X, y, 3, rounds=20)
    stump_acc = np.mean(model.trees[0].predict_batch(X) == y)
    boost_acc = np.mean(model.predict_batch(X) == y)
    assert boost_acc > stump_acc


def test_adaboost_stops_early_on_perfect_stump():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = AdaBoost.train(X, y, 2, rounds=10)
    assert len(model.trees) == 1
    assert (model.predict_batch(X) == y).all()


def test_adaboost_rejects_chance_level_first_stump():
    # XOR: every axis-aligned stump is exactly 50/50
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([0, 1, 1, 0] * 10)
    with pytest.raises(ValueError, match="chance"):
        AdaBoost.train(X, y, 2, rounds=5)


def test_adaboost_score_tie_goes_to_lowest_class_index():
    model = AdaBoost([leaf_tree(2), leaf_tree(1)], [0.7, 0.7], n_features=2, n_classes=3)
    assert model.predict([0.0, 0.0]) == 1


def test_adaboost_batch_matches_single(blob_data):
    X, y = blob_data
    model = AdaBoost.train(X, y, 4, rounds=12)
    assert model.predict_batch(X[:80]).tolist() == [model.predict(x) for x in X[:80]]


def test_adaboost_validation():
    with pytest.raises(ValueError, match="rounds must be >= 1, got 0"):
        AdaBoost.train(np.zeros((2, 1)), np.array([0, 1]), 2, rounds=0)
    with pytest.raises(ValueError):
        AdaBoost([], [], 2, 3)
    with pytest.raises(ValueError):
        AdaBoost([leaf_tree(0)], [0.5, 0.5], 2, 3)
