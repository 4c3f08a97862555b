"""The flat node table against the one-node-at-a-time oracle walks, on random trees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.ml import AdaBoost, DecisionTree, ForestConfig, RandomForest, ensemble
from tree_oracle import oracle_predict, tree_depth

# Thresholds and query values share one small grid, so queries often sit
# exactly on a threshold; NaN and the infinities ride along in the queries.
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
QUERY_VALUES = GRID + [0.25, float("nan"), float("inf"), float("-inf")]


@st.composite
def random_trees(draw, n_features: int, n_classes: int, max_splits: int = 7) -> DecisionTree:
    """A tree grown by splitting leaves; children are numbered after their parent."""
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    for _ in range(draw(st.integers(0, max_splits))):
        node = draw(st.sampled_from([i for i, f in enumerate(feature) if f < 0]))
        feature[node] = draw(st.integers(0, n_features - 1))
        threshold[node] = draw(st.sampled_from(GRID))
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
    # small counts make leaf-class ties (-> lowest class index) common
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=n_classes, max_size=n_classes),
            min_size=len(feature),
            max_size=len(feature),
        )
    )
    return DecisionTree(
        n_features,
        n_classes,
        np.array(feature, dtype=np.int32),
        np.array(threshold),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(counts, dtype=np.float64),
    )


def leaf_tree(n_features: int, n_classes: int, label: int) -> DecisionTree:
    """A tree of one leaf that votes for label whatever the row."""
    counts = np.zeros((1, n_classes))
    counts[0, label] = 1.0
    no_child = np.array([-1], dtype=np.int32)
    return DecisionTree(n_features, n_classes, no_child, np.zeros(1), no_child, no_child, counts)


def queries(n_features: int):
    return st.lists(
        st.lists(st.sampled_from(QUERY_VALUES), min_size=n_features, max_size=n_features),
        min_size=1,
        max_size=8,
    ).map(lambda rows: np.array(rows, dtype=np.float64))


def assert_engine_matches_oracle(model, X: np.ndarray) -> None:
    batch = model.predict_batch(X).tolist()
    for x, b in zip(X, batch):
        expected = oracle_predict(model, x)
        assert model.predict(x) == model.predict_batch(x[None])[0] == b == expected


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 4))
def test_tree_matches_oracle(data, n_features, n_classes):
    tree = data.draw(random_trees(n_features, n_classes))
    assert_engine_matches_oracle(tree, data.draw(queries(n_features)))
    assert tree.depth() == tree_depth(tree)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 3), st.integers(1, 9))
def test_forest_matches_oracle(data, n_features, n_classes, n_trees):
    # one-leaf trees for one class let it reach a majority before the last tree;
    # an even number of trees over two classes ties on many queries
    favourite = leaf_tree(n_features, n_classes, data.draw(st.integers(0, n_classes - 1)))
    tree_or_favourite = random_trees(n_features, n_classes) | st.just(favourite)
    trees = [data.draw(tree_or_favourite) for _ in range(n_trees)]
    forest = RandomForest(trees, n_features, n_classes)
    assert_engine_matches_oracle(forest, data.draw(queries(n_features)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 4), st.integers(1, 5))
def test_adaboost_matches_oracle(data, n_features, n_classes, rounds):
    # equal alphas tie; 0.1 + 0.2 != 0.3 catches a change in summation order
    stumps = [data.draw(random_trees(n_features, n_classes, max_splits=1)) for _ in range(rounds)]
    alphas = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0]), min_size=rounds, max_size=rounds))
    model = AdaBoost(stumps, alphas, n_features, n_classes)
    assert_engine_matches_oracle(model, data.draw(queries(n_features)))


def one_split_tree(**changes) -> dict:
    tree = {
        "n_features": 2,
        "n_classes": 2,
        "feature": [1, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "counts": [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    }
    tree.update(changes)
    return tree


def test_threshold_equality_goes_left_and_nan_goes_right():
    tree = DecisionTree.from_dict(one_split_tree())
    X = np.array([[0.0, 0.5], [0.0, np.nan], [0.0, 0.4999], [0.0, 0.5001]])
    assert tree.predict_batch(X).tolist() == [0, 1, 0, 1]
    assert [tree.predict(x) for x in X] == [0, 1, 0, 1]


def test_adaboost_adds_alphas_in_stump_order():
    # (0.1 + 0.2) + 0.3 > 0.6, while (0.3 + 0.2) + 0.1 == 0.6 would tie toward class 0
    def leaf(label: int) -> DecisionTree:
        node = dict(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[[1 - label, label]])
        return DecisionTree.from_dict(one_split_tree(**node))

    model = AdaBoost([leaf(1), leaf(1), leaf(1), leaf(0)], [0.1, 0.2, 0.3, 0.6], 2, 2)
    x = np.zeros(2)
    assert model.predict(x) == model.predict_batch(x[None])[0] == oracle_predict(model, x) == 1


@pytest.mark.parametrize("votes", [[1, 0], [1, 1, 0, 0], [0, 1, 1, 0, 1, 0], [2, 1, 1, 2, 0, 0]])
def test_forest_tie_goes_to_lowest_class(votes):
    # the first class to reach half the trees has not won: it ties at the end
    forest = RandomForest([leaf_tree(2, 3, v) for v in votes], 2, 3)
    x = np.zeros(2)
    assert forest.predict(x) == forest.predict_batch(x[None])[0] == oracle_predict(forest, x) == min(votes)


def test_forest_vote_stops_at_strict_majority():
    forest = RandomForest([leaf_tree(2, 2, 1)] * 3 + [DecisionTree.from_dict(one_split_tree())] * 2, 2, 2)
    forest.engine._nested[3:] = [None, None]  # walking either tree would fail
    assert forest.predict(np.zeros(2)) == 1


def test_adaboost_with_a_negative_alpha_sums_every_stump():
    # class 0 holds 1.0 of the total 1.0 after the first stump, yet the full sum is 3.0 to -2.0 for class 1
    stumps = [leaf_tree(2, 2, label).to_dict() for label in (0, 1, 0)]
    model = AdaBoost.from_dict({"n_features": 2, "n_classes": 2, "alphas": [1.0, 3.0, -3.0], "stumps": stumps})
    x = np.zeros(2)
    assert model.predict(x) == model.predict_batch(x[None])[0] == oracle_predict(model, x) == 1


def test_batch_walked_in_several_steps_matches_rows(monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    forest = RandomForest.train(X, rng.integers(0, 3, size=50), 3, ForestConfig(n_trees=3, max_depth=4))
    monkeypatch.setattr(ensemble, "_WALK_PAIRS", 10)  # 3 rows a step, the last step short
    assert forest.predict_batch(X).tolist() == [oracle_predict(forest, x) for x in X]


def test_empty_batch():
    tree = DecisionTree.from_dict(one_split_tree())
    assert tree.predict_batch(np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"left": [0, -1, -1]}, "child 0"),  # a cycle at the root
        ({"right": [3, -1, -1]}, "child 3"),
        ({"feature": [2, -1, -1]}, "feature index"),
        ({"feature": [-2, -1, -1]}, "feature index"),
        ({"threshold": [float("nan"), 0.0, 0.0]}, "threshold"),
        ({"counts": [[1.0, 1.0], [1.0, 0.0]]}, "counts"),
        ({"left": [1, -1]}, "left"),
        ({"feature": []}, "no nodes"),
    ],
)
def test_structural_defects_rejected(changes, message):
    with pytest.raises(ValueError, match=message):
        DecisionTree.from_dict(one_split_tree(**changes))


def test_trees_must_agree_on_shape():
    trees = [DecisionTree.from_dict(one_split_tree()), DecisionTree.from_dict(one_split_tree(n_features=3))]
    with pytest.raises(ValueError, match="features"):
        RandomForest(trees, 2, 2)
    with pytest.raises(ValueError, match="classes"):
        RandomForest(trees[:1], 2, 3)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_alpha_rejected(alpha):
    stump = DecisionTree.from_dict(one_split_tree())
    with pytest.raises(ValueError, match="weight"):
        AdaBoost([stump, stump], [1.0, alpha], 2, 2)
