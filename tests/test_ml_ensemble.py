"""The vote, compiled from each tree's own arrays, against the one-node-at-a-time
oracle walks, on random trees."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.ml import AdaBoost, DecisionTree, RandomForest, ensemble
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


def assert_vote_matches_oracle(model, X: np.ndarray) -> None:
    batch = model.predict_batch(X).tolist()
    for x, b in zip(X, batch):
        expected = oracle_predict(model, x)
        assert model.predict(x) == model.predict_batch(x[None])[0] == b == expected


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 4))
def test_tree_matches_oracle(data, n_features, n_classes):
    tree = data.draw(random_trees(n_features, n_classes))
    assert_vote_matches_oracle(tree, data.draw(queries(n_features)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 3), st.integers(1, 9))
def test_forest_matches_oracle(data, n_features, n_classes, n_trees):
    # one-leaf trees for one class let it reach a majority before the last tree;
    # an even number of trees over two classes ties on many queries
    favourite = leaf_tree(n_features, n_classes, data.draw(st.integers(0, n_classes - 1)))
    tree_or_favourite = random_trees(n_features, n_classes) | st.just(favourite)
    trees = [data.draw(tree_or_favourite) for _ in range(n_trees)]
    forest = RandomForest(trees, n_features, n_classes)
    assert_vote_matches_oracle(forest, data.draw(queries(n_features)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 4), st.integers(1, 5))
def test_adaboost_matches_oracle(data, n_features, n_classes, rounds):
    # equal alphas tie; 0.1 + 0.2 != 0.3 catches a change in summation order
    stumps = [data.draw(random_trees(n_features, n_classes, max_splits=1)) for _ in range(rounds)]
    alphas = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0]), min_size=rounds, max_size=rounds))
    model = AdaBoost(stumps, alphas, n_features, n_classes)
    assert_vote_matches_oracle(model, data.draw(queries(n_features)))


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
    assert len(forest._vote) == 1  # all five trees in one generated function
    # the last two trees compare x1 with a float: reaching either would raise TypeError
    assert forest.predict([0.0, "never compared"]) == 1


def chain_tree(thresholds: list[float], left_classes: list[int], last_class: int, n_classes: int) -> DecisionTree:
    """Split i at node 2i goes left on x0 <= thresholds[i] to a leaf for left_classes[i], right
    to split i + 1; past the last split, a leaf for last_class."""
    depth = len(thresholds)
    n = 2 * depth + 1
    counts = np.zeros((n, n_classes))
    counts[np.arange(1, n, 2), left_classes] = 1.0
    counts[n - 1, last_class] = 1.0
    feature, left, right = [-1] * n, [-1] * n, [-1] * n
    feature[0 : n - 1 : 2] = [0] * depth
    left[0 : n - 1 : 2] = range(1, n, 2)
    right[0 : n - 1 : 2] = range(2, n + 1, 2)
    threshold = [0.0] * n
    threshold[0 : n - 1 : 2] = thresholds
    return DecisionTree.from_dict(
        dict(n_features=2, n_classes=n_classes, feature=feature, threshold=threshold, left=left, right=right,
             counts=counts.tolist())
    )


def chain_vote(label: int) -> DecisionTree:
    """Three splits that a row with x0 = 0 passes on the right, ending in a leaf for label."""
    return chain_tree([-3.0, -2.0, -1.0], [(label + 1) % 3] * 3, label, 3)


def cut_small(monkeypatch) -> None:
    """Generated functions of one split each, so trees span functions."""
    monkeypatch.setattr(ensemble, "_FUNC_NODES", 1)
    monkeypatch.setattr(ensemble, "_FUNC_DEPTH", 1)


def fail(*_args):
    raise AssertionError("the vote ran a function after its outcome was fixed")


@pytest.mark.parametrize(
    "votes, expected, decided_in",
    [
        ([2, 2, 0, 2, 1], 2, 4),  # a strict majority after the fourth tree
        ([2, 1, 0, 1, 2, 1], 1, None),  # 3 of 6: no strict majority, the plain argmax
        ([1, 0, 2, 0, 1, 2], 0, None),  # a three-way tie goes to the lowest class
    ],
    ids=["majority", "no_majority", "tie"],
)
def test_forest_vote_across_function_boundaries(monkeypatch, votes, expected, decided_in):
    cut_small(monkeypatch)
    forest = RandomForest([chain_vote(v) for v in votes], 2, 3)
    vote = forest._vote
    assert len(vote) == 3 * len(votes)  # one split per function, three per tree
    if decided_in is not None:
        vote[3 * decided_in :] = [fail] * (len(vote) - 3 * decided_in)
    x = np.zeros(2)
    assert forest.predict(x) == oracle_predict(forest, x) == expected
    assert forest.predict_batch(x[None])[0] == expected


@pytest.mark.parametrize(
    "depth, nodes, functions",
    [(1, 10**6, 18), (10**6, 1, 18), (10**6, 7, 6), (10**6, 10**6, 1)],
    ids=["depth_cut", "node_cut", "stump_each", "one_function"],
)
def test_adaboost_vote_across_function_boundaries(monkeypatch, depth, nodes, functions):
    monkeypatch.setattr(ensemble, "_FUNC_DEPTH", depth)
    monkeypatch.setattr(ensemble, "_FUNC_NODES", nodes)
    # (0.1 + 0.2) + 0.3 beats 0.6 only when alphas are added in stump order;
    # 3.0 then -3.0 must both be added, never stopped early
    stumps = [chain_vote(label) for label in (1, 1, 1, 0, 2, 2)]
    model = AdaBoost(stumps, [0.1, 0.2, 0.3, 0.6, 3.0, -3.0], 2, 3)
    assert len(model._vote) == functions
    x = np.zeros(2)
    assert model.predict(x) == model.predict_batch(x[None])[0] == oracle_predict(model, x) == 1


def test_chain_deeper_than_any_generated_function():
    depth = 5000
    thresholds = [float(i) for i in range(depth)]
    tree = chain_tree(thresholds, [i % 3 for i in range(depth)], 2, 3)
    assert tree_depth(tree) == depth
    assert len(tree._vote) >= depth // ensemble._FUNC_DEPTH
    x0 = [-1.0, 0.0, 0.5, 39.5, 40.0, 2499.5, 4998.0, 4999.0, 4999.5, 1e9, np.nan, np.inf, -np.inf]
    expected = [next((i % 3 for i in range(depth) if v <= i), 2) for v in x0]
    X = np.array([[v, 0.0] for v in x0])
    assert [tree.predict(x) for x in X] == tree.predict_batch(X).tolist() == expected
    assert expected == [oracle_predict(tree, x) for x in X]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 3), st.integers(1, 6), st.integers(1, 3), st.integers(1, 8))
def test_vote_cut_into_small_functions_matches_oracle(data, n_features, n_classes, n_trees, depth, nodes):
    trees = [data.draw(random_trees(n_features, n_classes)) for _ in range(n_trees)]
    if data.draw(st.booleans()):
        model = RandomForest(trees, n_features, n_classes)
    else:
        alphas = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, -1.0]), min_size=n_trees, max_size=n_trees))
        model = AdaBoost(trees, alphas, n_features, n_classes)
    with mock.patch.object(ensemble, "_FUNC_DEPTH", depth), mock.patch.object(ensemble, "_FUNC_NODES", nodes):
        assert_vote_matches_oracle(model, data.draw(queries(n_features)))


def test_adaboost_with_a_negative_alpha_sums_every_stump():
    # class 0 holds 1.0 of the total 1.0 after the first stump, yet the full sum is 3.0 to -2.0 for class 1
    stumps = [leaf_tree(2, 2, label).to_dict() for label in (0, 1, 0)]
    model = AdaBoost.from_dict({"n_features": 2, "n_classes": 2, "alphas": [1.0, 3.0, -3.0], "stumps": stumps})
    x = np.zeros(2)
    assert model.predict(x) == model.predict_batch(x[None])[0] == oracle_predict(model, x) == 1


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
