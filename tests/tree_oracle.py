"""Reference trainers and walks for the tree models, as the tests' oracle.

The walks are the per-model walks the flat node table replaced; they read only
the public arrays of each tree. The trainers are the split search and grow loop
that per-column rank codes replaced: one float column at a time, a weighted
one-hot matrix and its cumsum, and `.sum(axis=1)` over the classes.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from ranguard.ml import AdaBoost, BoostConfig, DecisionTree, ForestConfig, RandomForest, TreeConfig


def gini(class_counts: Sequence[float] | np.ndarray) -> float:
    """Gini impurity of a count vector: 1 - sum(p_k^2). In [0, 1 - 1/K]."""
    c = np.asarray(class_counts, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("class_counts must be a non-empty 1-d vector")
    if (c < 0).any():
        raise ValueError("class counts must be >= 0")
    total = c.sum()
    if total <= 0:
        raise ValueError("class counts must sum to > 0")
    p = c / total
    return float(1.0 - (p * p).sum())


def oracle_costs(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    n_classes: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(feature, sorted values, candidate boundaries, costs) for each feature with a candidate."""
    n = idx.size
    y_node = y[idx]
    w_node = w[idx]
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        if xs_s[0] == xs_s[-1]:
            continue
        boundaries = np.nonzero(xs_s[1:] != xs_s[:-1])[0] + 1  # index of first right-side sample
        pos = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
        if pos.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), y_node[order]] = w_node[order]
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        left = cum[pos - 1]
        right = total - left
        lw = left.sum(axis=1)
        rw = right.sum(axis=1)
        # weighted Gini of the partition: sum_side w_side * (1 - sum_k p_k^2)
        cost = (lw - (left * left).sum(axis=1) / lw + rw - (right * right).sum(axis=1) / rw) / (lw + rw)
        yield int(f), xs_s, pos, cost


def oracle_best_split(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    n_classes: int,
) -> tuple[int, float] | None:
    """Lowest-cost (feature, midpoint threshold) over the given feature set, or None."""
    best_cost = np.inf
    best: tuple[int, float] | None = None
    for f, xs_s, pos, cost in oracle_costs(X, y, w, idx, features, min_leaf, n_classes):
        j = int(np.argmin(cost))  # first minimum -> lowest threshold for this feature
        if cost[j] < best_cost:  # strict -> earlier (lower) feature keeps ties
            best_cost = float(cost[j])
            best = (f, float((xs_s[pos[j] - 1] + xs_s[pos[j]]) / 2.0))
    return best


def oracle_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    config: TreeConfig = TreeConfig(),
    *,
    sample_weight: np.ndarray | None = None,
    feature_subsample: int | None = None,
    rng: np.random.Generator | None = None,
) -> DecisionTree:
    """Depth-first growth, left subtree first, one oracle split search per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.zeros(n_classes))
        return len(feature) - 1

    all_features = np.arange(d)
    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node_counts = np.bincount(y[idx], weights=w[idx], minlength=n_classes)
        counts[node] = node_counts
        if depth >= config.max_depth or idx.size < config.min_samples_split:
            continue
        if np.count_nonzero(node_counts) <= 1:
            continue
        if feature_subsample is not None and feature_subsample < d:
            feats = np.sort(rng.permutation(d)[:feature_subsample])
        else:
            feats = all_features
        split = oracle_best_split(X, y, w, idx, feats, config.min_samples_leaf, n_classes)
        if split is None:
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))
    return DecisionTree(
        d,
        n_classes,
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.vstack(counts),
    )


def oracle_forest(
    X: np.ndarray, y: np.ndarray, n_classes: int, config: ForestConfig, seed: int = 0
) -> RandomForest:
    """Bootstrap rows and per-split feature subsets drawn as `RandomForest.train` draws them."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    m = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(config.n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(
            oracle_tree(X[boot], y[boot], n_classes, config.tree_config(), feature_subsample=m, rng=rng)
        )
    return RandomForest(trees, d, n_classes)


def oracle_adaboost(X: np.ndarray, y: np.ndarray, n_classes: int, config: BoostConfig) -> AdaBoost:
    """SAMME rounds as `AdaBoost.train` runs them, each stump from the oracle grower."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    stump_cfg = TreeConfig(max_depth=1, min_samples_split=2, min_samples_leaf=1)
    w = np.full(n, 1.0 / n)
    stumps: list[DecisionTree] = []
    alphas: list[float] = []
    chance = 1.0 - 1.0 / n_classes
    for _ in range(config.rounds):
        stump = oracle_tree(X, y, n_classes, stump_cfg, sample_weight=w)
        miss = stump.predict_batch(X) != y
        err = float(w[miss].sum())
        if err >= chance:
            if not stumps:
                raise ValueError("first weak learner no better than chance")
            break
        err = max(err, 1e-12)
        alpha = math.log((1.0 - err) / err) + math.log(n_classes - 1)
        stumps.append(stump)
        alphas.append(alpha)
        if not miss.any():
            break
        w = w * np.exp(alpha * miss)
        w = w / w.sum()
    return AdaBoost(stumps, alphas, d, n_classes)


def decision_path(tree: DecisionTree, x: Sequence[float]) -> list[tuple[int, float, bool]]:
    """(feature, threshold, went_left) for every internal node on x's path."""
    path = []
    node = 0
    while tree.feature[node] >= 0:
        f = int(tree.feature[node])
        thr = float(tree.threshold[node])
        went_left = x[f] <= thr
        path.append((f, thr, went_left))
        node = int(tree.left[node]) if went_left else int(tree.right[node])
    return path


def tree_depth(tree: DecisionTree) -> int:
    """Longest root-to-leaf path, in edges, by a walk over the nodes in index order."""
    depths = {0: 0}
    best = 0
    for i in range(len(tree.feature)):
        if tree.feature[i] >= 0:
            depths[int(tree.left[i])] = depths[i] + 1
            depths[int(tree.right[i])] = depths[i] + 1
            best = max(best, depths[i] + 1)
    return best


def tree_leaf_class(tree: DecisionTree, x: Sequence[float]) -> int:
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(tree.klass[node])


def oracle_predict(model: DecisionTree | RandomForest | AdaBoost, x: Sequence[float]) -> int:
    """Weighted vote of the leaf classes in tree order; ties -> lowest class index."""
    if isinstance(model, DecisionTree):
        return tree_leaf_class(model, x)
    if isinstance(model, RandomForest):
        trees, weights = model.trees, [1] * len(model.trees)
    else:
        trees, weights = model.stumps, model.alphas
    scores = np.zeros(model.n_classes)
    for tree, weight in zip(trees, weights):
        scores[tree_leaf_class(tree, x)] += weight
    return int(np.argmax(scores))
