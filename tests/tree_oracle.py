"""Reference walks for the tree models, one node at a time, as the tests' oracle.

These are the per-model walks the flat node table replaced. They read only the
public arrays of each tree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ranguard.ml import AdaBoost, DecisionTree, RandomForest


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
    for i in range(tree.node_count):
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
