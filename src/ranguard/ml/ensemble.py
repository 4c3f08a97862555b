"""One flat node table that serves every tree model: a decision tree, a forest, boosted stumps.

Every walk goes left on x <= threshold, so a NaN feature goes right, and adds
each tree's weight to its leaf class in tree order; the argmax breaks ties
toward the lowest class index. The layout follows QuickScorer (Lucchese et
al., SIGIR 2015) and Asadi et al. (TKDE 2014). When every weight is 1 (a tree,
a forest), the one-row walk stops as soon as one class holds a strict majority
of the trees, the early exit of Cambazoglu et al. (WSDM 2010); the label is
the one the full vote gives.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from ranguard.ml.tree import DecisionTree

_WALK_PAIRS = 1 << 15  # (row, tree) pairs per step of the matrix walk


def check_tree(tree: DecisionTree) -> None:
    """ValueError unless every walk from the root reaches a leaf in bounds."""
    n_features, n_classes = tree.n_features, tree.n_classes
    n = len(tree.feature)
    if n == 0:
        raise ValueError("tree has no nodes")
    for name in ("feature", "threshold", "left", "right"):
        if getattr(tree, name).shape != (n,):
            raise ValueError(f"{name} has shape {getattr(tree, name).shape}, expected ({n},)")
    if tree.counts.shape != (n, n_classes):
        raise ValueError(f"counts has shape {tree.counts.shape}, expected ({n}, {n_classes})")
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise ValueError(f"feature index outside [0, {n_features})")
    if not np.isfinite(tree.threshold).all():
        raise ValueError("non-finite threshold")
    # Training numbers children after their parent, which also rules out cycles.
    internal = tree.feature >= 0
    index = np.arange(n)
    for child in (tree.left, tree.right):
        bad = internal & ((child <= index) | (child >= n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"node {i} has child {int(child[i])}, expected one in ({i}, {n})")


class TreeEnsemble:
    """All trees of one model in one flat node table, with a weight per tree.

    The trees' structure was checked when each DecisionTree was made.
    """

    def __init__(
        self, trees: Sequence[DecisionTree], weights: Sequence[float], n_features: int, n_classes: int
    ) -> None:
        if not trees or len(trees) != len(weights):
            raise ValueError("need one weight per tree, at least one tree")
        for tree in trees:
            if tree.n_features != n_features or tree.n_classes != n_classes:
                raise ValueError(
                    f"tree has {tree.n_features} features and {tree.n_classes} classes, "
                    f"model has {n_features} and {n_classes}"
                )
        weights = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(weights).all():
            raise ValueError("non-finite tree weight")
        self.n_features = n_features
        self.n_classes = n_classes

        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(self.roots, sizes)
        self.feature = np.concatenate([t.feature for t in trees])  # -1 marks a leaf
        leaf = self.feature < 0
        node = np.arange(len(leaf))
        left = np.where(leaf, node, np.concatenate([t.left for t in trees]) + offset)
        right = np.where(leaf, node, np.concatenate([t.right for t in trees]) + offset)
        self.child = np.stack([right, left], axis=1)  # [node, went_left]; leaves loop to themselves
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.klass = np.concatenate([t.klass for t in trees])
        self.weights = weights
        self.depth, level = 0, self.roots
        while (level := level[~leaf[level]]).size:  # children come after parents: this ends
            self.depth += 1
            reached = np.zeros(len(leaf), dtype=bool)
            reached[left[level]] = reached[right[level]] = True
            level = np.flatnonzero(reached)
        self._feature = np.where(leaf, 0, self.feature)  # the matrix walk reads column 0 at leaves
        self._weights = weights.tolist()
        # sums of unit weights are exact, so a class past half the total has won: stop there
        self._majority = len(trees) / 2 if (weights == 1.0).all() else float("inf")

    @cached_property
    def _nested(self) -> list:
        """One object per tree root for the one-row walk: an internal node is a
        (feature, threshold, left, right) tuple, a leaf its class index.

        Built from the last node back, since children come after their parent,
        and on first use, so a model that is only trained, saved or batched
        never holds it.
        """
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        right, left = self.child.T.tolist()
        nodes = self.klass.tolist()  # leaves stay their class index
        for i in np.flatnonzero(self.feature >= 0)[::-1].tolist():
            nodes[i] = (feature[i], threshold[i], nodes[left[i]], nodes[right[i]])
        return [nodes[root] for root in self.roots.tolist()]

    def predict(self, x: Sequence[float]) -> int:
        """Class index for one feature row."""
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        x = x.tolist() if isinstance(x, np.ndarray) else list(x)
        scores = [0.0] * self.n_classes
        for node, weight in zip(self._nested, self._weights):
            while type(node) is tuple:
                f, t, left, right = node
                node = left if x[f] <= t else right
            scores[node] += weight
            if scores[node] > self._majority:  # a strict majority can be neither overtaken nor tied
                return node
        return scores.index(max(scores))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Class index per row of an (n, n_features) matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) matrix, got shape {X.shape}")
        out = np.empty(X.shape[0], dtype=np.intp)
        # the walk holds a few (rows x trees) index matrices: bound them to about 256 KB each
        step = max(1, _WALK_PAIRS // len(self.roots))
        for start in range(0, X.shape[0], step):
            out[start : start + step] = self._walk_levels(X[start : start + step])
        return out

    def _walk_levels(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        flat = np.ascontiguousarray(X).ravel()
        row = np.arange(n)[:, None]
        node = np.tile(self.roots, (n, 1))
        for _ in range(self.depth):
            value = flat.take(row * self.n_features + self._feature.take(node))
            went_left = value <= self.threshold.take(node)
            node = self.child.take(2 * node + went_left)
        # bincount adds each row's weights in tree order, as predict does
        keys = (row * self.n_classes + self.klass.take(node)).ravel()
        votes = np.bincount(keys, weights=np.tile(self.weights, n), minlength=n * self.n_classes)
        return np.argmax(votes.reshape(n, self.n_classes), axis=1)


class TreeModel:
    """Base of the tree models: every prediction goes through self.engine."""

    engine: TreeEnsemble

    def predict(self, x: Sequence[float]) -> int:
        return self.engine.predict(x)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.engine.predict_batch(X)
