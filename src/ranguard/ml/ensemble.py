"""One flat node table that serves every tree model: a decision tree, a forest, boosted stumps.

Every walk goes left on x <= threshold, so a NaN feature goes right, and adds
each tree's weight to its leaf class in tree order; the argmax breaks ties
toward the lowest class index. The layout follows QuickScorer (Lucchese et
al., SIGIR 2015) and Asadi et al. (TKDE 2014).
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
        self._trees = list(zip(self.roots.tolist(), weights.tolist()))

    @cached_property
    def _lists(self) -> list[list]:
        """The table as plain lists for the one-row walk; they index far faster than numpy scalars.

        Built on first use, so a model that is only trained, saved or batched
        never holds them.
        """
        left, right = self.child[:, 1], self.child[:, 0]
        return [a.tolist() for a in (self.feature, self.threshold, left, right, self.klass)]

    def predict(self, x: Sequence[float]) -> int:
        """Class index for one feature row."""
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        x = x.tolist() if isinstance(x, np.ndarray) else list(x)
        feature, threshold, left, right, klass = self._lists
        scores = [0.0] * self.n_classes
        for node, weight in self._trees:
            f = feature[node]
            while f >= 0:
                node = left[node] if x[f] <= threshold[node] else right[node]
                f = feature[node]
            scores[klass[node]] += weight
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
