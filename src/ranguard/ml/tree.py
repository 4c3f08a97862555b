"""CART-style decision tree: Gini impurity, midpoint thresholds, deterministic ties.

Split search is exhaustive over candidate boundaries. Ties are broken toward
the lower feature index, then the lower threshold, so training is a pure
function of the (data order, config, rng) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ranguard.ml.ensemble import TreeEnsemble, TreeModel, check_tree


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


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 15
    min_samples_split: int = 5
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


def _validate_training_data(
    X: np.ndarray, y: np.ndarray, n_classes: int, sample_weight: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} samples")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must be in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    if sample_weight is None:
        w = np.ones(X.shape[0], dtype=np.float64)
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (X.shape[0],):
            raise ValueError(f"sample_weight shape {w.shape} does not match {X.shape[0]} samples")
        if (w <= 0).any() or not np.isfinite(w).all():
            raise ValueError("sample weights must be finite and > 0")
    return X, y, w


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    n_classes: int,
) -> tuple[int, float] | None:
    """Lowest-cost (feature, midpoint threshold) over the given feature set, or None."""
    n = idx.size
    y_node = y[idx]
    w_node = w[idx]
    best_cost = np.inf
    best: tuple[int, float] | None = None
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
        j = int(np.argmin(cost))  # first minimum -> lowest threshold for this feature
        if cost[j] < best_cost:  # strict -> earlier (lower) feature keeps ties
            best_cost = float(cost[j])
            best = (int(f), float((xs_s[pos[j] - 1] + xs_s[pos[j]]) / 2.0))
    return best


class DecisionTree(TreeModel):
    """Flat-array binary tree. feature[i] == -1 marks node i as a leaf."""

    algo_name = "decision_tree"

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.n_features = n_features
        self.n_classes = n_classes
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts  # weighted class counts seen at each node during training
        check_tree(self)
        self.klass = np.argmax(counts, axis=1).astype(np.int32)  # ties -> lowest class index

    @cached_property
    def engine(self) -> TreeEnsemble:
        return TreeEnsemble([self], [1.0], self.n_features, self.n_classes)

    @classmethod
    def train(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        config: TreeConfig = TreeConfig(),
        *,
        sample_weight: np.ndarray | None = None,
        feature_subsample: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "DecisionTree":
        X, y, w = _validate_training_data(X, y, n_classes, sample_weight)
        n, d = X.shape
        if feature_subsample is not None:
            if not 1 <= feature_subsample <= d:
                raise ValueError(f"feature_subsample must be in [1, {d}], got {feature_subsample}")
            if rng is None:
                raise ValueError("feature_subsample requires an rng")

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
            split = _best_split(X, y, w, idx, feats, config.min_samples_leaf, n_classes)
            if split is None:
                continue
            f, thr = split
            go_left = X[idx, f] <= thr
            feature[node] = f
            threshold[node] = thr
            left[node] = new_node()
            right[node] = new_node()
            # push right first so left subtrees build first (stable node numbering)
            stack.append((right[node], idx[~go_left], depth + 1))
            stack.append((left[node], idx[go_left], depth + 1))
        return cls(
            d,
            n_classes,
            np.asarray(feature, dtype=np.int32),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int32),
            np.asarray(right, dtype=np.int32),
            np.vstack(counts),
        )

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        return self.engine.depth

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        return cls(
            int(data["n_features"]),
            int(data["n_classes"]),
            np.asarray(data["feature"], dtype=np.int32),
            np.asarray(data["threshold"], dtype=np.float64),
            np.asarray(data["left"], dtype=np.int32),
            np.asarray(data["right"], dtype=np.int32),
            np.asarray(data["counts"], dtype=np.float64),
        )
