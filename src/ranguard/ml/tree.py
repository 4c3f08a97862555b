"""CART-style decision tree: Gini impurity, midpoint thresholds, deterministic ties.

Split search is exhaustive over candidate boundaries. Ties are broken toward
the lower feature index, then the lower threshold, so training is a pure
function of the (data order, config, rng) triple.

Each column is ranked once, before any tree grows (`rank_codes`). A node sorts
the small integer codes of all its candidate features in one stable argsort,
which numpy runs as a radix sort for codes of 16 bits or less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ranguard.ml.ensemble import TreeEnsemble, TreeModel, check_tree


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


def _validate_training_data(X: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} samples")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if y.dtype.kind not in "biu":
        as_float = np.asarray(y, dtype=np.float64)
        if not (np.isfinite(as_float) & (as_float == np.floor(as_float))).all():
            raise ValueError("labels must be whole numbers")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must be in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    return X, y


def rank_codes(X: np.ndarray) -> np.ndarray:
    """(features, samples) dense rank of each value among its column's distinct values.

    The codes order and tie exactly as the values do. Their type is the smallest
    unsigned one that holds every rank: below 65,536 distinct values per column it
    is at most `uint16`, whose stable sort numpy runs as a radix sort.
    """
    columns = [np.unique(col, return_inverse=True) for col in X.T]
    dtype = np.min_scalar_type(max(values.size for values, _ in columns) - 1)
    return np.array([inverse.ravel() for _, inverse in columns], dtype=dtype)


def _split_costs(
    codes: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    node_counts: np.ndarray,
    min_leaf: int,
    draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Weighted Gini cost of every candidate split of a node, all features at once.

    Returns (order, at, fi, cost), or None when no boundary leaves min_leaf samples
    on each side. Sample i counts as `draws[i]` samples toward min_leaf. Row i of
    `order` sorts the node's samples by `features[i]`; candidate j splits row fi[j]
    after its sample `order.flat[at[j]]`. Candidates run feature-major, then by
    threshold. Class sums add one class at a time in increasing class order, the
    association of a `.sum(axis=1)` over fewer than 8 classes; an absent class
    would add exact zeros, so it is skipped.
    """
    n = idx.size
    node_codes = codes[features[:, None], idx]
    order = np.argsort(node_codes, axis=1, kind="stable")
    ranked = node_codes[np.arange(features.size)[:, None], order]
    # boundaries between distinct codes, by their last left-side sample
    legal = ranked[:, 1:] != ranked[:, :-1]
    if min_leaf > 1:
        # that leave at least min_leaf samples on each side
        left_n = np.cumsum(draws[idx][order], axis=1)
        total = int(left_n[0, -1])
        left_n = left_n[:, :-1]
        legal &= (left_n >= min_leaf) & (left_n <= total - min_leaf)
    fi, at = np.nonzero(legal)
    if fi.size == 0:
        return None
    del node_codes, ranked, legal
    row_end = fi * n
    at += row_end
    row_end += n - 1
    y_node = y[idx]
    w_node = w[idx]
    lw = rw = left_sq = right_sq = None
    for k in np.flatnonzero(node_counts):
        prefix = np.where(y_node == k, w_node, 0.0)[order]
        np.cumsum(prefix, axis=1, out=prefix)
        left = prefix.take(at)
        right = prefix.take(row_end)
        right -= left
        if lw is None:
            lw, rw, left_sq, right_sq = left, right, left * left, right * right
        else:
            lw += left
            rw += right
            left *= left
            right *= right
            left_sq += left
            right_sq += right
    # weighted Gini of the partition: sum_side w_side * (1 - sum_k p_k^2)
    return order, at, fi, (lw - left_sq / lw + rw - right_sq / rw) / (lw + rw)


def _best_split(
    X: np.ndarray,
    codes: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    node_counts: np.ndarray,
    min_leaf: int,
    draws: np.ndarray,
) -> tuple[int, float] | None:
    """Lowest-cost (feature, midpoint threshold) over the given feature set, or None."""
    found = _split_costs(codes, y, w, idx, features, node_counts, min_leaf, draws)
    if found is None:
        return None
    order, at, fi, cost = found
    j = int(np.argmin(cost))  # first minimum -> lowest feature, then its lowest threshold
    row = order.flat[at[j] : at[j] + 2]  # positions in idx of the samples either side
    f = int(features[fi[j]])
    lo, hi = float(X[idx[row[0]], f]), float(X[idx[row[1]], f])
    mid = (lo + hi) / 2.0
    if not math.isfinite(mid):  # the sum overflowed; halving first gives other bits only for subnormals
        mid = lo * 0.5 + hi * 0.5
    return f, mid


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
        cls, X: np.ndarray, y: np.ndarray, n_classes: int, config: TreeConfig = TreeConfig()
    ) -> "DecisionTree":
        X, y = _validate_training_data(X, y, n_classes)
        n = X.shape[0]
        draws = np.ones(n, dtype=np.int64)
        return _grow(X, rank_codes(X), y, np.ones(n), n_classes, config, None, None, draws)

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


def _grow(
    X: np.ndarray,
    codes: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_classes: int,
    config: TreeConfig,
    feature_subsample: int | None,
    rng: np.random.Generator | None,
    draws: np.ndarray,
) -> DecisionTree:
    """Grow one tree depth first on checked data and its `rank_codes`, left subtree first.

    Row i stands for `draws[i]` samples in `min_samples_split` and `min_samples_leaf`.
    """
    n, d = X.shape
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
        n_samples = int(draws[idx].sum())
        if depth >= config.max_depth or n_samples < config.min_samples_split:
            continue
        if np.count_nonzero(node_counts) <= 1:
            continue
        if feature_subsample is not None and feature_subsample < d:
            feats = np.sort(rng.permutation(d)[:feature_subsample])
        else:
            feats = all_features
        split = _best_split(X, codes, y, w, idx, feats, node_counts, config.min_samples_leaf, draws)
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
    return DecisionTree(
        d,
        n_classes,
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.vstack(counts),
    )

