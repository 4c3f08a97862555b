"""Bagged ensemble of Gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ranguard.ml.ensemble import TreeModel
from ranguard.ml.tree import DecisionTree, TreeConfig, _grow, _validate_training_data, rank_codes


class RandomForest(TreeModel):
    """Majority vote over bootstrap-trained trees; vote ties -> lowest class index."""

    algo_name = "random_forest"

    def __init__(self, trees: Sequence[DecisionTree], n_features: int, n_classes: int) -> None:
        super().__init__(trees, [1.0] * len(trees), n_features, n_classes)

    @classmethod
    def train(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        config: TreeConfig = TreeConfig(),
        n_trees: int = 100,
        seed: int = 0,
    ) -> "RandomForest":
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        X, y = _validate_training_data(X, y, n_classes)
        n, d = X.shape
        codes = rank_codes(X)
        m = math.isqrt(d - 1) + 1  # ceil(sqrt(d)) features tried at each split
        trees = []
        for child in np.random.SeedSequence(seed).spawn(n_trees):
            rng = np.random.default_rng(child)
            # each row drawn at least once, weighted by its draw count: the tree of all n draws
            draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(draws)
            draws = draws[rows]
            w = draws.astype(np.float64)
            trees.append(_grow(X[rows], codes[:, rows], y[rows], w, n_classes, config, m, rng, draws))
        return cls(trees, d, n_classes)

    def to_dict(self) -> dict:
        """The model file payload. `trees` is an iterator that makes each tree's
        dict as it is read, so a writer holds one tree at a time."""
        return {
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "trees": map(DecisionTree.to_dict, self.trees),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForest":
        trees = [DecisionTree.from_dict(t) for t in data["trees"]]
        return cls(trees, int(data["n_features"]), int(data["n_classes"]))
