"""Bagged ensemble of Gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ranguard.ml.ensemble import TreeEnsemble, TreeModel
from ranguard.ml.tree import DecisionTree, TreeConfig, _grow, _validate_training_data, rank_codes


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 15
    min_samples_split: int = 5
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        TreeConfig(self.max_depth, self.min_samples_split, self.min_samples_leaf)

    def tree_config(self) -> TreeConfig:
        return TreeConfig(self.max_depth, self.min_samples_split, self.min_samples_leaf)


class RandomForest(TreeModel):
    """Majority vote over bootstrap-trained trees; vote ties -> lowest class index."""

    algo_name = "random_forest"

    def __init__(self, trees: Sequence[DecisionTree], n_features: int, n_classes: int) -> None:
        self.trees = list(trees)
        self.n_features = n_features
        self.n_classes = n_classes
        self.engine = TreeEnsemble(self.trees, [1.0] * len(self.trees), n_features, n_classes)

    @classmethod
    def train(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        config: ForestConfig = ForestConfig(),
        seed: int = 0,
    ) -> "RandomForest":
        X, y = _validate_training_data(X, y, n_classes)
        n, d = X.shape
        codes = rank_codes(X)
        m = math.isqrt(d - 1) + 1  # ceil(sqrt(d)) features tried at each split
        tree_cfg = config.tree_config()
        trees = []
        for child in np.random.SeedSequence(seed).spawn(config.n_trees):
            rng = np.random.default_rng(child)
            # each row drawn at least once, weighted by its draw count: the tree of all n draws
            draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(draws)
            draws = draws[rows]
            w = draws.astype(np.float64)
            trees.append(_grow(X[rows], codes[:, rows], y[rows], w, n_classes, tree_cfg, m, rng, draws))
        return cls(trees, d, n_classes)

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForest":
        trees = [DecisionTree.from_dict(t) for t in data["trees"]]
        return cls(trees, int(data["n_features"]), int(data["n_classes"]))
