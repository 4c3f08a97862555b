"""Multiclass boosting (SAMME) over depth-1 trees."""

from __future__ import annotations

import math

import numpy as np

from ranguard.ml.ensemble import TreeModel
from ranguard.ml.tree import DecisionTree, TreeConfig, _grow, _validate_training_data, rank_codes

_STUMP = TreeConfig(max_depth=1, min_samples_split=2, min_samples_leaf=1)


class AdaBoost(TreeModel):
    """Weighted vote of stumps: `trees` holds the stumps, `weights` each round's
    alpha = ln((1-err)/err) + ln(K-1).

    Stops early on a perfect stump or once a stump is no better than chance.
    """

    algo_name = "adaboost"

    @classmethod
    def train(cls, X: np.ndarray, y: np.ndarray, n_classes: int, rounds: int) -> "AdaBoost":
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        X, y = _validate_training_data(X, y, n_classes)
        n, d = X.shape
        codes = rank_codes(X)
        w = np.full(n, 1.0 / n)
        draws = np.ones(n, dtype=np.int64)
        stumps: list[DecisionTree] = []
        alphas: list[float] = []
        chance = 1.0 - 1.0 / n_classes
        for _ in range(rounds):
            stump = _grow(X, codes, y, w, n_classes, _STUMP, None, None, draws)
            # each row's leaf: the root, or one of the two children of its one split;
            # scored from the stump's arrays, so no vote is compiled
            leaf = 0
            if (f := stump.feature[0]) >= 0:
                leaf = np.where(X[:, f] <= stump.threshold[0], stump.left[0], stump.right[0])
            miss = stump.klass[leaf] != y
            err = float(w[miss].sum())
            if err >= chance:
                if not stumps:
                    raise ValueError(
                        f"first weak learner no better than chance (weighted error {err:.3f})"
                    )
                break
            err = max(err, 1e-12)  # perfect stump -> large finite alpha
            alpha = math.log((1.0 - err) / err) + math.log(n_classes - 1)
            stumps.append(stump)
            alphas.append(alpha)
            if not miss.any():
                break
            w = w * np.exp(alpha * miss)
            w = w / w.sum()
        return cls(stumps, alphas, d, n_classes)

    def to_dict(self) -> dict:
        """The model file payload. `stumps` is an iterator that makes each stump's
        dict as it is read, so a writer holds one stump at a time."""
        return {
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "alphas": self.weights,
            "stumps": map(DecisionTree.to_dict, self.trees),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaBoost":
        return cls(
            [DecisionTree.from_dict(s) for s in data["stumps"]],
            data["alphas"],
            int(data["n_features"]),
            int(data["n_classes"]),
        )
