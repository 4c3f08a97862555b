"""Multiclass boosting (SAMME) over depth-1 trees."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ranguard.ml.ensemble import TreeEnsemble, TreeModel
from ranguard.ml.tree import DecisionTree, TreeConfig, _grow, _validate_training_data, rank_codes

_STUMP = TreeConfig(max_depth=1, min_samples_split=2, min_samples_leaf=1)


@dataclass(frozen=True)
class BoostConfig:
    rounds: int = 50

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


class AdaBoost(TreeModel):
    """Weighted vote of stumps; round weight alpha = ln((1-err)/err) + ln(K-1).

    Stops early on a perfect stump or once a stump is no better than chance.
    """

    algo_name = "adaboost"

    def __init__(
        self, stumps: Sequence[DecisionTree], alphas: Sequence[float], n_features: int, n_classes: int
    ) -> None:
        self.stumps = list(stumps)
        self.alphas = [float(a) for a in alphas]
        self.n_features = n_features
        self.n_classes = n_classes
        self.engine = TreeEnsemble(self.stumps, self.alphas, n_features, n_classes)

    @classmethod
    def train(
        cls, X: np.ndarray, y: np.ndarray, n_classes: int, config: BoostConfig = BoostConfig()
    ) -> "AdaBoost":
        X, y = _validate_training_data(X, y, n_classes)
        n, d = X.shape
        codes = rank_codes(X)
        w = np.full(n, 1.0 / n)
        draws = np.ones(n, dtype=np.int64)
        stumps: list[DecisionTree] = []
        alphas: list[float] = []
        chance = 1.0 - 1.0 / n_classes
        for _ in range(config.rounds):
            stump = _grow(X, codes, y, w, n_classes, _STUMP, None, None, draws)
            miss = stump.predict_batch(X) != y
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
        return {
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "alphas": self.alphas,
            "stumps": [s.to_dict() for s in self.stumps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaBoost":
        return cls(
            [DecisionTree.from_dict(s) for s in data["stumps"]],
            [float(a) for a in data["alphas"]],
            int(data["n_features"]),
            int(data["n_classes"]),
        )
