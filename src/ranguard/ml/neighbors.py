"""k-nearest-neighbour voting on min-max scaled features."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ranguard.ml.tree import _validate_training_data

# Elements of one query-by-training block in predict_batch: a float64 block is
# 8 MiB, and a chunk holds about two (the distances and the neighbour ranking).
_CHUNK_ELEMENTS = 1 << 20


class KnnClassifier:
    """Euclidean kNN; features scaled to [0, 1] by the training ranges.

    Vote ties resolve to the lowest class index. Constant features scale
    with a unit range so they contribute nothing to the distance.
    """

    algo_name = "knn"

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.n_features = 0
        self.n_classes = 0
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._mins: np.ndarray | None = None
        self._ranges: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None  # squared norm of each scaled training row

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> "KnnClassifier":
        X, y = _validate_training_data(X, y, n_classes)
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds training set size {X.shape[0]}")
        self.n_features = X.shape[1]
        self.n_classes = n_classes
        self._mins = X.min(axis=0)
        ranges = X.max(axis=0) - self._mins
        ranges[ranges == 0] = 1.0
        self._ranges = ranges
        self._X = (X - self._mins) / ranges
        self._y = y
        self._sq_norms = (self._X * self._X).sum(axis=1)
        return self

    def _require_fit(self) -> None:
        if self._X is None:
            raise ValueError("classifier is not fitted")

    def _scale(self, X: np.ndarray) -> np.ndarray:
        return (X - self._mins) / self._ranges

    def predict(self, x: Sequence[float]) -> int:
        self._require_fit()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        # same code path as batches so nearest-neighbour ranking is identical
        return int(self.predict_batch(x[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        self._require_fit()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) matrix, got shape {X.shape}")
        out = np.empty(X.shape[0], dtype=np.int64)
        rows = max(1, _CHUNK_ELEMENTS // self._X.shape[0])  # query rows per chunk
        for start in range(0, X.shape[0], rows):
            q = self._scale(X[start : start + rows])
            # squared distances without the query-norm term (rank-invariant per row)
            d2 = 2.0 * q @ self._X.T
            np.subtract(self._sq_norms, d2, out=d2)
            if self.k < self._X.shape[0]:
                near = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            else:
                near = np.broadcast_to(np.arange(self._X.shape[0]), (q.shape[0], self._X.shape[0]))
            labels = self._y[near]
            onehot = np.zeros((labels.shape[0], self.n_classes), dtype=np.int64)
            np.add.at(onehot, (np.arange(labels.shape[0])[:, None], labels), 1)
            out[start : start + len(q)] = np.argmax(onehot, axis=1)
        return out

    def to_dict(self) -> dict:
        self._require_fit()
        return {
            "k": self.k,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "mins": self._mins.tolist(),
            "ranges": self._ranges.tolist(),
            "X_scaled": self._X.tolist(),
            "y": self._y.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KnnClassifier":
        knn = cls(int(data["k"]))
        knn.n_features = int(data["n_features"])
        knn.n_classes = int(data["n_classes"])
        knn._mins = np.asarray(data["mins"], dtype=np.float64)
        knn._ranges = np.asarray(data["ranges"], dtype=np.float64)
        knn._X = np.asarray(data["X_scaled"], dtype=np.float64)
        knn._y = np.asarray(data["y"], dtype=np.int64)
        knn._sq_norms = (knn._X * knn._X).sum(axis=1)
        return knn
