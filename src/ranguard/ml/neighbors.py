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
    with a unit range so they contribute nothing to the distance. A model is
    built whole, by `train` or from a model file, and its arrays are checked
    against each other when it is made.
    """

    algo_name = "knn"

    def __init__(
        self,
        k: int,
        n_classes: int,
        mins: np.ndarray,
        ranges: np.ndarray,
        X_scaled: np.ndarray,
        y: np.ndarray,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        X_scaled, y = _validate_training_data(X_scaled, y, n_classes)
        rows, cols = X_scaled.shape
        if k > rows:
            raise ValueError(f"k={k} exceeds training set size {rows}")
        for name, column in (("mins", mins), ("ranges", ranges)):
            if column.shape != (cols,):
                raise ValueError(f"{name} has shape {column.shape}, expected ({cols},)")
        if not (np.isfinite(mins).all() and np.isfinite(ranges).all() and (ranges > 0).all()):
            raise ValueError("mins and ranges must be finite, and every range above 0")
        self.k = k
        self.n_features = cols
        self.n_classes = n_classes
        self._X = X_scaled
        self._y = y
        self._mins = mins
        self._ranges = ranges
        self._sq_norms = (X_scaled * X_scaled).sum(axis=1)  # squared norm of each scaled training row

    @classmethod
    def train(cls, X: np.ndarray, y: np.ndarray, n_classes: int, k: int) -> "KnnClassifier":
        X, y = _validate_training_data(X, y, n_classes)
        mins = X.min(axis=0)
        ranges = X.max(axis=0) - mins
        ranges[ranges == 0] = 1.0
        return cls(k, n_classes, mins, ranges, (X - mins) / ranges, y)

    def _scale(self, X: np.ndarray) -> np.ndarray:
        return (X - self._mins) / self._ranges

    def predict(self, x: Sequence[float]) -> int:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        # same code path as batches so nearest-neighbour ranking is identical
        return int(self.predict_batch(x[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
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
        knn = cls(
            int(data["k"]),
            int(data["n_classes"]),
            np.asarray(data["mins"], dtype=np.float64),
            np.asarray(data["ranges"], dtype=np.float64),
            np.asarray(data["X_scaled"], dtype=np.float64),
            np.asarray(data["y"], dtype=np.int64),
        )
        if int(data["n_features"]) != knn.n_features:
            raise ValueError(f"n_features is {data['n_features']}, training rows have {knn.n_features}")
        return knn
