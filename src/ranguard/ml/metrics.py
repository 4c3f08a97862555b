"""Confusion-matrix accounting and the classification scores derived from it."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np


class ConfusionMatrix:
    """Counts of (true label, predicted label) pairs over a fixed label set.

    counts[i, j] is the number of samples with true label i predicted as j.
    """

    def __init__(self, labels: Sequence[str]) -> None:
        if len(labels) == 0:
            raise ValueError("label set must not be empty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {list(labels)}")
        self.labels: tuple[str, ...] = tuple(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self.counts = np.zeros((len(labels), len(labels)), dtype=np.int64)

    @classmethod
    def from_pairs(cls, labels: Sequence[str], pairs: Iterable[tuple[str, str]]) -> "ConfusionMatrix":
        cm = cls(labels)
        for true, pred in pairs:
            cm.add(true, pred)
        return cm

    def add(self, true_label: str, predicted_label: str, n: int = 1) -> None:
        try:
            i = self._index[true_label]
            j = self._index[predicted_label]
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} not in {self.labels}") from None
        self.counts[i, j] += n

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("no samples recorded")
        return float(np.trace(self.counts)) / total

    def precision(self, label: str) -> float:
        j = self._index[label]
        denom = int(self.counts[:, j].sum())
        return int(self.counts[j, j]) / denom if denom else 0.0

    def recall(self, label: str) -> float:
        i = self._index[label]
        denom = int(self.counts[i, :].sum())
        return int(self.counts[i, i]) / denom if denom else 0.0

    def f1(self, label: str) -> float:
        p = self.precision(label)
        r = self.recall(label)
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def collapse(self, grouping: Mapping[str, str]) -> "ConfusionMatrix":
        """Merge labels into groups (e.g. benign/attack); counts sum blockwise.

        Group order follows first appearance while scanning self.labels.
        """
        missing = [l for l in self.labels if l not in grouping]
        if missing:
            raise ValueError(f"grouping does not cover labels: {missing}")
        groups: list[str] = []
        for label in self.labels:
            g = grouping[label]
            if g not in groups:
                groups.append(g)
        out = ConfusionMatrix(groups)
        for i, ti in enumerate(self.labels):
            for j, tj in enumerate(self.labels):
                c = int(self.counts[i, j])
                if c:
                    out.add(grouping[ti], grouping[tj], c)
        return out

    def __str__(self) -> str:
        width = max(len(l) for l in self.labels)
        width = max(width, len(str(self.counts.max())) if self.total else 1, 5)
        head = " " * (width + 2) + " ".join(f"{l:>{width}}" for l in self.labels)
        rows = [head]
        for i, label in enumerate(self.labels):
            cells = " ".join(f"{int(c):>{width}}" for c in self.counts[i])
            rows.append(f"{label:>{width}} | {cells}")
        return "\n".join(rows)
