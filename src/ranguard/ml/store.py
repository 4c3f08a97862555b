"""Versioned JSON model files: save, load, and format checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ranguard.ml.adaboost import AdaBoost
from ranguard.ml.forest import RandomForest
from ranguard.ml.neighbors import KnnClassifier
from ranguard.ml.tree import DecisionTree

MODEL_FORMAT = "ranguard-model"
MODEL_VERSION = 1

_ALGOS = {
    cls.algo_name: cls for cls in (DecisionTree, RandomForest, KnnClassifier, AdaBoost)
}

Model = DecisionTree | RandomForest | KnnClassifier | AdaBoost


class ModelFormatError(ValueError):
    """Raised when a model file is missing, truncated, or from a different format."""


@dataclass(frozen=True)
class LoadedModel:
    model: Model
    class_labels: tuple[str, ...]


def save_model(model: Model, path: str | Path, class_labels: Sequence[str]) -> None:
    """Write a model with its label names. Labels index the model's class ids."""
    if not str(path):
        raise ValueError("model path must not be empty")
    algo = getattr(model, "algo_name", None)
    if algo not in _ALGOS:
        raise ValueError(f"unsupported model type {type(model).__name__}")
    labels = [str(l) for l in class_labels]
    if len(labels) != model.n_classes:
        raise ValueError(f"model has {model.n_classes} classes but {len(labels)} labels given")
    envelope = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algo": algo,
        "class_labels": labels,
        "payload": model.to_dict(),
    }
    Path(path).write_text(json.dumps(envelope))


def load_model(path: str | Path) -> LoadedModel:
    if not str(path):
        raise ModelFormatError("model path must not be empty")
    path = Path(path)
    if not path.is_file():
        raise ModelFormatError(f"model file not found: {path}")
    try:
        envelope = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(envelope, dict) or envelope.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    version = envelope.get("version")
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: model format version {version!r} not supported (expected {MODEL_VERSION})"
        )
    algo = envelope.get("algo")
    if algo not in _ALGOS:
        raise ModelFormatError(f"{path}: unknown algorithm {algo!r}")
    try:
        model = _ALGOS[algo].from_dict(envelope["payload"])
        labels = tuple(str(l) for l in envelope["class_labels"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed {algo} payload: {exc}") from None
    if len(labels) != model.n_classes:
        raise ModelFormatError(
            f"{path}: {len(labels)} labels for a {model.n_classes}-class model"
        )
    return LoadedModel(model, labels)
