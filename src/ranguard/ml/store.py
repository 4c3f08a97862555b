"""Versioned JSON model files: save, load, and format checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from ranguard.files import atomic_write
from ranguard.ml.adaboost import AdaBoost
from ranguard.ml.ensemble import TreeModel
from ranguard.ml.forest import RandomForest
from ranguard.ml.neighbors import KnnClassifier
from ranguard.ml.tree import DecisionTree

MODEL_FORMAT = "ranguard-model"
MODEL_VERSION = 1

_ALGOS = {
    cls.algo_name: cls for cls in (DecisionTree, RandomForest, KnnClassifier, AdaBoost)
}

Model = TreeModel | KnnClassifier


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
    with atomic_write(path) as fh:
        _write_json(fh, envelope)


def _write_json(fh: TextIO, value: object) -> None:
    """Write the text of json.dumps(value), byte for byte, in pieces.

    Dicts are opened here, and an iterator is written as a JSON array, one
    json.dumps per element as the iterator makes it, so no one object holds
    the whole file. Everything else goes through json.dumps whole: its C
    encoder is several times faster than json.dump's pure-Python one.
    """
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, member) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, member)
        fh.write("}")
    elif isinstance(value, Iterator):
        fh.write("[")
        for i, element in enumerate(value):
            fh.write(f"{', ' if i else ''}{json.dumps(element)}")
        fh.write("]")
    else:
        fh.write(json.dumps(value))


def load_model(path: str | Path) -> LoadedModel:
    if not str(path):
        raise ModelFormatError("model path must not be empty")
    path = Path(path)
    if not path.is_file():
        raise ModelFormatError(f"model file not found: {path}")
    try:
        envelope = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
