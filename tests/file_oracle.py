"""Whole-object writers of the dataset and model files, the oracles of the streamed ones.

Each builds its whole file in memory and writes it with one call, as the
writers did before they streamed; the streamed files must match them byte
for byte. `traced_peak` measures what streaming saves.
"""

from __future__ import annotations

import csv
import json
import tracemalloc
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from ranguard.kpm import CSV_HEADER

_values = attrgetter(*CSV_HEADER[:-1])


def write_dataset_whole(path: Path, items) -> None:
    """The dataset CSV from a list of every row; header only when there are none."""
    rows = [[*map(str, _values(item.sample)), item.label.value] for item in items]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def save_model_whole(model, path: Path, class_labels) -> None:
    """The model file as one json.dumps of the whole envelope."""
    envelope = {
        "format": "ranguard-model",
        "version": 1,
        "algo": model.algo_name,
        "class_labels": [str(l) for l in class_labels],
        "payload": whole_payload(model),
    }
    path.write_text(json.dumps(envelope))


def whole_payload(model) -> dict:
    """model.to_dict() with the iterator of a forest's trees or AdaBoost's stumps made a list."""
    return {k: list(v) if isinstance(v, Iterator) else v for k, v in model.to_dict().items()}


def traced_peak(run) -> int:
    """Peak traced bytes of one call of run(), after an untraced warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
