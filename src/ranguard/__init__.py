"""Desk-scale Open-RAN early attack detection testbed.

A simulated base station streams per-UE KPM measurements over a small TCP
pub/sub databus; a near-real-time classifier xApp labels each UE's traffic
every measurement period and closes the loop with mitigation commands.

The names below are imported on first use (PEP 562), so a process that
imports one layer, such as the broker's `ranguard.databus`, loads neither
numpy nor the other layers.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "ranguard.kpm": (
        "CLASS_ORDER",
        "FEATURE_NAMES",
        "KpmSample",
        "LabeledSample",
        "TrafficCategory",
        "TrafficClass",
        "category_of",
        "feature_vector",
        "read_dataset",
    ),
    "ranguard.pipeline": (
        "TrainOptions",
        "bench_latency",
        "closed_loop",
        "collect",
        "evaluate",
        "load_online_model",
        "run_xapp",
        "train",
        "train_model",
        "write_closed_loop_report",
    ),
    "ranguard.ransim": ("BaseStation", "ScenarioConfig", "UeSpec", "build_station", "run_scenario"),
    "ranguard.xapp": ("LatencyTrace", "OnlineClassifier", "PolicyMap"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
