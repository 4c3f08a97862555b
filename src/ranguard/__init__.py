"""Desk-scale Open-RAN early attack detection testbed.

A simulated base station streams per-UE KPM measurements over a small TCP
pub/sub databus; a near-real-time classifier xApp labels each UE's traffic
every measurement period and closes the loop with mitigation commands.
"""

from ranguard.kpm import (
    CLASS_ORDER,
    FEATURE_NAMES,
    KpmSample,
    LabeledSample,
    TrafficCategory,
    TrafficClass,
    category_of,
    feature_vector,
    read_dataset,
    write_dataset,
)
from ranguard.pipeline import (
    TrainOptions,
    bench_latency,
    closed_loop,
    collect,
    evaluate,
    load_online_model,
    run_xapp,
    train,
    train_model,
    write_closed_loop_report,
)
from ranguard.ransim import BaseStation, ScenarioConfig, UeSpec, build_station, run_scenario
from ranguard.xapp import LatencyTrace, OnlineClassifier, PolicyMap

__all__ = [
    "CLASS_ORDER",
    "FEATURE_NAMES",
    "BaseStation",
    "KpmSample",
    "LabeledSample",
    "LatencyTrace",
    "OnlineClassifier",
    "PolicyMap",
    "ScenarioConfig",
    "TrafficCategory",
    "TrafficClass",
    "TrainOptions",
    "UeSpec",
    "bench_latency",
    "category_of",
    "closed_loop",
    "collect",
    "evaluate",
    "feature_vector",
    "load_online_model",
    "read_dataset",
    "run_scenario",
    "run_xapp",
    "train",
    "train_model",
    "write_closed_loop_report",
    "write_dataset",
]

__version__ = "0.1.0"
