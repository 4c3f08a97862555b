"""Reference records and latency report, as the tests' oracle.

These are the per-sample, per-frame and per-decision records as they were
before each got slots and a generated `__init__`: plain frozen dataclasses
whose `__post_init__` checks every field in turn. `KpmSample` walks its field
table at run time where the served class runs generated lines, and
`LatencyTrace` checks its stamps with a loop over `vars()`. `latency_report`
takes each component's quantiles in its own percentile call. A served record
must accept and refuse the same values with the same message, and the served
report must equal this one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from ranguard.databus import _TOPIC_RE, FrameKind, valid_pattern
from ranguard.kpm import TrafficClass
from ranguard.ransim import RicCommand
from ranguard.xapp import BUDGET_US, LatencyReport, QuantilePair


def _kpm_field(lo: int | None = None, hi: int | None = None):
    return field(metadata={"range": (lo, hi)})


@dataclass(frozen=True)
class KpmSample:
    timestamp_ms: int = _kpm_field(0)
    bs_id: int = _kpm_field(0)
    ue_id: int = _kpm_field(0)
    cqi: int = _kpm_field(0, 15)
    dl_mcs: int = _kpm_field(0, 28)
    ul_mcs: int = _kpm_field(0, 28)
    pusch_sinr_db: float = _kpm_field()
    pucch_sinr_db: float = _kpm_field()
    dl_brate_bps: float = _kpm_field(0)
    ul_brate_bps: float = _kpm_field(0)
    ul_pkts_ok: int = _kpm_field(0)
    ul_pkts_nok: int = _kpm_field(0)

    def __post_init__(self) -> None:
        """Each field in turn: finite if a float, then inside its range."""
        for f in fields(self):
            lo, hi = f.metadata["range"]
            v = getattr(self, f.name)
            if f.type != "int" and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if hi is not None:
                if not lo <= v <= hi:
                    raise ValueError(f"{f.name} must be in [{lo}, {hi}], got {v}")
            elif lo is not None and not lo <= v:
                raise ValueError(f"{f.name} must be >= {lo}, got {v}")


@dataclass(frozen=True)
class LabeledSample:
    sample: KpmSample
    label: TrafficClass


@dataclass(frozen=True)
class DatabusFrame:
    kind: FrameKind
    topic: str
    t_sent_us: int
    payload: Mapping

    def __post_init__(self) -> None:
        if type(self.t_sent_us) is not int or self.t_sent_us < 0:
            raise ValueError(f"t_sent_us must be a nonnegative integer, got {self.t_sent_us!r}")
        if type(self.payload) is not dict and not isinstance(self.payload, Mapping):
            raise ValueError("payload must be a JSON object")
        if self.kind is FrameKind.SUBSCRIBE:
            if not valid_pattern(self.topic):
                raise ValueError(f"bad subscribe pattern {self.topic!r}")
        elif self.kind is FrameKind.ACK:
            if not self.topic:
                raise ValueError("ack topic must not be empty")
        elif not _TOPIC_RE.match(self.topic):
            raise ValueError(f"bad topic {self.topic!r} (want kpm.<id>, ctrl.<id>, or event.<id>)")


@dataclass(frozen=True)
class LatencyTrace:
    t_bs_send_us: int
    t_bus_in_us: int
    t_bus_out_us: int
    t_xapp_recv_us: int
    t_infer_start_us: int
    t_infer_end_us: int

    def __post_init__(self) -> None:
        prev_name, prev = None, 0
        for name, value in vars(self).items():
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            if value < prev:
                raise ValueError(f"{name}={value} precedes {prev_name}={prev}")
            prev_name, prev = name, value


@dataclass(frozen=True)
class Decision:
    ue_id: int
    timestamp_ms: int
    raw: TrafficClass
    smoothed: TrafficClass
    command: RicCommand | None
    trace: LatencyTrace


def latency_report(traces: Sequence) -> LatencyReport:
    """Each component's median and p99 in its own percentile call, read through the trace's properties."""
    if not traces:
        raise ValueError("latency_report needs at least one trace")

    def quantiles(values: list[int]) -> QuantilePair:
        median, p99 = np.percentile(np.asarray(values, dtype=np.float64), (50, 99))
        return QuantilePair(float(median), float(p99))

    t_d = [t.t_d_us for t in traces]
    return LatencyReport(
        count=len(traces),
        delta_i=quantiles([t.delta_i_us for t in traces]),
        delta_d=quantiles([t.delta_d_us for t in traces]),
        t_n=quantiles([t.t_n_us for t in traces]),
        t_d=quantiles(t_d),
        over_budget=sum(1 for v in t_d if v > BUDGET_US),
        worst_t_d_us=max(t_d),
    )
