"""Reference frame route of the virtual closed loop, as the tests' oracle.

This is the route that `OnlineClassifier.on_sample` replaced inside
`pipeline.closed_loop`: each station sample becomes a measurement frame, and
the classifier parses and checks it again, then predicts, smooths and
commands in one method. `FrameRouteClassifier.on_measurement` is that method
as it was, with its own copy of the decision step, so a fault in the served
decision step shows as a difference against it. Only its output follows the
served shape: a trace of the six uplink stamps, a command issued at the
trace's inference end, and no command before the UE's window is full. It
smooths by recounting the window at every step (`window_majority`), where the
served step keeps running counts.
`fraction_within` is a reading of a time-to-correct result that only the
tests take.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from ranguard.databus import DatabusFrame, FrameKind, now_us
from ranguard.kpm import CLASS_ORDER, KpmSample, TrafficCategory, TrafficClass, category_of, feature_vector
from ranguard.ransim import RicCommand, build_station
from ranguard.xapp import Decision, LatencyTrace, OnlineClassifier, TimeToCorrect, virtual_trace


def window_majority(labels: Sequence[TrafficClass]) -> TrafficClass:
    """Most frequent label; ties go to the lowest class index."""
    if not labels:
        raise ValueError("window_majority needs at least one label")
    return max(CLASS_ORDER, key=labels.count)  # max keeps the first of equal counts


@dataclass
class _UeTrack:
    window: deque
    attack_run: int = 0
    engaged: bool = False  # a command already covers the current episode


def fraction_within(ttc: TimeToCorrect, budget_ms: float) -> float:
    """Share of all scored segments that settled within the budget."""
    if not ttc.times_ms:
        raise ValueError("no segments scored")
    return sum(1 for t in ttc.times_ms if t <= budget_ms) / ttc.total


class FrameRouteClassifier(OnlineClassifier):
    """OnlineClassifier whose on_measurement decides inline, as before on_sample existed.

    It keeps the modeled stamping the served classifier once did: given a
    `stamp` function, such as `virtual_trace`, it stamps each frame with
    `stamp` of the frame's send stamp.
    """

    def __init__(
        self, model, class_labels, policy=None, *, stamp: Callable[[int], LatencyTrace] | None = None
    ) -> None:
        super().__init__(model, class_labels, policy)
        self.stamp = stamp

    def on_measurement(self, frame: DatabusFrame) -> Decision | None:
        try:
            sample = KpmSample.from_payload(frame.payload)
            features = feature_vector(sample)
        except (ValueError, TypeError, OverflowError):
            self.malformed += 1
            return None

        if self.stamp is not None:
            raw_idx = int(self.model.predict(features))
            trace = self.stamp(frame.t_sent_us)
        else:
            t_send = frame.t_sent_us
            bus = frame.payload.get("bus")
            bus = bus if isinstance(bus, Mapping) else {}
            t_bus_in = bus.get("in_us", t_send)
            t_bus_out = bus.get("out_us", t_bus_in)
            if not (type(t_bus_in) is int and type(t_bus_out) is int and t_send <= t_bus_in <= t_bus_out):
                self.malformed += 1
                return None
            t_recv = max(now_us(), t_bus_out)
            t_infer_start = max(now_us(), t_recv)
            raw_idx = int(self.model.predict(features))
            t_infer_end = max(now_us(), t_infer_start)
            trace = LatencyTrace(
                t_bs_send_us=t_send,
                t_bus_in_us=t_bus_in,
                t_bus_out_us=t_bus_out,
                t_xapp_recv_us=t_recv,
                t_infer_start_us=t_infer_start,
                t_infer_end_us=t_infer_end,
            )
        if not 0 <= raw_idx < len(self.class_labels):
            raise ValueError(
                f"model predicted index {raw_idx}, but only {len(self.class_labels)} labels are mapped"
            )
        raw = self.class_labels[raw_idx]

        track = self._tracks.setdefault(sample.ue_id, _UeTrack(deque(maxlen=self.policy.window)))
        track.window.append(raw)
        smoothed = window_majority(track.window)
        attack = category_of(smoothed) is TrafficCategory.ATTACK
        track.attack_run = track.attack_run + 1 if attack else 0

        command = None
        full = len(track.window) == track.window.maxlen
        if attack and track.attack_run >= self.policy.dwell and not track.engaged and full:
            track.engaged = True
            command = RicCommand(
                ue_id=sample.ue_id,
                action=self.policy.actions[smoothed],
                issued_at_us=trace.t_infer_end_us,
                cmd_id=self._next_cmd_id,
            )
            self._next_cmd_id += 1
        elif not attack:
            track.engaged = False

        return Decision(
            ue_id=sample.ue_id,
            timestamp_ms=sample.timestamp_ms,
            raw=raw,
            smoothed=smoothed,
            command=command,
            trace=trace,
        )


def frame_route_decisions(config, model, class_labels, policy) -> list[Decision]:
    """Decisions of the virtual loop run over the frame route; commands applied as closed_loop does."""
    bs = build_station(config)
    xapp = FrameRouteClassifier(model, class_labels, policy, stamp=virtual_trace)
    decisions = []
    for t in range(0, config.duration_ms, config.period_ms):
        for labeled in bs.tick_samples(t):
            frame = DatabusFrame(FrameKind.MEASUREMENT, bs.kpm_topic, t * 1000, labeled.sample.to_payload())
            decision = xapp.on_measurement(frame)
            if decision is None:
                raise RuntimeError("classifier rejected a frame the station produced")
            decisions.append(decision)
            if decision.command is not None:
                trace = decision.trace
                bs.apply_command(decision.command, applied_at_us=trace.t_bs_send_us + trace.t_d_us)
    return decisions
