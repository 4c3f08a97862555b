"""Online traffic classifier: per-UE smoothed verdicts, policy-driven commands, latency traces.

Every measurement, a bus frame or a sample the program made itself, becomes
one Decision: the raw model prediction, the window-majority smoothed verdict,
an optional mitigation command (emitted once per sustained attack episode),
and a LatencyTrace capturing where the control loop spent its time. Each
entry point stamps with one clock: on_measurement with the wall clock (bus
frames), on_sample with a DelayModel (deterministic virtual runs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Iterable, Mapping, Sequence

import numpy as np

from .databus import DatabusFrame, now_us
from .kpm import (
    CLASS_ORDER,
    KpmSample,
    TrafficCategory,
    TrafficClass,
    category_of,
    feature_vector,
)
from .ransim import BaseStation, CommandAction, RicCommand, read_key_values

BUDGET_US = 1_000_000  # near-real-time control loop bound


# -- latency accounting --


@dataclass(frozen=True)
class LatencyTrace:
    """Microsecond stamps along one decision's uplink path; monotone in field order.

    A command issued by the decision carries its own stamp, issued_at_us,
    which is t_infer_end_us.
    """

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

    @property
    def delta_bd_us(self) -> int:
        """BS to databus transmission."""
        return self.t_bus_in_us - self.t_bs_send_us

    @property
    def delta_d_us(self) -> int:
        """Databus processing (one direction)."""
        return self.t_bus_out_us - self.t_bus_in_us

    @property
    def delta_dr_us(self) -> int:
        """Databus to controller transmission."""
        return self.t_xapp_recv_us - self.t_bus_out_us

    @property
    def delta_i_us(self) -> int:
        """Model inference."""
        return self.t_infer_end_us - self.t_infer_start_us

    @property
    def t_n_us(self) -> int:
        """Round-trip network delay: both transmission legs, both directions."""
        return 2 * (self.delta_bd_us + self.delta_dr_us)

    @property
    def t_d_us(self) -> int:
        """Total control-loop delay."""
        return self.t_n_us + 2 * self.delta_d_us + self.delta_i_us


@dataclass(frozen=True)
class DelayModel:
    """Fixed per-leg delays for deterministic virtual-time stamping.

    Defaults give a 670 us network round trip, 45 us bus processing, and a
    2.86 ms inference: a 3.62 ms control loop.
    """

    delta_bd_us: int = 167
    delta_dr_us: int = 168
    delta_d_us: int = 45
    delta_i_us: int = 2860

    def __post_init__(self) -> None:
        for name in ("delta_bd_us", "delta_dr_us", "delta_d_us", "delta_i_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def t_n_us(self) -> int:
        return 2 * (self.delta_bd_us + self.delta_dr_us)

    @property
    def t_d_us(self) -> int:
        return self.t_n_us + 2 * self.delta_d_us + self.delta_i_us

    def trace(self, t_bs_send_us: int) -> LatencyTrace:
        """Fully synthetic trace: every stamp a fixed offset from the send stamp."""
        t_bus_in = t_bs_send_us + self.delta_bd_us
        t_bus_out = t_bus_in + self.delta_d_us
        t_recv = t_bus_out + self.delta_dr_us
        return LatencyTrace(t_bs_send_us, t_bus_in, t_bus_out, t_recv, t_recv, t_recv + self.delta_i_us)


@dataclass(frozen=True)
class QuantilePair:
    median_us: float
    p99_us: float


@dataclass(frozen=True)
class LatencyReport:
    count: int
    delta_i: QuantilePair
    delta_d: QuantilePair
    t_n: QuantilePair
    t_d: QuantilePair
    budget_us: int
    over_budget: int  # traces whose total delay exceeds the budget
    worst_t_d_us: int

    @property
    def p99_margin_us(self) -> float:
        return self.budget_us - self.t_d.p99_us

    def summary_lines(self) -> list[str]:
        def fmt(name: str, pair: QuantilePair) -> str:
            return f"{name:8s} median {pair.median_us/1000:10.3f} ms   p99 {pair.p99_us/1000:10.3f} ms"

        lines = [
            f"decisions: {self.count}",
            fmt("delta_i", self.delta_i),
            fmt("delta_d", self.delta_d),
            fmt("t_n", self.t_n),
            fmt("T_d", self.t_d),
            f"budget:   {self.budget_us/1000:.0f} ms, margin at p99 {self.p99_margin_us/1000:.3f} ms",
            f"over budget: {self.over_budget} (worst T_d {self.worst_t_d_us/1000:.3f} ms)",
        ]
        return lines


def latency_report(traces: Sequence[LatencyTrace], *, budget_us: int = BUDGET_US) -> LatencyReport:
    """Median/p99 of each delay component plus margin against the loop budget."""
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
        budget_us=budget_us,
        over_budget=sum(1 for v in t_d if v > budget_us),
        worst_t_d_us=max(t_d),
    )


# -- smoothing and policy --


def window_majority(labels: Sequence[TrafficClass]) -> TrafficClass:
    """Most frequent label; ties go to the lowest class index."""
    if not labels:
        raise ValueError("window_majority needs at least one label")
    return max(CLASS_ORDER, key=labels.count)  # max keeps the first of equal counts


DEFAULT_WINDOW = 5
DEFAULT_DWELL = 3


@dataclass(frozen=True)
class PolicyMap:
    """What to do about each traffic class, plus how much evidence to require."""

    actions: Mapping[TrafficClass, CommandAction]
    window: int = DEFAULT_WINDOW
    dwell: int = DEFAULT_DWELL

    def __post_init__(self) -> None:
        missing = [cls.value for cls in TrafficClass if cls not in self.actions]
        if missing:
            raise ValueError(f"policy must cover every class; missing {missing}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {self.dwell}")

    @classmethod
    def default(cls, *, window: int = DEFAULT_WINDOW, dwell: int = DEFAULT_DWELL) -> "PolicyMap":
        """Benign traffic forwards; any attack class releases the RRC connection."""
        actions = {
            c: (
                CommandAction.FORWARD
                if category_of(c) is TrafficCategory.BENIGN
                else CommandAction.RRC_RELEASE
            )
            for c in TrafficClass
        }
        return cls(actions, window=window, dwell=dwell)


class PolicyError(ValueError):
    """Policy config text that cannot be used to build a PolicyMap."""


def parse_policy(text: str) -> PolicyMap:
    """PolicyMap from key = value text: window, dwell, and one action per class."""
    actions: dict[TrafficClass, CommandAction] = {}
    knobs = {"window": DEFAULT_WINDOW, "dwell": DEFAULT_DWELL}
    class_by_label = {cls.value: cls for cls in TrafficClass}
    for key, (line_no, value) in read_key_values(text, PolicyError).items():
        if key in knobs:
            try:
                knobs[key] = int(value)
            except ValueError:
                raise PolicyError(f"line {line_no}: {key} must be an integer, got {value!r}") from None
        elif key in class_by_label:
            try:
                actions[class_by_label[key]] = CommandAction(value)
            except ValueError:
                choices = ", ".join(a.value for a in CommandAction)
                raise PolicyError(
                    f"line {line_no}: action must be one of {choices}, got {value!r}"
                ) from None
        else:
            raise PolicyError(f"line {line_no}: unknown key {key!r}")
    try:
        return PolicyMap(actions, window=knobs["window"], dwell=knobs["dwell"])
    except ValueError as exc:
        raise PolicyError(str(exc)) from None


def format_policy(policy: PolicyMap) -> str:
    """PolicyMap back to parseable text; parse_policy(format_policy(p)) == p."""
    lines = [f"window = {policy.window}", f"dwell = {policy.dwell}"]
    lines += [f"{cls.value} = {policy.actions[cls].value}" for cls in TrafficClass]
    return "\n".join(lines) + "\n"


# -- the online classifier --


@dataclass(frozen=True)
class Decision:
    """One classified measurement interval for one UE."""

    ue_id: int
    timestamp_ms: int
    raw: TrafficClass
    smoothed: TrafficClass
    command: RicCommand | None
    trace: LatencyTrace


@dataclass
class _UeTrack:
    window: deque
    attack_run: int = 0
    engaged: bool = False  # a command already covers the current episode


class OnlineClassifier:
    """Consumes measurements, emits at most one command per attack episode.

    on_measurement takes bus frames, checks them and stamps with the wall
    clock; on_sample takes samples the program made itself and stamps with
    the delay model. Both end in the same decision step, which reads no clock.
    """

    def __init__(
        self,
        model,
        class_labels: Sequence[TrafficClass],
        policy: PolicyMap | None = None,
        *,
        delay_model: DelayModel | None = None,
    ) -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose predict(features) -> class index")
        self.model = model
        self.class_labels = tuple(class_labels)
        self.policy = policy if policy is not None else PolicyMap.default()
        self.delay_model = delay_model
        self.malformed = 0  # frames skipped: not a measurement, or bad bus stamps
        self._tracks: dict[int, _UeTrack] = {}
        self._next_cmd_id = 1

    def _track(self, ue_id: int) -> _UeTrack:
        track = self._tracks.get(ue_id)
        if track is None:
            track = _UeTrack(deque(maxlen=self.policy.window))
            self._tracks[ue_id] = track
        return track

    def on_measurement(self, frame: DatabusFrame) -> Decision | None:
        """Classify one bus frame, stamped by the wall clock; None for a bad frame.

        The trust boundary for measurements from outside: the payload and the
        bus stamps are checked here, and a bad frame is counted, not raised.
        """
        t_arrived = now_us()
        try:
            sample = KpmSample.from_payload(frame.payload)
        except (ValueError, TypeError):
            self.malformed += 1
            return None
        features = feature_vector(sample)
        t_send = frame.t_sent_us
        bus = frame.payload.get("bus")
        bus = bus if isinstance(bus, Mapping) else {}
        t_bus_in = bus.get("in_us", t_send)
        t_bus_out = bus.get("out_us", t_bus_in)
        # a bad stamp, or one from a clock other than the sender's, is skipped, not fatal
        if not (type(t_bus_in) is int and type(t_bus_out) is int and t_send <= t_bus_in <= t_bus_out):
            self.malformed += 1
            return None
        # clamps keep the trace monotone against sub-us cross-thread jitter
        t_recv = max(t_arrived, t_bus_out)
        t_infer_start = max(now_us(), t_recv)
        raw_idx = int(self.model.predict(features))
        t_infer_end = max(now_us(), t_infer_start)
        trace = LatencyTrace(t_send, t_bus_in, t_bus_out, t_recv, t_infer_start, t_infer_end)
        return self._decide(sample, raw_idx, trace)

    def on_sample(self, sample: KpmSample, t_sent_us: int) -> Decision:
        """Classify one sample this program made itself, stamped by the delay model.

        The virtual loop's entry: the sample was checked when it was made, so
        no bus frame is built and the payload is not checked a second time.
        Needs a delay model.
        """
        raw_idx = int(self.model.predict(feature_vector(sample)))
        return self._decide(sample, raw_idx, self.delay_model.trace(t_sent_us))

    def _decide(self, sample: KpmSample, raw_idx: int, trace: LatencyTrace) -> Decision:
        """Smooth the raw label into the UE's window, and command once per sustained episode.

        A command is stamped issued at the end of inference.
        """
        if not 0 <= raw_idx < len(self.class_labels):
            raise ValueError(
                f"model predicted index {raw_idx}, but only {len(self.class_labels)} labels are mapped"
            )
        raw = self.class_labels[raw_idx]

        track = self._track(sample.ue_id)
        track.window.append(raw)
        smoothed = window_majority(track.window)
        attack = category_of(smoothed) is TrafficCategory.ATTACK
        track.attack_run = track.attack_run + 1 if attack else 0

        command = None
        if attack and track.attack_run >= self.policy.dwell and not track.engaged:
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


# -- time-to-correct --


@dataclass(frozen=True)
class GroundTruthSegment:
    """One legged interval of a UE's script: [start_ms, end_ms) runs one class."""

    ue_id: int
    start_ms: int
    end_ms: int
    label: TrafficClass

    def __post_init__(self) -> None:
        if not 0 <= self.start_ms < self.end_ms:
            raise ValueError(f"need 0 <= start_ms < end_ms, got {self.start_ms}..{self.end_ms}")


def ground_truth_segments(bs: BaseStation, duration_ms: int) -> list[GroundTruthSegment]:
    """Per-UE class timeline implied by the scripts a station was built with.

    Scripts shorter than the run are extended (the final class keeps running);
    longer scripts are truncated at the run's end.
    """
    segments: list[GroundTruthSegment] = []
    for ue in bs.ues:
        start = 0
        script = ue.stream.script
        for i, leg in enumerate(script):
            end = start + leg.duration_ms
            if i == len(script) - 1:
                end = max(end, duration_ms)
            end = min(end, duration_ms)
            if end > start:
                segments.append(GroundTruthSegment(ue.ue_id, start, end, leg.traffic_class))
            start += leg.duration_ms
            if start >= duration_ms:
                break
    return segments


@dataclass(frozen=True)
class TimeToCorrect:
    """Per-segment stabilization times and their distribution.

    times_ms holds one entry per segment, inf for segments that never settle
    on the true class; the CDF denominator is the full segment count, so a
    curve that tops out below 1.0 is showing unresolved segments.
    """

    times_ms: tuple[float, ...]

    @property
    def total(self) -> int:
        return len(self.times_ms)

    @property
    def unresolved(self) -> int:
        return sum(1 for t in self.times_ms if t == inf)

    def fraction_within(self, budget_ms: float) -> float:
        if not self.times_ms:
            raise ValueError("no segments scored")
        return sum(1 for t in self.times_ms if t <= budget_ms) / self.total

    def cdf(self) -> list[tuple[float, float]]:
        """Step points (time_ms, cumulative fraction of all segments)."""
        finite = sorted(t for t in self.times_ms if t != inf)
        points = []
        for i, t in enumerate(finite, start=1):
            if points and points[-1][0] == t:
                points[-1] = (t, i / self.total)
            else:
                points.append((t, i / self.total))
        return points


def time_to_correct(
    decisions: Iterable[Decision],
    segments: Sequence[GroundTruthSegment],
    *,
    period_ms: int,
) -> TimeToCorrect:
    """When, within each segment, the smoothed verdict became and stayed correct.

    A decision stamped at t is observable once its measurement interval has
    elapsed, so a correct suffix starting at relative stamp r scores r +
    period_ms; a segment whose verdicts are correct throughout scores 0, and
    one whose final verdict is wrong scores inf.
    """
    if period_ms < 1:
        raise ValueError(f"period_ms must be >= 1, got {period_ms}")
    by_ue: dict[int, list[Decision]] = {}
    for d in decisions:
        by_ue.setdefault(d.ue_id, []).append(d)
    for rows in by_ue.values():
        rows.sort(key=lambda d: d.timestamp_ms)

    times: list[float] = []
    for seg in segments:
        rows = [
            d
            for d in by_ue.get(seg.ue_id, [])
            if seg.start_ms <= d.timestamp_ms < seg.end_ms
        ]
        if not rows:
            times.append(inf)
            continue
        wrong = [i for i, d in enumerate(rows) if d.smoothed is not seg.label]
        if not wrong:
            times.append(0.0)
        elif wrong[-1] == len(rows) - 1:
            times.append(inf)
        else:
            first_correct = rows[wrong[-1] + 1]
            times.append(float(first_correct.timestamp_ms - seg.start_ms + period_ms))
    return TimeToCorrect(tuple(times))
