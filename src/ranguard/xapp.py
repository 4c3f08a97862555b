"""Online traffic classifier: per-UE smoothed verdicts, policy-driven commands, latency traces.

Every measurement, a bus frame or a sample the program made itself, becomes
one Decision: the raw model prediction, the window-majority smoothed verdict,
an optional mitigation command (emitted once per sustained attack episode),
and a LatencyTrace capturing where the control loop spent its time. Only
on_measurement reads a clock, the wall clock of bus frames; on_sample takes
the trace its caller made, such as `virtual_trace`'s in a virtual run.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from itertools import chain
from math import inf
from operator import attrgetter

import numpy as np

from .databus import DatabusFrame, now_us
from .kpm import ATTACK_CLASSES, CLASS_ORDER, KpmSample, TrafficClass, feature_vector
from .ransim import BaseStation, CommandAction, RicCommand, parse_int, read_key_values
from .records import define, record

BUDGET_US = 1_000_000  # near-real-time control loop bound


# -- latency accounting --


@record
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
        _check_trace(self)

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


_STAMP_NAMES = tuple(f.name for f in fields(LatencyTrace))
_stamps = attrgetter(*_STAMP_NAMES)


def _check_trace_body() -> list[str]:
    """Each stamp in field order: a nonnegative int, then no earlier than the stamp before
    it (the first has only zero before it, which the first rule already enforces)."""
    body = []
    for prev, name in zip((None,) + _STAMP_NAMES, _STAMP_NAMES):
        body.append(f"{name} = s.{name}")
        body.append(
            f"if not isinstance({name}, int) or {name} < 0: "
            f"raise ValueError(f'{name} must be a nonnegative integer, got {{{name}!r}}')"
        )
        if prev is not None:
            body.append(f"if {name} < {prev}: raise ValueError(f'{name}={{{name}}} precedes {prev}={{{prev}}}')")
    return body


# generated from the stamp fields, as the KPM sample's check is from its field table
_check_trace = define(
    "check_trace", "s", "Raise ValueError naming the first stamp of s that is bad or out of order.", _check_trace_body()
)


# Fixed per-leg delays of the virtual loop: a 670 us network round trip,
# 45 us bus processing and a 2.86 ms inference make a 3.62 ms control loop.
DELTA_BD_US = 167
DELTA_DR_US = 168
DELTA_D_US = 45
DELTA_I_US = 2860


def virtual_trace(t_bs_send_us: int) -> LatencyTrace:
    """Fully synthetic trace: every stamp a fixed leg offset from the send stamp."""
    t_bus_in = t_bs_send_us + DELTA_BD_US
    t_bus_out = t_bus_in + DELTA_D_US
    t_recv = t_bus_out + DELTA_DR_US
    return LatencyTrace(t_bs_send_us, t_bus_in, t_bus_out, t_recv, t_recv, t_recv + DELTA_I_US)


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
    over_budget: int  # traces whose total delay exceeds the budget
    worst_t_d_us: int

    @property
    def p99_margin_us(self) -> float:
        return BUDGET_US - self.t_d.p99_us

    def summary_lines(self) -> list[str]:
        def fmt(name: str, pair: QuantilePair) -> str:
            return f"{name:8s} median {pair.median_us/1000:10.3f} ms   p99 {pair.p99_us/1000:10.3f} ms"

        lines = [
            f"decisions: {self.count}",
            fmt("delta_i", self.delta_i),
            fmt("delta_d", self.delta_d),
            fmt("t_n", self.t_n),
            fmt("T_d", self.t_d),
            f"budget:   {BUDGET_US/1000:.0f} ms, margin at p99 {self.p99_margin_us/1000:.3f} ms",
            f"over budget: {self.over_budget} (worst T_d {self.worst_t_d_us/1000:.3f} ms)",
        ]
        return lines


def latency_report(traces: Sequence[LatencyTrace]) -> LatencyReport:
    """Median/p99 of each delay component plus margin against the loop budget.

    The six stamps of every trace go into one int64 matrix, and one percentile
    call takes both quantiles of all four components. The components are exact
    differences of the stamps, as the trace's properties compute them; stamps
    of 2**62 us or more, where T_d could leave int64, are taken as Python ints.
    """
    if not traces:
        raise ValueError("latency_report needs at least one trace")
    rows = list(map(_stamps, traces))
    try:
        stamps = np.fromiter(chain.from_iterable(rows), np.int64, 6 * len(rows)).reshape(-1, 6)
        if stamps[:, -1].max() >= 2**62:  # the last stamp is the largest
            raise OverflowError
    except OverflowError:
        stamps = np.array(rows, dtype=object)
    send, bus_in, bus_out, recv, infer_start, infer_end = stamps.T
    delta_d = bus_out - bus_in
    t_n = 2 * ((bus_in - send) + (recv - bus_out))
    delta_i = infer_end - infer_start
    t_d = t_n + 2 * delta_d + delta_i
    medians, p99s = np.percentile(
        np.array([delta_i, delta_d, t_n, t_d], dtype=np.float64), (50, 99), axis=1
    ).tolist()
    delta_i_q, delta_d_q, t_n_q, t_d_q = map(QuantilePair, medians, p99s)
    return LatencyReport(
        count=len(traces),
        delta_i=delta_i_q,
        delta_d=delta_d_q,
        t_n=t_n_q,
        t_d=t_d_q,
        over_budget=int(np.count_nonzero(t_d > BUDGET_US)),
        worst_t_d_us=int(t_d.max()),
    )


# -- smoothing and policy --


DEFAULT_WINDOW = 5
DEFAULT_DWELL = 3


@dataclass(frozen=True)
class PolicyMap:
    """What to do about each attack class, plus how much evidence to require.

    Only an attack verdict issues a command, so benign classes take no action.
    """

    actions: Mapping[TrafficClass, CommandAction]
    window: int = DEFAULT_WINDOW
    dwell: int = DEFAULT_DWELL

    def __post_init__(self) -> None:
        missing = [cls.value for cls in ATTACK_CLASSES if cls not in self.actions]
        if missing:
            raise ValueError(f"policy must cover every attack class; missing {missing}")
        extra = [getattr(key, "value", key) for key in self.actions if key not in ATTACK_CLASSES]
        if extra:
            raise ValueError(f"policy maps only the attack classes; got {extra}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {self.dwell}")

    @classmethod
    def default(cls) -> "PolicyMap":
        """Any attack class releases the RRC connection."""
        return cls(dict.fromkeys(ATTACK_CLASSES, CommandAction.RRC_RELEASE))


class PolicyError(ValueError):
    """Policy config text that cannot be used to build a PolicyMap."""


def parse_policy(text: str) -> PolicyMap:
    """PolicyMap from key = value text: window, dwell, and one action per attack class."""
    actions: dict[TrafficClass, CommandAction] = {}
    knobs = {"window": DEFAULT_WINDOW, "dwell": DEFAULT_DWELL}
    class_by_label = {cls.value: cls for cls in ATTACK_CLASSES}
    for key, (line_no, value) in read_key_values(text, PolicyError).items():
        if key in knobs:
            knobs[key] = parse_int(key, value, line_no, PolicyError)
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


# -- the online classifier --


@record
class Decision:
    """One classified measurement interval for one UE."""

    ue_id: int
    timestamp_ms: int
    raw: TrafficClass
    smoothed: TrafficClass
    command: RicCommand | None
    trace: LatencyTrace


_ATTACK = tuple(c in ATTACK_CLASSES for c in CLASS_ORDER)


@dataclass(slots=True)
class _UeTrack:
    window: deque  # the CLASS_ORDER positions of the UE's last raw labels
    counts: list[int] = field(default_factory=lambda: [0] * len(CLASS_ORDER))  # of each position in window
    attack_run: int = 0
    engaged: bool = False  # a command already covers the current episode


class OnlineClassifier:
    """Consumes measurements, emits at most one command per attack episode.

    on_measurement takes bus frames, checks them and stamps with the wall
    clock; on_sample takes samples the program made itself with the trace
    its caller stamped. Both end in the same decision step, which reads no
    clock.

    The smoothed verdict is the window's most frequent raw label, ties to the
    lowest class index, read from per-UE counts kept as the window slides.
    """

    def __init__(self, model, class_labels: Sequence[TrafficClass], policy: PolicyMap | None = None) -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose predict(features) -> class index")
        self.model = model
        self.class_labels = tuple(class_labels)
        self._positions = tuple(CLASS_ORDER.index(c) for c in self.class_labels)
        self.policy = policy if policy is not None else PolicyMap.default()
        self.malformed = 0  # frames skipped: not a measurement, or bad bus stamps
        self._tracks: dict[tuple[int, int], _UeTrack] = {}  # by (bs_id, ue_id): UE ids repeat across stations
        self._next_cmd_id = 1

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

    def on_sample(self, sample: KpmSample, trace: LatencyTrace) -> Decision:
        """Classify one sample this program made itself, with the trace its caller stamped.

        The virtual loop's entry: the sample was checked when it was made, so
        no bus frame is built and the payload is not checked a second time.
        The loop makes one trace per tick, and every sample of the tick shares it.
        """
        return self._decide(sample, int(self.model.predict(feature_vector(sample))), trace)

    def _decide(self, sample: KpmSample, raw_idx: int, trace: LatencyTrace) -> Decision:
        """Smooth the raw label into the UE's window, and command once per sustained episode.

        No command is issued before the UE's window is full, so a fresh flow's
        first labels alone cannot release it. A command is stamped issued at
        the end of inference.
        """
        labels = self.class_labels
        if not 0 <= raw_idx < len(labels):
            raise ValueError(f"model predicted index {raw_idx}, but only {len(labels)} labels are mapped")
        raw = labels[raw_idx]

        ue_id = sample.ue_id
        key = (sample.bs_id, ue_id)
        track = self._tracks.get(key)
        if track is None:
            track = self._tracks[key] = _UeTrack(deque(maxlen=self.policy.window))
        window, counts = track.window, track.counts
        if len(window) == window.maxlen:
            counts[window[0]] -= 1  # the label the append below pushes out
        pos = self._positions[raw_idx]
        window.append(pos)
        counts[pos] += 1
        best = counts.index(max(counts))  # the first of equal counts: the lowest class index
        smoothed = CLASS_ORDER[best]
        attack = _ATTACK[best]
        track.attack_run = attack_run = track.attack_run + 1 if attack else 0

        command = None
        full = len(window) == window.maxlen
        if attack and attack_run >= self.policy.dwell and not track.engaged and full:
            track.engaged = True
            command = RicCommand(
                ue_id=ue_id,
                action=self.policy.actions[smoothed],
                issued_at_us=trace.t_infer_end_us,
                cmd_id=self._next_cmd_id,
            )
            self._next_cmd_id += 1
        elif not attack:
            track.engaged = False

        # by position, in field order: cheaper than by name
        return Decision(ue_id, sample.timestamp_ms, raw, smoothed, command, trace)


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
    stamps: dict[int, list[int]] = {}
    for ue_id, rows in by_ue.items():
        rows.sort(key=lambda d: d.timestamp_ms)
        stamps[ue_id] = [d.timestamp_ms for d in rows]

    times: list[float] = []
    for seg in segments:
        rows, ts = by_ue.get(seg.ue_id, []), stamps.get(seg.ue_id, [])
        # the segment's decisions are rows[lo:hi], found by bisection of the sorted stamps
        lo, hi = bisect_left(ts, seg.start_ms), bisect_left(ts, seg.end_ms)
        last_wrong = next((i for i in range(hi - 1, lo - 1, -1) if rows[i].smoothed is not seg.label), None)
        if lo == hi or last_wrong == hi - 1:
            times.append(inf)
        elif last_wrong is None:
            times.append(0.0)
        else:
            times.append(float(rows[last_wrong + 1].timestamp_ms - seg.start_ms + period_ms))
    return TimeToCorrect(tuple(times))
