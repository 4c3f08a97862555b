"""Simulated base station: per-UE traffic, periodic measurement export, command execution.

A BaseStation owns a set of UEs, each driven by a scripted traffic stream.
Every period it emits one measurement frame per Connected UE on kpm.<bs_id>.
Control commands arriving on ctrl.<bs_id> switch a UE's packet policy or
release its RRC connection; each actual state change (and each rejected
command) is reported on event.<bs_id> with both command timestamps so the
full control loop can be timed end to end.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .databus import BusClient, DatabusFrame, FrameKind, now_us
from .kpm import LabeledSample, TrafficClass, class_from_label
from .traffic import DEFAULT_PERIOD_MS, MAX_SEGMENT_MS, ScriptSegment, ScriptedStream, build_random_script


class RrcState(Enum):
    CONNECTED = "connected"
    IDLE = "idle"


class CommandAction(Enum):
    FORWARD = "forward"
    DROP = "drop"
    RRC_RELEASE = "rrc_release"


@dataclass(frozen=True)
class RicCommand:
    """One control decision addressed to a UE."""

    ue_id: int
    action: CommandAction
    issued_at_us: int
    cmd_id: int

    def __post_init__(self) -> None:
        if self.ue_id < 0:
            raise ValueError(f"ue_id must be >= 0, got {self.ue_id}")
        if self.issued_at_us < 0:
            raise ValueError(f"issued_at_us must be >= 0, got {self.issued_at_us}")

    def to_payload(self) -> dict:
        return {
            "ue_id": self.ue_id,
            "action": self.action.value,
            "issued_at_us": self.issued_at_us,
            "cmd_id": self.cmd_id,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RicCommand":
        """Command from a control frame's payload; every field is required. As in a
        measurement payload, an integer field takes exactly an int: not a bool, a
        float or a string."""
        try:
            ints = {name: payload[name] for name in ("ue_id", "issued_at_us", "cmd_id")}
            for name, value in ints.items():
                if type(value) is not int:
                    raise ValueError(f"{name} must be an int, got {value!r}")
            return cls(action=CommandAction(payload["action"]), **ints)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad command payload: {exc!r}") from None


@dataclass
class UeContext:
    """Connection-level state of one UE; the stream is its traffic source."""

    ue_id: int
    stream: ScriptedStream
    rrc_state: RrcState = RrcState.CONNECTED
    policy: CommandAction = CommandAction.FORWARD  # FORWARD or DROP


class BaseStation:
    """One logical actor: tick generation and command application are serialized."""

    def __init__(self, bs_id: int, *, period_ms: int = DEFAULT_PERIOD_MS) -> None:
        if bs_id < 0:
            raise ValueError(f"bs_id must be >= 0, got {bs_id}")
        if period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {period_ms}")
        self.bs_id = bs_id
        self.period_ms = period_ms
        self._ues: dict[int, UeContext] = {}

    @property
    def kpm_topic(self) -> str:
        return f"kpm.{self.bs_id}"

    @property
    def ctrl_topic(self) -> str:
        return f"ctrl.{self.bs_id}"

    @property
    def event_topic(self) -> str:
        return f"event.{self.bs_id}"

    @property
    def ues(self) -> tuple[UeContext, ...]:
        return tuple(self._ues.values())

    def add_ue(self, ue_id: int, stream: ScriptedStream) -> UeContext:
        if ue_id < 0:
            raise ValueError(f"ue_id must be >= 0, got {ue_id}")
        if ue_id in self._ues:
            raise ValueError(f"duplicate ue_id {ue_id}")
        ctx = UeContext(ue_id, stream)
        self._ues[ue_id] = ctx
        return ctx

    def tick_samples(self, now_ms: int) -> list[LabeledSample]:
        """Labeled measurements for this period; Idle UEs are silent, Drop zeroes uplink."""
        if now_ms % self.period_ms != 0:
            raise ValueError(f"tick time {now_ms} is not aligned to period {self.period_ms}")
        out: list[LabeledSample] = []
        bs_id, connected, drop = self.bs_id, RrcState.CONNECTED, CommandAction.DROP
        for ue in self._ues.values():
            if ue.rrc_state is not connected:
                continue
            labeled = ue.stream.next_sample(now_ms, bs_id, ue.ue_id)
            if ue.policy is drop:
                # the UE still transmits; the BS discards, so upstream sees no uplink
                zeroed = replace(labeled.sample, ul_brate_bps=0.0, ul_pkts_ok=0, ul_pkts_nok=0)
                labeled = LabeledSample(zeroed, labeled.label)
            out.append(labeled)
        return out

    def tick(self, now_ms: int, *, t_sent_us: int) -> list[DatabusFrame]:
        """One measurement frame per Connected UE, each stamped t_sent_us."""
        return [
            DatabusFrame(FrameKind.MEASUREMENT, self.kpm_topic, t_sent_us, s.sample.to_payload())
            for s in self.tick_samples(now_ms)
        ]

    def apply_command(self, cmd: RicCommand, *, applied_at_us: int | None = None) -> dict | None:
        """Execute one command; returns the event payload on state change or error, else None."""
        record = {
            "ue_id": cmd.ue_id,
            "action": cmd.action.value,
            "cmd_id": cmd.cmd_id,
            "issued_at_us": cmd.issued_at_us,
            "applied_at_us": now_us() if applied_at_us is None else applied_at_us,
        }
        ue = self._ues.get(cmd.ue_id)
        if ue is None:
            return dict(record, error=f"unknown ue_id {cmd.ue_id}")
        if cmd.action is CommandAction.RRC_RELEASE:
            if ue.rrc_state is RrcState.IDLE:
                return None  # already released; idempotent
            ue.rrc_state = RrcState.IDLE
            return dict(record, rrc_state=RrcState.IDLE.value, prev_rrc_state=RrcState.CONNECTED.value)
        if ue.policy is cmd.action:
            return None  # policy commands are idempotent
        payload = dict(record, policy=cmd.action.value, prev_policy=ue.policy.value)
        ue.policy = cmd.action
        return payload


class TimeMode(Enum):
    VIRTUAL = "virtual"  # collect and closed_loop: deterministic, no pacing, virtual timestamps
    REAL = "real"  # run_scenario: wall-clock pacing, monotonic timestamps


class ScenarioError(ValueError):
    """Scenario config text that cannot be used to build a run."""


@dataclass(frozen=True)
class UeSpec:
    """How one UE behaves for the whole scenario."""

    ue_id: int
    script: tuple[ScriptSegment, ...] | None  # None: built at random from the seed
    classes: tuple[TrafficClass, ...] = ()  # random pool; empty means all classes

    def __post_init__(self) -> None:
        if self.ue_id < 0:
            raise ValueError(f"ue_id must be >= 0, got {self.ue_id}")
        if self.script is not None and not self.script:
            raise ValueError("explicit script must not be empty")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run: station layout, scripts, clocks."""

    duration_ms: int
    ues: tuple[UeSpec, ...]
    bs_id: int = 1
    seed: int = 0
    period_ms: int = DEFAULT_PERIOD_MS
    time_mode: TimeMode = TimeMode.VIRTUAL

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {self.period_ms}")
        if self.duration_ms <= 0 or self.duration_ms % self.period_ms != 0:
            raise ValueError(
                f"duration_ms must be a positive multiple of period_ms, got {self.duration_ms}"
            )
        if not self.ues:
            raise ValueError("scenario needs at least one UE")
        ids = [spec.ue_id for spec in self.ues]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate ue_ids in scenario: {ids}")
        for spec in self.ues:
            for seg in spec.script or ():
                if seg.duration_ms % self.period_ms != 0:
                    raise ValueError(
                        f"ue {spec.ue_id}: segment duration {seg.duration_ms} "
                        f"is not a multiple of period {self.period_ms}"
                    )


_UE_KEY_RE = re.compile(r"^ue\.(\d+)\.(script|classes)$")
_SCALAR_KEYS = ("bs_id", "seed", "duration_ms", "period_ms")


def parse_int(key: str, value: str, line_no: int, error: type[ValueError]) -> int:
    """int(value), or error naming the line and key of a config file."""
    try:
        return int(value)
    except ValueError:
        raise error(f"line {line_no}: {key} must be an integer, got {value!r}") from None


def _parse_script(value: str, line_no: int) -> tuple[ScriptSegment, ...] | None:
    if value == "random":
        return None
    segments = []
    for token in value.split():
        cls_label, sep, ms = token.partition(":")
        if not sep:
            raise ScenarioError(
                f"line {line_no}: script token {token!r} is not <class>:<duration_ms>"
            )
        try:
            cls = class_from_label(cls_label)
        except ValueError as exc:
            raise ScenarioError(f"line {line_no}: {exc}") from None
        duration = parse_int("segment duration", ms, line_no, ScenarioError)
        if duration <= 0:
            raise ScenarioError(f"line {line_no}: segment duration must be > 0, got {duration}")
        segments.append(ScriptSegment(cls, duration))
    if not segments:
        raise ScenarioError(f"line {line_no}: script must list at least one segment")
    return tuple(segments)


def _parse_classes(value: str, line_no: int) -> tuple[TrafficClass, ...]:
    try:
        return tuple(class_from_label(tok.strip()) for tok in value.split(","))
    except ValueError as exc:
        raise ScenarioError(f"line {line_no}: {exc}") from None


def read_key_values(text: str, error: type[ValueError]) -> dict[str, tuple[int, str]]:
    """key -> (line number, value), in line order, from key = value text.

    '#' starts a comment and blank lines are skipped. A line that is not
    key = value, or a key given twice, raises error naming the line.
    """
    entries: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise error(f"line {line_no}: expected key = value, got {raw.strip()!r}")
        if key in entries:
            raise error(f"line {line_no}: duplicate key {key!r}")
        entries[key] = (line_no, value)
    return entries


def parse_scenario(text: str) -> ScenarioConfig:
    """Scenario from key = value text; '#' starts a comment, blank lines are skipped."""
    entries = read_key_values(text, ScenarioError)
    fields: dict = {}
    scalar_lines: dict[str, int] = {}
    for key in _SCALAR_KEYS:
        if key in entries:
            line_no, value = entries.pop(key)
            fields[key] = parse_int(key, value, line_no, ScenarioError)
            scalar_lines[key] = line_no
    if "duration_ms" not in fields:
        raise ScenarioError("missing required key duration_ms")
    if "time_mode" in entries:
        line_no, value = entries.pop("time_mode")
        try:
            fields["time_mode"] = TimeMode(value)
        except ValueError:
            choices = ", ".join(m.value for m in TimeMode)
            raise ScenarioError(
                f"line {line_no}: time_mode must be one of {choices}, got {value!r}"
            ) from None

    ue_fields: dict[int, dict] = {}
    for key, (line_no, value) in entries.items():
        m = _UE_KEY_RE.match(key)
        if m is None:
            raise ScenarioError(f"line {line_no}: unknown key {key!r}")
        ue_id, attr = int(m.group(1)), m.group(2)
        spot = ue_fields.setdefault(ue_id, {"ue_id": ue_id})
        if attr == "script":
            spot["script"] = _parse_script(value, line_no)
            spot["script_line"] = line_no
        else:
            spot["classes"] = _parse_classes(value, line_no)
            spot["classes_line"] = line_no

    specs = []
    for ue_id in sorted(ue_fields):
        spot = ue_fields[ue_id]
        if "script" not in spot:
            raise ScenarioError(f"ue {ue_id} has no script key")
        if spot["script"] is not None and "classes" in spot:
            raise ScenarioError(
                f"line {spot['classes_line']}: ue.{ue_id}.classes only applies to random scripts"
            )
        spot.pop("script_line", None)
        spot.pop("classes_line", None)
        specs.append(UeSpec(**spot))
    if not specs:
        raise ScenarioError("scenario needs at least one ue.<id>.script key")
    # a random script's segments last at most MAX_SEGMENT_MS, so a longer period fits none
    period_ms = fields.get("period_ms", DEFAULT_PERIOD_MS)
    if period_ms > MAX_SEGMENT_MS and any(spec.script is None for spec in specs):
        raise ScenarioError(
            f"line {scalar_lines['period_ms']}: period_ms must be at most {MAX_SEGMENT_MS} "
            f"with a random script, got {period_ms}"
        )

    try:
        return ScenarioConfig(ues=tuple(specs), **fields)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def build_station(config: ScenarioConfig) -> BaseStation:
    """Station with one seeded stream per UE; same config, same station behaviour."""
    bs = BaseStation(config.bs_id, period_ms=config.period_ms)
    children = np.random.SeedSequence(config.seed).spawn(len(config.ues))
    for spec, child in zip(config.ues, children):
        script_seq, stream_seq = child.spawn(2)
        if spec.script is not None:
            script: Sequence[ScriptSegment] = spec.script
        else:
            script = build_random_script(
                np.random.default_rng(script_seq),
                spec.classes or tuple(TrafficClass),
                config.duration_ms,
                period_ms=config.period_ms,
            )
        stream = ScriptedStream(script, np.random.default_rng(stream_seq), period_ms=config.period_ms)
        bs.add_ue(spec.ue_id, stream)
    return bs


def labeled_stream(config: ScenarioConfig) -> Iterator[LabeledSample]:
    """Virtual-time labeled measurement stream for a whole scenario; no bus involved."""
    bs = build_station(config)
    for t in range(0, config.duration_ms, config.period_ms):
        yield from bs.tick_samples(t)


def connect_with_retry(host: str, port: int) -> BusClient:
    """Dial the broker up to 6 times, sleeping 0.05 s, then twice as long after each
    failure; raises the last failure."""
    for delay in (0.05, 0.1, 0.2, 0.4, 0.8):
        try:
            return BusClient.connect(host, port)
        except OSError:
            time.sleep(delay)
    return BusClient.connect(host, port)


@dataclass(frozen=True)
class ScenarioReport:
    ticks: int
    frames_published: int
    events_published: int
    commands_applied: int


def handle_command_frame(
    bs: BaseStation, frame: DatabusFrame, *, applied_at_us: int
) -> tuple[DatabusFrame | None, bool]:
    """Decode and execute one command frame: (event frame or None, decoded ok).

    The one place a station's event frame is built.
    """
    try:
        cmd = RicCommand.from_payload(frame.payload)
    except ValueError as exc:
        payload, ok = {"error": str(exc), "applied_at_us": applied_at_us}, False
    else:
        payload, ok = bs.apply_command(cmd, applied_at_us=applied_at_us), True
    if payload is None:
        return None, ok
    return DatabusFrame(FrameKind.EVENT, bs.event_topic, applied_at_us, payload), ok


def run_scenario(config: ScenarioConfig, client: BusClient) -> ScenarioReport:
    """Play the scenario in real time over the station's bus connection, executing commands between ticks.

    The client is subscribed to the station's ctrl topic, and every delivery
    it polls is taken as a command, so it should carry no other pattern; the
    caller closes it. Ticks are paced on the wall clock, and every frame and
    event is stamped with the monotonic clock the broker and the xApp stamp
    with. A virtual scenario is refused: its stamps would mix with theirs
    (closed_loop plays it).
    """
    if config.time_mode is not TimeMode.REAL:
        raise ValueError("run_scenario plays real time; use closed_loop for a virtual-time scenario")
    bs = build_station(config)
    ticks = frames_published = events_published = commands_applied = 0
    client.subscribe(bs.ctrl_topic)
    start = time.monotonic()
    for t in range(0, config.duration_ms, config.period_ms):
        wait = start + t / 1000.0 - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        while (cmd_frame := client.poll(timeout=0)) is not None:
            event, ok = handle_command_frame(bs, cmd_frame, applied_at_us=now_us())
            commands_applied += int(ok)
            if event is not None:
                client.send_frame(event)
                events_published += 1
        for frame in bs.tick(t, t_sent_us=now_us()):
            client.send_frame(frame)
            frames_published += 1
        ticks += 1
    return ScenarioReport(ticks, frames_published, events_published, commands_applied)
