"""Base-station simulator: tick semantics, command execution, scenario configs."""

from __future__ import annotations

import threading
import time
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.databus import Broker, BusClient, DatabusFrame, FrameKind
from ranguard.kpm import KpmSample, TrafficClass
from ranguard.ransim import (
    BaseStation,
    CommandAction,
    RicCommand,
    RrcState,
    ScenarioConfig,
    ScenarioError,
    TimeMode,
    UePolicy,
    UeSpec,
    build_station,
    connect_with_retry,
    format_scenario,
    labeled_stream,
    parse_scenario,
    run_scenario,
)
from ranguard.traffic import ScriptSegment


def two_ue_station(period_ms: int = 100) -> BaseStation:
    config = ScenarioConfig(
        duration_ms=60_000,
        period_ms=period_ms,
        ues=(
            UeSpec(1, (ScriptSegment(TrafficClass.WEB, 60_000),)),
            UeSpec(2, (ScriptSegment(TrafficClass.DOS_HULK, 60_000),)),
        ),
    )
    return build_station(config)


# -- commands --


@given(
    ue_id=st.integers(0, 100),
    action=st.sampled_from(list(CommandAction)),
    issued=st.integers(0, 10**12),
    cmd_id=st.integers(0, 10**6),
)
def test_command_payload_round_trip(ue_id, action, issued, cmd_id):
    cmd = RicCommand(ue_id, action, issued, cmd_id)
    assert RicCommand.from_payload(cmd.to_payload()) == cmd


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"ue_id": 1, "action": "rrc_release"},  # no issued_at_us
        {"ue_id": 1, "action": "self_destruct", "issued_at_us": 0},
        {"ue_id": "one", "action": "drop", "issued_at_us": 0},
        # integers are checked, not coerced: none of these may address UE 1 or 5
        {"ue_id": 1.9, "action": "rrc_release", "issued_at_us": True},
        {"ue_id": "5", "action": "rrc_release", "issued_at_us": 0},
        {"ue_id": True, "action": "drop", "issued_at_us": 0},
        {"ue_id": 1, "action": "drop", "issued_at_us": 0, "cmd_id": 2.0},
        {"ue_id": 1, "action": "drop", "issued_at_us": float("inf")},
        {"ue_id": 1, "action": "drop", "issued_at_us": float("nan")},
    ],
)
def test_command_from_bad_payload_raises(payload):
    with pytest.raises(ValueError):
        RicCommand.from_payload(payload)


def test_release_moves_ue_to_idle_and_is_idempotent():
    bs = two_ue_station()
    cmd = RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=1000, cmd_id=7)
    event = bs.apply_command(cmd, applied_at_us=2000)
    assert event is not None
    assert event.topic == "event.1"
    assert event.kind is FrameKind.EVENT
    assert event.payload["ue_id"] == 2
    assert event.payload["cmd_id"] == 7
    assert event.payload["issued_at_us"] == 1000
    assert event.payload["applied_at_us"] == 2000
    assert event.payload["rrc_state"] == "idle"
    assert event.payload["prev_rrc_state"] == "connected"
    assert bs.ue(2).rrc_state is RrcState.IDLE
    # second release: no state change, no event
    assert bs.apply_command(cmd, applied_at_us=3000) is None
    assert bs.ue(2).rrc_state is RrcState.IDLE


def test_policy_commands_are_idempotent():
    bs = two_ue_station()
    assert bs.ue(1).policy is UePolicy.FORWARD
    noop = RicCommand(1, CommandAction.FORWARD, issued_at_us=0)
    assert bs.apply_command(noop, applied_at_us=10) is None
    event = bs.apply_command(RicCommand(1, CommandAction.DROP, issued_at_us=0), applied_at_us=20)
    assert event is not None
    assert event.payload["policy"] == "drop"
    assert event.payload["prev_policy"] == "forward"
    assert bs.ue(1).policy is UePolicy.DROP
    assert bs.apply_command(RicCommand(1, CommandAction.DROP, issued_at_us=0), applied_at_us=30) is None


def test_unknown_ue_yields_error_event_without_state_change():
    bs = two_ue_station()
    before = [(ue.rrc_state, ue.policy) for ue in bs.ues]
    event = bs.apply_command(RicCommand(99, CommandAction.RRC_RELEASE, issued_at_us=5), applied_at_us=6)
    assert event is not None
    assert event.topic == "event.1"
    assert "unknown ue_id 99" in event.payload["error"]
    assert [(ue.rrc_state, ue.policy) for ue in bs.ues] == before


# -- ticks --


def test_two_connected_ues_two_frames_per_tick():
    bs = two_ue_station()
    frames = bs.tick(0)
    assert len(frames) == 2
    assert {f.payload["ue_id"] for f in frames} == {1, 2}
    assert all(f.topic == "kpm.1" and f.kind is FrameKind.MEASUREMENT for f in frames)


def test_all_idle_means_zero_frames():
    bs = two_ue_station()
    for ue_id in (1, 2):
        bs.apply_command(RicCommand(ue_id, CommandAction.RRC_RELEASE, issued_at_us=0), applied_at_us=0)
    assert bs.tick(0) == []


def test_released_ue_is_excluded_from_subsequent_ticks():
    bs = two_ue_station()
    assert len(bs.tick(0)) == 2
    bs.apply_command(RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=0), applied_at_us=0)
    for k in range(1, 6):
        frames = bs.tick(k * 100)
        assert [f.payload["ue_id"] for f in frames] == [1]


def test_drop_zeroes_uplink_counters_for_ten_ticks():
    bs = two_ue_station()
    # warm past the ramp so the attacker is loud, then start dropping
    for k in range(10):
        bs.tick(k * 100)
    bs.apply_command(RicCommand(2, CommandAction.DROP, issued_at_us=0), applied_at_us=0)
    for k in range(10, 20):
        by_ue = {f.payload["ue_id"]: f.payload for f in bs.tick(k * 100)}
        assert by_ue[2]["ul_pkts_ok"] == 0
        assert by_ue[2]["ul_pkts_nok"] == 0
        assert by_ue[2]["ul_brate_bps"] == 0.0
        assert by_ue[1]["ul_brate_bps"] > 0.0  # the benign UE is untouched
    # the generator kept running underneath: lifting Drop restores traffic at
    # steady state immediately, with no ramp restart
    bs.apply_command(RicCommand(2, CommandAction.FORWARD, issued_at_us=0), applied_at_us=0)
    frames = {f.payload["ue_id"]: f.payload for f in bs.tick(2000)}
    assert frames[2]["ul_pkts_ok"] > 100


@settings(max_examples=40, deadline=None)
@given(
    classes=st.permutations(list(TrafficClass)),
    seed=st.integers(0, 2**32 - 1),
    segment_ms=st.integers(3, 15).map(lambda n: n * 100),  # 500 ms ramp at each segment start
    drop_at=st.integers(0, 14),  # a tick inside the shortest run
)
def test_every_station_sample_crosses_the_trust_boundary_unchanged(classes, seed, segment_ms, drop_at):
    # the virtual loop hands samples to the classifier without the bus frame's second check
    script = tuple(ScriptSegment(cls, segment_ms) for cls in classes)
    config = ScenarioConfig(duration_ms=5 * segment_ms, seed=seed, ues=(UeSpec(1, script), UeSpec(2, script)))
    bs = build_station(config)
    for k, t in enumerate(range(0, config.duration_ms, config.period_ms)):
        if k == drop_at:
            bs.apply_command(RicCommand(2, CommandAction.DROP, t * 1000), applied_at_us=t * 1000)
        for labeled in bs.tick_samples(t):
            sample = labeled.sample
            crossed = KpmSample.from_payload(sample.to_payload())
            assert crossed == sample
            assert repr(crossed) == repr(sample)  # same types too: 0 against 0.0 would show
    assert bs.ue(2).policy is UePolicy.DROP


def test_tick_must_align_to_period():
    bs = two_ue_station()
    with pytest.raises(ValueError, match="aligned"):
        bs.tick(150)


def test_tick_stamp_defaults_to_virtual_and_accepts_override():
    bs = two_ue_station()
    assert all(f.t_sent_us == 0 for f in bs.tick(0))
    assert all(f.t_sent_us == 100_000 for f in bs.tick(100))
    assert all(f.t_sent_us == 777 for f in bs.tick(200, t_sent_us=777))


def test_duplicate_ue_id_rejected():
    bs = two_ue_station()
    with pytest.raises(ValueError, match="duplicate"):
        bs.add_ue(1, bs.ue(1).stream)


# -- virtual-time streams --


def frame_stream(config: ScenarioConfig) -> Iterator[DatabusFrame]:
    """Virtual-time measurement frames for a whole scenario, no bus: the station's
    ticks at every period, as run_scenario publishes them in virtual mode."""
    bs = build_station(config)
    for t in range(0, config.duration_ms, config.period_ms):
        yield from bs.tick(t)


def one_ue_config(seed: int = 0, duration_ms: int = 60_000) -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=duration_ms,
        seed=seed,
        ues=(UeSpec(0, (ScriptSegment(TrafficClass.WEB, duration_ms or 100),)),),
    )


def test_sixty_second_run_yields_six_hundred_frames():
    frames = list(frame_stream(one_ue_config()))
    assert len(frames) == 600


def test_zero_duration_yields_no_frames():
    assert list(frame_stream(one_ue_config(duration_ms=0))) == []
    random_cfg = ScenarioConfig(duration_ms=0, ues=(UeSpec(0, None),))
    assert list(frame_stream(random_cfg)) == []


def test_virtual_timestamp_stride_equals_period():
    config = ScenarioConfig(
        duration_ms=10_000,
        ues=(
            UeSpec(1, (ScriptSegment(TrafficClass.VOIP, 5000), ScriptSegment(TrafficClass.WEB, 5000))),
            UeSpec(2, None, classes=(TrafficClass.SLOWLORIS, TrafficClass.WEB)),
        ),
    )
    per_ue: dict[int, list[int]] = {1: [], 2: []}
    for frame in frame_stream(config):
        per_ue[frame.payload["ue_id"]].append(frame.payload["timestamp_ms"])
        assert frame.t_sent_us == frame.payload["timestamp_ms"] * 1000
    for stamps in per_ue.values():
        assert len(stamps) == 100
        assert all(b - a == 100 for a, b in zip(stamps, stamps[1:]))


def test_replay_same_config_identical_frames():
    config = ScenarioConfig(
        duration_ms=20_000,
        seed=42,
        ues=(UeSpec(1, None), UeSpec(2, None)),
    )
    assert list(frame_stream(config)) == list(frame_stream(config))


def test_different_seeds_differ():
    a = list(frame_stream(one_ue_config(seed=1, duration_ms=5000)))
    b = list(frame_stream(one_ue_config(seed=2, duration_ms=5000)))
    assert a != b


def test_labeled_stream_follows_script_segments():
    config = ScenarioConfig(
        duration_ms=500,
        ues=(
            UeSpec(
                3,
                (ScriptSegment(TrafficClass.WEB, 300), ScriptSegment(TrafficClass.SLOWLORIS, 200)),
            ),
        ),
    )
    rows = list(labeled_stream(config))
    assert [r.label for r in rows] == [
        TrafficClass.WEB,
        TrafficClass.WEB,
        TrafficClass.WEB,
        TrafficClass.SLOWLORIS,
        TrafficClass.SLOWLORIS,
    ]
    assert [r.sample.timestamp_ms for r in rows] == [0, 100, 200, 300, 400]
    assert all(r.sample.ue_id == 3 for r in rows)


def test_random_script_ue_stays_in_its_class_pool():
    pool = (TrafficClass.VOIP, TrafficClass.DOS_HULK)
    config = ScenarioConfig(duration_ms=30_000, seed=9, ues=(UeSpec(0, None, classes=pool),))
    seen = {r.label for r in labeled_stream(config)}
    assert seen <= set(pool)
    assert len(seen) == 2


# -- scenario config text --


def test_parse_full_scenario():
    text = """
    # run layout
    bs_id = 3
    seed = 17
    duration_ms = 12000
    period_ms = 100
    transient_ms = 500
    time_mode = real
    broker = 10.0.0.5:4000

    ue.1.script = web:3000 voip:3000 dos_hulk:6000
    ue.2.script = random
    ue.2.classes = web,slowloris
    ue.2.segment_ms = 2000:4000
    """
    config = parse_scenario(text)
    assert config.bs_id == 3
    assert config.seed == 17
    assert config.duration_ms == 12_000
    assert config.time_mode is TimeMode.REAL
    assert (config.broker_host, config.broker_port) == ("10.0.0.5", 4000)
    assert config.ues[0].script == (
        ScriptSegment(TrafficClass.WEB, 3000),
        ScriptSegment(TrafficClass.VOIP, 3000),
        ScriptSegment(TrafficClass.DOS_HULK, 6000),
    )
    assert config.ues[1].script is None
    assert config.ues[1].classes == (TrafficClass.WEB, TrafficClass.SLOWLORIS)
    assert (config.ues[1].min_segment_ms, config.ues[1].max_segment_ms) == (2000, 4000)


def test_parse_defaults():
    config = parse_scenario("duration_ms = 1000\nue.1.script = web:1000\n")
    assert config.bs_id == 1
    assert config.seed == 0
    assert config.period_ms == 100
    assert config.transient_ms == 500
    assert config.time_mode is TimeMode.VIRTUAL
    assert (config.broker_host, config.broker_port) == ("127.0.0.1", None)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("ue.1.script = web:1000\n", "duration_ms"),
        ("duration_ms = ten\nue.1.script = web:1000\n", "integer"),
        ("duration_ms = 1000\nduration_ms = 2000\nue.1.script = web:1000\n", "duplicate"),
        ("duration_ms = 1000\nwhatever = 1\nue.1.script = web:1000\n", "unknown key"),
        ("duration_ms = 1000\nue.1.classes = web\n", "no script"),
        ("duration_ms = 1000\nue.1.script = web\n", "not <class>:<duration_ms>"),
        ("duration_ms = 1000\nue.1.script = webb:1000\n", "webb"),
        ("duration_ms = 1000\nue.1.script = web:0\n", "must be > 0"),
        ("duration_ms = 1000\nue.1.script = web:1000\nue.1.classes = voip\n", "only applies"),
        ("duration_ms = 1000\ntime_mode = warp\nue.1.script = web:1000\n", "time_mode"),
        ("duration_ms = 1000\nbroker = nope\nue.1.script = web:1000\n", "broker"),
        ("duration_ms = 1000\nue.1.script = web:1000\nbadline\n", "key = value"),
        ("duration_ms = 150\nue.1.script = web:100\n", "multiple of period_ms"),
        ("duration_ms = 1000\nue.1.script = web:150\n", "multiple of period"),
        ("duration_ms = 0\n", "at least one"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


def ue_spec_strategy(ue_id: int) -> st.SearchStrategy[UeSpec]:
    classes = st.sampled_from(list(TrafficClass))
    explicit = st.lists(
        st.tuples(classes, st.integers(1, 50)), min_size=1, max_size=4
    ).map(lambda legs: tuple(ScriptSegment(c, n * 100) for c, n in legs))
    spans = st.tuples(st.integers(1, 30), st.integers(0, 30)).map(
        lambda lohi: (lohi[0] * 100, (lohi[0] + lohi[1]) * 100)
    )
    random_spec = st.tuples(
        st.lists(classes, unique=True, max_size=5).map(tuple), spans
    ).map(lambda cs: UeSpec(ue_id, None, classes=cs[0], min_segment_ms=cs[1][0], max_segment_ms=cs[1][1]))
    return st.one_of(explicit.map(lambda s: UeSpec(ue_id, s)), random_spec)


@st.composite
def scenario_strategy(draw) -> ScenarioConfig:
    n_ues = draw(st.integers(1, 3))
    ues = tuple(draw(ue_spec_strategy(ue_id)) for ue_id in range(n_ues))
    return ScenarioConfig(
        duration_ms=draw(st.integers(0, 100)) * 100,
        ues=ues,
        bs_id=draw(st.integers(0, 9)),
        seed=draw(st.integers(0, 2**31)),
        transient_ms=draw(st.integers(0, 1000)),
        time_mode=draw(st.sampled_from(list(TimeMode))),
        broker_host=draw(st.sampled_from(["127.0.0.1", "bus.local"])),
        broker_port=draw(st.one_of(st.none(), st.integers(1024, 65535))),
    )


@settings(max_examples=50)
@given(config=scenario_strategy())
def test_scenario_text_round_trip(config):
    if config.broker_port is None:
        config = ScenarioConfig(**{**config.__dict__, "broker_host": "127.0.0.1"})
    assert parse_scenario(format_scenario(config)) == config


# -- scenario runs over the bus --


def test_run_scenario_publishes_all_frames():
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as watcher:
            sub = watcher.subscribe("kpm.1")
            config = ScenarioConfig(
                duration_ms=3000,
                seed=5,
                broker_host=host,
                broker_port=port,
                ues=(
                    UeSpec(1, (ScriptSegment(TrafficClass.WEB, 3000),)),
                    UeSpec(2, (ScriptSegment(TrafficClass.VOIP, 3000),)),
                ),
            )
            report = run_scenario(config)
            assert report.ticks == 30
            assert report.frames_published == 60
            assert report.events_published == 0
            assert report.commands_applied == 0
            got = []
            while (frame := sub.poll(timeout=1.0)) is not None:
                got.append(frame)
                if len(got) == 60:
                    break
            assert len(got) == 60
            stamps = [f.payload["timestamp_ms"] for f in got if f.payload["ue_id"] == 1]
            assert stamps == sorted(stamps)


def test_run_scenario_counts_match_frame_stream():
    with Broker(port=0) as broker:
        host, port = broker.address
        config = ScenarioConfig(
            duration_ms=2000,
            seed=11,
            broker_host=host,
            broker_port=port,
            ues=(UeSpec(7, None),),
        )
        expected = len(list(frame_stream(config)))
        report = run_scenario(config)
        assert report.frames_published == expected == 20


def test_run_scenario_applies_commands_mid_flight():
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as ric:
            kpm = ric.subscribe("kpm.1")
            events = ric.subscribe("event.1")
            config = ScenarioConfig(
                duration_ms=2400,
                period_ms=40,
                time_mode=TimeMode.REAL,
                broker_host=host,
                broker_port=port,
                ues=(
                    UeSpec(1, (ScriptSegment(TrafficClass.WEB, 2400),)),
                    UeSpec(2, (ScriptSegment(TrafficClass.DOS_HULK, 2400),)),
                ),
            )
            reports: list = []
            runner = threading.Thread(target=lambda: reports.append(run_scenario(config)))
            runner.start()
            try:
                # wait until measurements flow, then order UE 2 released (twice:
                # the repeat must be a silent no-op)
                assert kpm.poll(timeout=5.0) is not None
                cmd = RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=123, cmd_id=1)
                ric.publish(FrameKind.COMMAND, "ctrl.1", cmd.to_payload())
                time.sleep(0.1)
                ric.publish(FrameKind.COMMAND, "ctrl.1", cmd.to_payload())
                event = events.poll(timeout=5.0)
                assert event is not None
                assert event.payload["ue_id"] == 2
                assert event.payload["rrc_state"] == "idle"
                assert events.poll(timeout=0.5) is None  # no second event
            finally:
                runner.join(timeout=15.0)
            assert not runner.is_alive()
            report = reports[0]
            assert report.commands_applied == 2
            assert report.events_published == 1
            # after the release lands, only UE 1 keeps reporting
            seen_after_event = []
            while (frame := kpm.poll(timeout=0.2)) is not None:
                if frame.t_sent_us > event.t_sent_us:
                    seen_after_event.append(frame.payload["ue_id"])
            assert seen_after_event
            assert set(seen_after_event) == {1}


def test_connect_with_retry_gives_up_after_attempts():
    t0 = time.monotonic()
    with pytest.raises(OSError):
        connect_with_retry("127.0.0.1", 1, attempts=3, base_delay_s=0.01)
    assert time.monotonic() - t0 < 5.0


def test_malformed_command_frame_reports_error_event():
    from ranguard.databus import DatabusFrame
    from ranguard.ransim import handle_command_frame

    bs = two_ue_station()
    bad = DatabusFrame(FrameKind.COMMAND, "ctrl.1", 0, {"ue_id": 1, "action": "??", "issued_at_us": 0})
    event, ok = handle_command_frame(bs, bad, applied_at_us=50)
    assert not ok
    assert event is not None
    assert "bad command payload" in event.payload["error"]
    assert bs.ue(1).policy is UePolicy.FORWARD


def test_command_wire_body_with_infinity_reports_error_event():
    # json.loads reads the bare Infinity token as a float; it must not escape as OverflowError
    from ranguard.databus import decode_frame
    from ranguard.ransim import handle_command_frame

    body = (
        b'{"version":1,"kind":"command","topic":"ctrl.1","t_sent_us":0,'
        b'"payload":{"ue_id":1,"action":"rrc_release","issued_at_us":Infinity}}'
    )
    bs = two_ue_station()
    event, ok = handle_command_frame(bs, decode_frame(body), applied_at_us=50)
    assert not ok
    assert event is not None and event.topic == "event.1"
    assert "issued_at_us must be an int" in event.payload["error"]
    assert bs.ue(1).rrc_state is RrcState.CONNECTED
