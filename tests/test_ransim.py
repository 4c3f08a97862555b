"""Base-station simulator: tick semantics, command execution, scenario configs."""

from __future__ import annotations

import threading
import time
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard import ransim
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
    UeSpec,
    build_station,
    connect_with_retry,
    labeled_stream,
    parse_scenario,
    run_scenario,
)
from ranguard.traffic import MAX_SEGMENT_MS, ScriptSegment
from config_oracle import format_scenario


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


def ue_of(bs: BaseStation, ue_id: int):
    """The station's context of one UE, found among bs.ues."""
    return next(ue for ue in bs.ues if ue.ue_id == ue_id)


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
        {"ue_id": 1, "action": "rrc_release", "cmd_id": 1},  # no issued_at_us
        {"ue_id": 1, "action": "self_destruct", "issued_at_us": 0, "cmd_id": 1},
        {"ue_id": "one", "action": "drop", "issued_at_us": 0, "cmd_id": 1},
        # integers are checked, not coerced: none of these may address UE 1 or 5
        {"ue_id": 1.9, "action": "rrc_release", "issued_at_us": True, "cmd_id": 1},
        {"ue_id": "5", "action": "rrc_release", "issued_at_us": 0, "cmd_id": 1},
        {"ue_id": True, "action": "drop", "issued_at_us": 0, "cmd_id": 1},
        {"ue_id": 1, "action": "drop", "issued_at_us": 0, "cmd_id": 2.0},
        {"ue_id": 1, "action": "drop", "issued_at_us": float("inf"), "cmd_id": 1},
        {"ue_id": 1, "action": "drop", "issued_at_us": float("nan"), "cmd_id": 1},
        {"ue_id": 1, "action": "rrc_release", "issued_at_us": 0},  # no cmd_id
    ],
)
def test_command_from_bad_payload_raises(payload):
    with pytest.raises(ValueError):
        RicCommand.from_payload(payload)


def test_release_moves_ue_to_idle_and_is_idempotent():
    bs = two_ue_station()
    cmd = RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=1000, cmd_id=7)
    event = bs.apply_command(cmd, applied_at_us=2000)
    assert event == {
        "ue_id": 2,
        "action": "rrc_release",
        "cmd_id": 7,
        "issued_at_us": 1000,
        "applied_at_us": 2000,
        "rrc_state": "idle",
        "prev_rrc_state": "connected",
    }
    assert ue_of(bs, 2).rrc_state is RrcState.IDLE
    # second release: no state change, no event
    assert bs.apply_command(cmd, applied_at_us=3000) is None
    assert ue_of(bs, 2).rrc_state is RrcState.IDLE


def test_policy_commands_are_idempotent():
    bs = two_ue_station()
    assert ue_of(bs, 1).policy is CommandAction.FORWARD
    noop = RicCommand(1, CommandAction.FORWARD, issued_at_us=0, cmd_id=1)
    assert bs.apply_command(noop, applied_at_us=10) is None
    event = bs.apply_command(RicCommand(1, CommandAction.DROP, issued_at_us=0, cmd_id=2), applied_at_us=20)
    assert event is not None
    assert event["policy"] == "drop"
    assert event["prev_policy"] == "forward"
    assert ue_of(bs, 1).policy is CommandAction.DROP
    assert bs.apply_command(RicCommand(1, CommandAction.DROP, issued_at_us=0, cmd_id=3), applied_at_us=30) is None


def test_unknown_ue_yields_error_event_without_state_change():
    bs = two_ue_station()
    before = [(ue.rrc_state, ue.policy) for ue in bs.ues]
    event = bs.apply_command(RicCommand(99, CommandAction.RRC_RELEASE, issued_at_us=5, cmd_id=1), applied_at_us=6)
    assert event is not None
    assert "unknown ue_id 99" in event["error"]
    assert [(ue.rrc_state, ue.policy) for ue in bs.ues] == before


# -- ticks --


def test_two_connected_ues_two_frames_per_tick():
    bs = two_ue_station()
    frames = bs.tick(0, t_sent_us=0)
    assert len(frames) == 2
    assert {f.payload["ue_id"] for f in frames} == {1, 2}
    assert all(f.topic == "kpm.1" and f.kind is FrameKind.MEASUREMENT for f in frames)


def test_all_idle_means_zero_frames():
    bs = two_ue_station()
    for ue_id in (1, 2):
        bs.apply_command(RicCommand(ue_id, CommandAction.RRC_RELEASE, issued_at_us=0, cmd_id=ue_id), applied_at_us=0)
    assert bs.tick(0, t_sent_us=0) == []


def test_released_ue_is_excluded_from_subsequent_ticks():
    bs = two_ue_station()
    assert len(bs.tick(0, t_sent_us=0)) == 2
    bs.apply_command(RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=0, cmd_id=1), applied_at_us=0)
    for k in range(1, 6):
        frames = bs.tick(k * 100, t_sent_us=0)
        assert [f.payload["ue_id"] for f in frames] == [1]


def test_drop_zeroes_uplink_counters_for_ten_ticks():
    bs = two_ue_station()
    # warm past the ramp so the attacker is loud, then start dropping
    for k in range(10):
        bs.tick(k * 100, t_sent_us=0)
    bs.apply_command(RicCommand(2, CommandAction.DROP, issued_at_us=0, cmd_id=1), applied_at_us=0)
    for k in range(10, 20):
        by_ue = {f.payload["ue_id"]: f.payload for f in bs.tick(k * 100, t_sent_us=0)}
        assert by_ue[2]["ul_pkts_ok"] == 0
        assert by_ue[2]["ul_pkts_nok"] == 0
        assert by_ue[2]["ul_brate_bps"] == 0.0
        assert by_ue[1]["ul_brate_bps"] > 0.0  # the benign UE is untouched
    # the generator kept running underneath: lifting Drop restores traffic at
    # steady state immediately, with no ramp restart
    bs.apply_command(RicCommand(2, CommandAction.FORWARD, issued_at_us=0, cmd_id=2), applied_at_us=0)
    frames = {f.payload["ue_id"]: f.payload for f in bs.tick(2000, t_sent_us=0)}
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
            bs.apply_command(RicCommand(2, CommandAction.DROP, t * 1000, k + 1), applied_at_us=t * 1000)
        for labeled in bs.tick_samples(t):
            sample = labeled.sample
            crossed = KpmSample.from_payload(sample.to_payload())
            assert crossed == sample
            assert repr(crossed) == repr(sample)  # same types too: 0 against 0.0 would show
    assert ue_of(bs, 2).policy is CommandAction.DROP


def test_tick_must_align_to_period():
    bs = two_ue_station()
    with pytest.raises(ValueError, match="aligned"):
        bs.tick(150, t_sent_us=0)


def test_tick_stamps_each_frame_with_the_given_stamp():
    bs = two_ue_station()
    for t, stamp in ((0, 5), (100, 777), (200, 0)):
        frames = bs.tick(t, t_sent_us=stamp)
        assert len(frames) == 2 and all(f.t_sent_us == stamp for f in frames)


def test_duplicate_ue_id_rejected():
    bs = two_ue_station()
    with pytest.raises(ValueError, match="duplicate"):
        bs.add_ue(1, ue_of(bs, 1).stream)


# -- virtual-time streams --


def frame_stream(config: ScenarioConfig) -> Iterator[DatabusFrame]:
    """Virtual-time measurement frames for a whole scenario, no bus: the station's
    ticks at every period, each stamped with its tick time."""
    bs = build_station(config)
    for t in range(0, config.duration_ms, config.period_ms):
        yield from bs.tick(t, t_sent_us=t * 1000)


def one_ue_config(seed: int = 0, duration_ms: int = 60_000) -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=duration_ms,
        seed=seed,
        ues=(UeSpec(0, (ScriptSegment(TrafficClass.WEB, duration_ms),)),),
    )


def test_sixty_second_run_yields_six_hundred_frames():
    frames = list(frame_stream(one_ue_config()))
    assert len(frames) == 600


@pytest.mark.parametrize(
    "spec", [UeSpec(0, (ScriptSegment(TrafficClass.WEB, 100),)), UeSpec(0, None)], ids=["script", "random"]
)
def test_a_scenario_lasts_at_least_one_period(spec):
    with pytest.raises(ValueError, match="duration_ms must be a positive multiple of period_ms, got 0"):
        ScenarioConfig(duration_ms=0, ues=(spec,))


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
    time_mode = real

    ue.1.script = web:3000 voip:3000 dos_hulk:6000
    ue.2.script = random
    ue.2.classes = web,slowloris
    """
    config = parse_scenario(text)
    assert config.bs_id == 3
    assert config.seed == 17
    assert config.duration_ms == 12_000
    assert config.time_mode is TimeMode.REAL
    assert config.ues[0].script == (
        ScriptSegment(TrafficClass.WEB, 3000),
        ScriptSegment(TrafficClass.VOIP, 3000),
        ScriptSegment(TrafficClass.DOS_HULK, 6000),
    )
    assert config.ues[1].script is None
    assert config.ues[1].classes == (TrafficClass.WEB, TrafficClass.SLOWLORIS)


def test_parse_defaults():
    config = parse_scenario("duration_ms = 1000\nue.1.script = web:1000\n")
    assert config.bs_id == 1
    assert config.seed == 0
    assert config.period_ms == 100
    assert config.time_mode is TimeMode.VIRTUAL


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
        # the ramp and the random segment bounds are constants, so their old keys are unknown
        ("duration_ms = 1000\ntransient_ms = 500\nue.1.script = web:1000\n", "^line 2: unknown key 'transient_ms'$"),
        (
            "duration_ms = 1000\nue.1.script = random\nue.1.segment_ms = 3000:8000\n",
            "^line 3: unknown key 'ue.1.segment_ms'$",
        ),
        ("duration_ms = 1000\nue.1.script = web:1000\nbadline\n", "key = value"),
        ("duration_ms = 150\nue.1.script = web:100\n", "multiple of period_ms"),
        ("duration_ms = 1000\nue.1.script = web:150\n", "multiple of period"),
        ("duration_ms = 0\n", "at least one"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


def test_a_random_script_refuses_a_period_past_its_longest_segment_at_parse_time():
    text = "duration_ms = 18000\nperiod_ms = 9000\nue.1.script = random\n"
    message = f"^line 2: period_ms must be at most {MAX_SEGMENT_MS} with a random script, got 9000$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(text)
    # an explicit script takes any period, and a random one a period as long as its longest segment
    assert parse_scenario("duration_ms = 18000\nperiod_ms = 9000\nue.1.script = web:18000\n").period_ms == 9000
    config = parse_scenario(f"duration_ms = 16000\nperiod_ms = {MAX_SEGMENT_MS}\nue.1.script = random\n")
    assert [len(build_station(config).tick_samples(t)) for t in (0, MAX_SEGMENT_MS)] == [1, 1]


def test_a_broker_key_is_an_unknown_key():
    # the station plays over its caller's connection, so a scenario names no broker
    text = "duration_ms = 1000\nbroker = 10.0.0.5:4000\nue.1.script = web:1000\n"
    with pytest.raises(ScenarioError, match="^line 2: unknown key 'broker'$"):
        parse_scenario(text)


def ue_spec_strategy(ue_id: int) -> st.SearchStrategy[UeSpec]:
    classes = st.sampled_from(list(TrafficClass))
    explicit = st.lists(
        st.tuples(classes, st.integers(1, 50)), min_size=1, max_size=4
    ).map(lambda legs: tuple(ScriptSegment(c, n * 100) for c, n in legs))
    random_spec = st.lists(classes, unique=True, max_size=5).map(lambda cs: UeSpec(ue_id, None, classes=tuple(cs)))
    return st.one_of(explicit.map(lambda s: UeSpec(ue_id, s)), random_spec)


@st.composite
def scenario_strategy(draw) -> ScenarioConfig:
    n_ues = draw(st.integers(1, 3))
    ues = tuple(draw(ue_spec_strategy(ue_id)) for ue_id in range(n_ues))
    return ScenarioConfig(
        duration_ms=draw(st.integers(1, 100)) * 100,
        ues=ues,
        bs_id=draw(st.integers(0, 9)),
        seed=draw(st.integers(0, 2**31)),
        time_mode=draw(st.sampled_from(list(TimeMode))),
    )


@settings(max_examples=50)
@given(config=scenario_strategy())
def test_scenario_text_round_trip(config):
    assert parse_scenario(format_scenario(config)) == config


# -- scenario runs over the bus --


def test_run_scenario_publishes_all_frames():
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as watcher, BusClient.connect(host, port) as station:
            sub = watcher.subscribe("kpm.1")
            config = ScenarioConfig(
                duration_ms=3000,
                seed=5,
                time_mode=TimeMode.REAL,
                ues=(
                    UeSpec(1, (ScriptSegment(TrafficClass.WEB, 3000),)),
                    UeSpec(2, (ScriptSegment(TrafficClass.VOIP, 3000),)),
                ),
            )
            report = run_scenario(config, station)
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
    with Broker(port=0) as broker, BusClient.connect(*broker.address) as station:
        config = ScenarioConfig(
            duration_ms=2000,
            seed=11,
            time_mode=TimeMode.REAL,
            ues=(UeSpec(7, None),),
        )
        expected = len(list(frame_stream(config)))
        report = run_scenario(config, station)
        assert report.frames_published == expected == 20


def test_run_scenario_refuses_a_virtual_scenario_before_it_connects():
    client = mock.Mock(spec=BusClient)
    config = ScenarioConfig(duration_ms=1000, ues=(UeSpec(1, (ScriptSegment(TrafficClass.WEB, 1000),)),))
    assert config.time_mode is TimeMode.VIRTUAL
    with pytest.raises(ValueError, match="real time"):
        run_scenario(config, client)
    assert client.mock_calls == []  # not even a subscribe


def test_run_scenario_applies_commands_mid_flight():
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as ric, BusClient.connect(host, port) as station:
            ric.subscribe("kpm.1")
            ric.subscribe("event.1")  # measurements and events share ric's one queue
            config = ScenarioConfig(
                duration_ms=2400,
                period_ms=40,
                time_mode=TimeMode.REAL,
                ues=(
                    UeSpec(1, (ScriptSegment(TrafficClass.WEB, 2400),)),
                    UeSpec(2, (ScriptSegment(TrafficClass.DOS_HULK, 2400),)),
                ),
            )
            reports: list = []
            runner = threading.Thread(target=lambda: reports.append(run_scenario(config, station)))
            runner.start()
            try:
                # wait until measurements flow, then order UE 2 released (twice:
                # the repeat must be a silent no-op)
                assert ric.poll(timeout=5.0).kind is FrameKind.MEASUREMENT
                cmd = RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=123, cmd_id=1)
                ric.publish(FrameKind.COMMAND, "ctrl.1", cmd.to_payload())
                time.sleep(0.1)
                ric.publish(FrameKind.COMMAND, "ctrl.1", cmd.to_payload())
            finally:
                runner.join(timeout=15.0)
            assert not runner.is_alive()
            frames = []
            while (frame := ric.poll(timeout=0.5)) is not None:
                frames.append(frame)
    report = reports[0]
    assert report.commands_applied == 2
    assert report.events_published == 1
    events = [f for f in frames if f.kind is FrameKind.EVENT]
    assert len(events) == 1  # no second event
    event = events[0]
    assert event.topic == "event.1"
    assert event.payload["ue_id"] == 2
    assert event.payload["rrc_state"] == "idle"
    # after the release lands, only UE 1 keeps reporting
    seen_after_event = [
        f.payload["ue_id"] for f in frames if f.kind is FrameKind.MEASUREMENT and f.t_sent_us > event.t_sent_us
    ]
    assert seen_after_event
    assert set(seen_after_event) == {1}


def test_connect_with_retry_gives_up_after_attempts(monkeypatch):
    # a refused dial is retried after 0.05 s, doubling, and the sixth failure is raised
    sleeps, dials = [], []

    def refuse(host, port):
        dials.append((host, port))
        raise ConnectionRefusedError(f"refused #{len(dials)}")

    monkeypatch.setattr(ransim.time, "sleep", sleeps.append)
    monkeypatch.setattr(BusClient, "connect", staticmethod(refuse))
    with pytest.raises(ConnectionRefusedError, match="refused #6"):
        connect_with_retry("127.0.0.1", 1)
    assert dials == [("127.0.0.1", 1)] * 6
    assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8]


def test_connect_with_retry_returns_the_first_client_that_connects(monkeypatch):
    sleeps, outcomes = [], [OSError("down"), OSError("down"), "client"]

    def dial(host, port):
        outcome = outcomes.pop(0)
        if isinstance(outcome, OSError):
            raise outcome
        return outcome

    monkeypatch.setattr(ransim.time, "sleep", sleeps.append)
    monkeypatch.setattr(BusClient, "connect", staticmethod(dial))
    assert connect_with_retry("127.0.0.1", 1) == "client"
    assert sleeps == [0.05, 0.1] and outcomes == []


def test_command_frame_yields_one_event_frame_per_state_change():
    from ranguard.ransim import handle_command_frame

    bs = two_ue_station()
    cmd = RicCommand(2, CommandAction.RRC_RELEASE, issued_at_us=1000, cmd_id=7)
    frame = DatabusFrame(FrameKind.COMMAND, "ctrl.1", 1000, cmd.to_payload())
    event, ok = handle_command_frame(bs, frame, applied_at_us=2000)
    assert ok
    assert (event.kind, event.topic, event.t_sent_us) == (FrameKind.EVENT, "event.1", 2000)
    assert event.payload == {
        "ue_id": 2,
        "action": "rrc_release",
        "cmd_id": 7,
        "issued_at_us": 1000,
        "applied_at_us": 2000,
        "rrc_state": "idle",
        "prev_rrc_state": "connected",
    }
    assert handle_command_frame(bs, frame, applied_at_us=3000) == (None, True)  # no state change


def test_malformed_command_frame_reports_error_event():
    from ranguard.databus import DatabusFrame
    from ranguard.ransim import handle_command_frame

    bs = two_ue_station()
    bad = DatabusFrame(FrameKind.COMMAND, "ctrl.1", 0, {"ue_id": 1, "action": "??", "issued_at_us": 0, "cmd_id": 1})
    event, ok = handle_command_frame(bs, bad, applied_at_us=50)
    assert not ok
    assert event is not None
    assert "bad command payload" in event.payload["error"]
    assert ue_of(bs, 1).policy is CommandAction.FORWARD


def test_prioritize_is_an_unknown_action():
    from ranguard.ransim import handle_command_frame

    bs = two_ue_station()
    frame = DatabusFrame(FrameKind.COMMAND, "ctrl.1", 0, {"ue_id": 1, "action": "prioritize", "issued_at_us": 0, "cmd_id": 1})
    event, ok = handle_command_frame(bs, frame, applied_at_us=50)
    assert not ok
    assert event is not None and "'prioritize' is not a valid CommandAction" in event.payload["error"]
    assert [ue.policy for ue in bs.ues] == [CommandAction.FORWARD, CommandAction.FORWARD]


def test_command_wire_body_with_infinity_reports_error_event():
    # json.loads reads the bare Infinity token as a float; it must not escape as OverflowError
    from ranguard.databus import decode_frame
    from ranguard.ransim import handle_command_frame

    body = (
        b'{"version":1,"kind":"command","topic":"ctrl.1","t_sent_us":0,'
        b'"payload":{"ue_id":1,"action":"rrc_release","issued_at_us":Infinity,"cmd_id":1}}'
    )
    bs = two_ue_station()
    event, ok = handle_command_frame(bs, decode_frame(body), applied_at_us=50)
    assert not ok
    assert event is not None and event.topic == "event.1"
    assert "issued_at_us must be an int" in event.payload["error"]
    assert ue_of(bs, 1).rrc_state is RrcState.CONNECTED
