"""Online classifier: smoothing, dwell/command state machine, latency traces, CDF."""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, replace
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranguard import xapp as xapp_module
from ranguard.databus import DatabusFrame, FrameKind, decode_frame, encode_frame, now_us
from ranguard.kpm import ATTACK_CLASSES, CLASS_ORDER, KpmSample, TrafficCategory, TrafficClass, category_of
from ranguard.ml import DecisionTree
from ranguard.pipeline import closed_loop
from ranguard.ransim import (
    CommandAction,
    ScenarioConfig,
    UeSpec,
    build_station,
    labeled_stream,
)
from ranguard.traffic import ScriptSegment
from ranguard.xapp import (
    BUDGET_US,
    DELTA_BD_US,
    DELTA_D_US,
    DELTA_DR_US,
    DELTA_I_US,
    Decision,
    GroundTruthSegment,
    LatencyTrace,
    OnlineClassifier,
    PolicyError,
    PolicyMap,
    ground_truth_segments,
    latency_report,
    parse_policy,
    time_to_correct,
    virtual_trace,
)
from config_oracle import format_policy
from xapp_oracle import FrameRouteClassifier, fraction_within, oracle_time_to_correct, window_majority

IDX = {cls: i for i, cls in enumerate(CLASS_ORDER)}

WEB = TrafficClass.WEB
VOIP = TrafficClass.VOIP
RIPPER = TrafficClass.DDOS_RIPPER
HULK = TrafficClass.DOS_HULK
SLOW = TrafficClass.SLOWLORIS


class IndexModel:
    """Reads the class index the test planted in the ul_pkts_ok feature."""

    def predict(self, x) -> int:
        return int(x[7])


def sample_for(ue_id: int, t_ms: int, cls: TrafficClass) -> KpmSample:
    return KpmSample(
        timestamp_ms=t_ms,
        bs_id=1,
        ue_id=ue_id,
        cqi=10,
        dl_mcs=20,
        ul_mcs=20,
        pusch_sinr_db=15.0,
        pucch_sinr_db=13.0,
        dl_brate_bps=1e5,
        ul_brate_bps=1e5,
        ul_pkts_ok=IDX[cls],
        ul_pkts_nok=0,
    )


def frame_for(ue_id: int, t_ms: int, cls: TrafficClass) -> DatabusFrame:
    return DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", t_ms * 1000, sample_for(ue_id, t_ms, cls).to_payload())


def policy_with(**knobs) -> PolicyMap:
    """The default policy with other window or dwell knobs."""
    return replace(PolicyMap.default(), **knobs)


def modeled_xapp(window: int = 5, dwell: int = 3) -> OnlineClassifier:
    return OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=window, dwell=dwell))


def wall_xapp() -> OnlineClassifier:
    return OnlineClassifier(IndexModel(), CLASS_ORDER)


def feed(xapp: OnlineClassifier, ue_id: int, t_ms: int, cls: TrafficClass) -> Decision:
    """One modeled decision on the sample of class cls, sent at t_ms."""
    return xapp.on_sample(sample_for(ue_id, t_ms, cls), virtual_trace(t_ms * 1000))


# -- latency traces --


def test_trace_reproduces_reference_arithmetic():
    # 670 us network round trip + 2 x 45 us bus + 2.86 ms inference = 3.62 ms
    trace = LatencyTrace(
        t_bs_send_us=0,
        t_bus_in_us=167,
        t_bus_out_us=212,
        t_xapp_recv_us=380,
        t_infer_start_us=380,
        t_infer_end_us=3240,
    )
    assert trace.delta_bd_us == 167
    assert trace.delta_d_us == 45
    assert trace.delta_dr_us == 168
    assert trace.delta_i_us == 2860
    assert trace.t_n_us == 670
    assert trace.t_d_us == 3620


@given(
    base=st.integers(0, 10**9),
    gaps=st.lists(st.integers(0, 10**6), min_size=5, max_size=5),
)
def test_trace_identity_recomputable_from_stamps(base, gaps):
    stamps = [base]
    for gap in gaps:
        stamps.append(stamps[-1] + gap)
    trace = LatencyTrace(*stamps)
    send, bus_in, bus_out, recv, istart, iend = stamps
    t_n = 2 * ((bus_in - send) + (recv - bus_out))
    assert trace.t_d_us == t_n + 2 * (bus_out - bus_in) + (iend - istart)


def test_trace_rejects_out_of_order_stamps():
    with pytest.raises(ValueError, match="precedes"):
        LatencyTrace(100, 90, 100, 100, 100, 100)
    with pytest.raises(ValueError, match="nonnegative"):
        LatencyTrace(-1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="t_infer_end_us must be a nonnegative integer"):
        LatencyTrace(0, 0, 0, 0, 0, 1.5)


def test_delay_model_defaults_hit_reference_totals():
    trace = virtual_trace(1_000_000)
    assert astuple(trace) == (1_000_000, 1_000_167, 1_000_212, 1_000_380, 1_000_380, 1_003_240)
    assert trace.t_n_us == 670
    assert trace.t_d_us == 3620


def test_delay_model_refuses_a_float_send_stamp():
    with pytest.raises(ValueError, match="t_bs_send_us must be a nonnegative integer, got 200000.0"):
        virtual_trace(200_000.0)


class WebModel:
    def predict(self, x) -> int:
        return IDX[WEB]


def test_samples_of_one_tick_share_one_trace():
    # closed_loop stamps each tick once, and on_sample keeps the trace it is given
    config = ScenarioConfig(duration_ms=1000, ues=tuple(UeSpec(ue, None) for ue in (1, 2, 3)))
    result = closed_loop(config, WebModel(), CLASS_ORDER)
    by_tick: dict[int, list[Decision]] = {}
    for d in result.decisions:
        by_tick.setdefault(d.timestamp_ms, []).append(d)
    assert sorted(by_tick) == list(range(0, 1000, 100))
    for t_ms, tick in by_tick.items():
        assert len(tick) == 3 and tick[0].trace is tick[1].trace is tick[2].trace
        assert tick[0].trace == virtual_trace(t_ms * 1000)


def test_latency_report_matches_direct_recomputation():
    rng = np.random.default_rng(7)
    traces = []
    for _ in range(1000):
        send = int(rng.integers(0, 10**6))
        cuts = np.sort(rng.integers(0, 5000, size=5))
        stamps = [send] + [send + int(c) for c in cuts]
        traces.append(LatencyTrace(*stamps))
    report = latency_report(traces)
    t_d = np.array([t.t_d_us for t in traces], dtype=np.float64)
    assert report.count == 1000
    assert report.t_d.median_us == float(np.percentile(t_d, 50))
    assert report.t_d.p99_us == float(np.percentile(t_d, 99))
    d_i = np.array([t.delta_i_us for t in traces], dtype=np.float64)
    assert report.delta_i.median_us == float(np.percentile(d_i, 50))
    assert report.over_budget == int(np.sum(t_d > BUDGET_US))
    assert report.worst_t_d_us == int(t_d.max())


def test_latency_report_zero_trace_full_margin():
    report = latency_report([LatencyTrace(5, 5, 5, 5, 5, 5)])
    assert report.t_d.median_us == 0.0
    assert report.p99_margin_us == BUDGET_US
    assert report.over_budget == 0
    assert any("budget" in line for line in report.summary_lines())


def test_latency_report_flags_budget_violations():
    small = virtual_trace(0)
    on_budget = LatencyTrace(0, 0, 0, 0, 0, BUDGET_US)
    huge = LatencyTrace(0, 0, 0, 0, 0, 2_000_000)
    report = latency_report([small, on_budget, huge])
    assert report.over_budget == 1
    assert report.worst_t_d_us == 2_000_000


def test_latency_report_needs_traces():
    with pytest.raises(ValueError):
        latency_report([])


# -- smoothing --


def smooth(labels: list[TrafficClass], window: int) -> list[TrafficClass]:
    """Oracle: sliding-window majority over the last `window` labels, step by step."""
    buf: deque[TrafficClass] = deque(maxlen=window)
    out = []
    for label in labels:
        buf.append(label)
        out.append(window_majority(buf))
    return out


def test_window_majority_hand_cases():
    assert window_majority([WEB]) is WEB
    assert window_majority([WEB, VOIP]) is WEB  # tie: lowest class index
    assert window_majority([VOIP, VOIP, WEB]) is VOIP
    assert window_majority([RIPPER, HULK]) is RIPPER
    assert window_majority([HULK, HULK, WEB, WEB, HULK]) is HULK


def test_window_majority_rejects_empty():
    with pytest.raises(ValueError):
        window_majority([])


@settings(max_examples=200)
@given(
    labels=st.lists(st.sampled_from(list(TrafficClass)), min_size=1, max_size=40),
    window=st.integers(1, 7),
)
def test_smooth_equals_window_recount(labels, window):
    smoothed = smooth(labels, window)
    for i, got in enumerate(smoothed):
        tail = labels[max(0, i - window + 1) : i + 1]
        counts = {cls: tail.count(cls) for cls in set(tail)}
        best = min(counts, key=lambda c: (-counts[c], CLASS_ORDER.index(c)))
        assert got is best
    # the classifier's running counts, with the model's labels in an order of their own:
    # IndexModel predicts the index planted for CLASS_ORDER[j], and order[j] is cls
    order = CLASS_ORDER[::-1]
    xapp = OnlineClassifier(IndexModel(), order, policy_with(window=window))
    planted = [CLASS_ORDER[order.index(cls)] for cls in labels]
    served = [feed(xapp, 1, k * 100, c) for k, c in enumerate(planted)]
    assert [d.smoothed for d in served] == smoothed


def test_smooth_window_one_is_identity():
    labels = [WEB, HULK, VOIP, HULK, SLOW]
    assert smooth(labels, 1) == labels


# -- policy map --


def test_default_policy_forwards_benign_releases_attacks():
    # benign traffic takes no action: only an attack verdict issues a command
    policy = PolicyMap.default()
    assert policy.actions == dict.fromkeys((RIPPER, HULK, SLOW), CommandAction.RRC_RELEASE)
    assert policy.window == 5
    assert policy.dwell == 3


def test_policy_must_cover_every_class():
    actions = {cls: CommandAction.FORWARD for cls in ATTACK_CLASSES if cls is not SLOW}
    with pytest.raises(ValueError, match="slowloris"):
        PolicyMap(actions)


def test_policy_refuses_a_benign_class():
    actions = dict.fromkeys((*ATTACK_CLASSES, VOIP), CommandAction.FORWARD)
    with pytest.raises(ValueError, match=r"only the attack classes; got \['voip'\]"):
        PolicyMap(actions)


@pytest.mark.parametrize("kwargs", [{"window": 0}, {"dwell": 0}])
def test_policy_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        policy_with(**kwargs)


# -- the decision state machine --


def test_dwell_gates_the_single_command():
    xapp = modeled_xapp(window=5, dwell=3)
    decisions = [feed(xapp, 7, t * 100, WEB) for t in range(3)]
    decisions += [feed(xapp, 7, (3 + t) * 100, HULK) for t in range(10)]
    commands = [d.command for d in decisions if d.command is not None]
    assert len(commands) == 1
    # windows fill with w w w h h | h -> first attack majority at the 6th frame,
    # dwell 3 means the command fires on the 8th
    assert decisions[6].smoothed is HULK and decisions[6].command is None
    assert decisions[7].command is commands[0]
    assert commands[0].action is CommandAction.RRC_RELEASE
    assert commands[0].ue_id == 7
    assert commands[0].cmd_id == 1


def test_no_command_before_the_window_fills():
    # an attack from a UE's first sample meets dwell 3 at the third decision, but the
    # five-label window fills only at the fifth: a fresh flow's ramp alone releases nothing
    expected = [False] * 4 + [True] + [False] * 3
    served = modeled_xapp(window=5, dwell=3)
    assert [feed(served, 7, t * 100, SLOW).command is not None for t in range(8)] == expected
    oracle = FrameRouteClassifier(IndexModel(), CLASS_ORDER, PolicyMap.default())
    assert [oracle.on_measurement(frame_for(7, t * 100, SLOW)).command is not None for t in range(8)] == expected


def test_benign_gap_rearms_for_a_second_episode():
    xapp = modeled_xapp(window=3, dwell=2)
    seq = [HULK] * 6 + [WEB] * 6 + [HULK] * 6
    decisions = [feed(xapp, 1, t * 100, cls) for t, cls in enumerate(seq)]
    commands = [d.command for d in decisions if d.command is not None]
    assert len(commands) == 2
    assert commands[0].cmd_id == 1
    assert commands[1].cmd_id == 2
    # smoothed transitions benign->attack bound the command count
    flips = sum(
        1
        for a, b in zip(decisions, decisions[1:])
        if a.smoothed in (WEB, VOIP) and b.smoothed not in (WEB, VOIP)
    )
    assert len(commands) <= flips + 1


def test_window_one_dwell_one_matches_raw_model():
    xapp = modeled_xapp(window=1, dwell=1)
    seq = [WEB, HULK, WEB, SLOW, VOIP, RIPPER]
    decisions = [feed(xapp, 2, t * 100, cls) for t, cls in enumerate(seq)]
    assert [d.raw for d in decisions] == seq
    assert [d.smoothed for d in decisions] == seq  # smoothing identity
    assert decisions[1].command is not None  # first attack verdict fires immediately


def test_benign_stream_never_commands():
    xapp = modeled_xapp()
    for t in range(50):
        d = feed(xapp, 1, t * 100, WEB if t % 2 else VOIP)
        assert d.command is None


def test_smoothed_sequence_equals_recount_oracle():
    xapp = modeled_xapp(window=5)
    seq = [WEB, HULK] * 10
    decisions = [feed(xapp, 1, t * 100, cls) for t, cls in enumerate(seq)]
    assert [d.smoothed for d in decisions] == smooth(seq, 5)


def test_ue_windows_are_independent():
    xapp = modeled_xapp(window=3, dwell=2)
    commands = []
    for t in range(8):
        d1 = feed(xapp, 1, t * 100, HULK)
        d2 = feed(xapp, 2, t * 100, WEB)
        commands += [d for d in (d1.command, d2.command) if d is not None]
    assert len(commands) == 1
    assert commands[0].ue_id == 1


def on_station(bs_id: int, ue_id: int, t_ms: int, cls: TrafficClass) -> KpmSample:
    return replace(sample_for(ue_id, t_ms, cls), bs_id=bs_id)


def test_an_attacker_is_released_while_its_ue_id_is_benign_on_another_station():
    xapp = modeled_xapp(window=5, dwell=3)
    commands = []
    for t in range(20):
        for bs_id, cls in ((1, HULK), (2, WEB)):
            d = xapp.on_sample(on_station(bs_id, 7, t * 100, cls), virtual_trace(t * 100_000))
            if d.command is not None:
                commands.append((bs_id, d.command.ue_id, d.command.action))
    assert commands == [(1, 7, CommandAction.RRC_RELEASE)]


@given(
    rows=st.lists(
        st.tuples(st.sampled_from([1, 2]), st.integers(1, 3), st.sampled_from([WEB, VOIP, HULK, SLOW])),
        max_size=80,
    )
)
@settings(max_examples=100, deadline=None)
def test_two_stations_with_the_same_ue_ids_decide_as_each_would_alone(rows):
    shared = modeled_xapp(window=3, dwell=2)
    alone = {1: modeled_xapp(window=3, dwell=2), 2: modeled_xapp(window=3, dwell=2)}

    def view(d: Decision) -> tuple:  # command ids count one classifier's commands, so they are left out
        action = None if d.command is None else (d.command.ue_id, d.command.action)
        return d.ue_id, d.timestamp_ms, d.raw, d.smoothed, action, d.trace

    for t, (bs_id, ue_id, cls) in enumerate(rows):
        sample, trace = on_station(bs_id, ue_id, t * 100, cls), virtual_trace(t * 100_000)
        assert view(shared.on_sample(sample, trace)) == view(alone[bs_id].on_sample(sample, trace))
    assert len(shared._tracks) == sum(len(xapp._tracks) for xapp in alone.values())


def test_classifier_requires_a_model():
    for model in (None, object()):
        with pytest.raises(TypeError, match="predict"):
            OnlineClassifier(model, CLASS_ORDER)


def test_malformed_payload_is_counted_and_skipped():
    xapp = wall_xapp()
    bad = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {"nonsense": True})
    assert xapp.on_measurement(bad) is None
    assert xapp.malformed == 1
    assert xapp.on_measurement(frame_for(1, 0, WEB)) is not None


@pytest.mark.parametrize("field", ["pusch_sinr_db", "pucch_sinr_db", "dl_brate_bps", "ul_brate_bps"])
def test_non_finite_kpm_value_is_malformed(field):
    xapp = wall_xapp()
    frame = frame_for(1, 0, WEB)
    frame.payload[field] = float("nan")
    assert xapp.on_measurement(frame) is None
    frame.payload[field] = -inf
    assert xapp.on_measurement(frame) is None
    assert xapp.malformed == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("timestamp_ms", inf),  # int(inf)
        ("cqi", -inf),
        ("ul_pkts_nok", inf),
        ("pusch_sinr_db", 10**400),  # float(10**400)
        ("ul_pkts_ok", 10**400),  # a counter the feature row cannot hold as a float
    ],
    ids=["timestamp_inf", "cqi_minus_inf", "ul_pkts_nok_inf", "pusch_sinr_huge_int", "ul_pkts_ok_huge_int"],
)
def test_value_past_the_number_range_is_malformed(field, value):
    xapp = wall_xapp()
    frame = frame_for(1, 0, WEB)
    frame.payload[field] = value
    assert xapp.on_measurement(frame) is None
    assert xapp.malformed == 1
    assert xapp.on_measurement(frame_for(1, 0, WEB)) is not None


@pytest.mark.parametrize(
    "field, value",
    [("ue_id", 3.9), ("ul_pkts_ok", 5.0), ("cqi", True), ("timestamp_ms", "12"), ("dl_brate_bps", False), ("pusch_sinr_db", "1.5")],
    ids=["float_ue_id", "integral_float_count", "bool_int", "text_int", "bool_float", "text_float"],
)
def test_kpm_value_of_the_wrong_type_is_malformed(field, value):
    xapp = wall_xapp()
    frame = frame_for(1, 0, WEB)
    frame.payload[field] = value
    assert xapp.on_measurement(frame) is None
    assert xapp.malformed == 1
    assert xapp._tracks == {}  # no UE's window took the frame
    assert xapp.on_measurement(frame_for(1, 0, WEB)) is not None


@pytest.mark.parametrize("number", [b"Infinity", b"1e400"])
def test_infinite_timestamp_from_the_wire_is_malformed(number):
    body = encode_frame(frame_for(1, 0, WEB))[4:].replace(b'"timestamp_ms":0', b'"timestamp_ms":' + number)
    frame = decode_frame(body)
    assert frame.payload["timestamp_ms"] == inf
    with pytest.raises(ValueError, match="timestamp_ms must be an int"):
        KpmSample.from_payload(frame.payload)
    xapp = wall_xapp()
    assert xapp.on_measurement(frame) is None
    assert xapp.malformed == 1


def test_out_of_range_prediction_is_an_error():
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER[:2])
    with pytest.raises(ValueError, match="labels are mapped"):
        xapp.on_measurement(frame_for(1, 0, HULK))  # index 3, only 2 labels
    with pytest.raises(ValueError, match="labels are mapped"):
        feed(xapp, 1, 0, HULK)


def test_modeled_traces_are_exact():
    xapp = modeled_xapp(window=1, dwell=1)
    benign = feed(xapp, 1, 200, WEB)
    assert benign.trace == virtual_trace(200_000)
    attack = feed(xapp, 1, 300, HULK)
    assert attack.command is not None
    assert attack.trace == virtual_trace(300_000)
    assert attack.command.issued_at_us == attack.trace.t_infer_end_us == 300_000 + 380 + 2860


def test_wall_mode_uses_bus_stamps():
    sample_payload = frame_for(1, 50, HULK).payload
    payload = dict(sample_payload, bus={"in_us": 60_000, "out_us": 61_000})
    frame = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 50_000, payload)
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    d = xapp.on_measurement(frame)
    assert d.trace.t_bs_send_us == 50_000
    assert d.trace.t_bus_in_us == 60_000
    assert d.trace.t_bus_out_us == 61_000
    assert d.trace.delta_d_us == 1000
    assert d.trace.t_xapp_recv_us >= 61_000
    assert d.trace.t_infer_end_us >= d.trace.t_infer_start_us
    assert d.command is not None
    assert d.command.issued_at_us == d.trace.t_infer_end_us


def test_each_entry_point_reads_one_clock():
    # on_measurement reads the wall clock three times, the receive stamp first;
    # on_sample and the decision step read none
    clock = iter([70_000, 71_000, 72_000])
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    with mock.patch.object(xapp_module, "now_us", lambda: next(clock)):
        d = xapp.on_measurement(frame_for(1, 50, HULK))
    assert astuple(d.trace) == (50_000, 50_000, 50_000, 70_000, 71_000, 72_000)
    assert d.command.issued_at_us == 72_000
    with mock.patch.object(xapp_module, "now_us", lambda: pytest.fail("on_sample read the wall clock")):
        d = feed(xapp, 2, 60, HULK)
    assert d.command.issued_at_us == d.trace.t_infer_end_us


def bus_frame(bus, *, t_sent_us: int = 50_000) -> DatabusFrame:
    payload = dict(frame_for(1, 50, HULK).payload, bus=bus)
    return DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", t_sent_us, payload)


@pytest.mark.parametrize(
    "bus, t_sent_us",
    [
        ({"in_us": "soon"}, 50_000),
        ({"in_us": None}, 50_000),
        ({"in_us": inf}, 50_000),
        ({"in_us": 60_000.0}, 50_000),
        ({"in_us": True}, 0),
        ({"in_us": -1}, 0),
        ({"in_us": 10}, 1000),  # the sender's clock is ahead of the broker's
        ({"in_us": 5, "out_us": 3}, 0),  # left the broker before it arrived
    ],
    ids=["text", "null", "inf", "float", "bool", "negative", "sender_ahead", "out_before_in"],
)
def test_bad_bus_stamp_is_malformed(bus, t_sent_us):
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    assert xapp.on_measurement(bus_frame(bus, t_sent_us=t_sent_us)) is None
    assert xapp.malformed == 1
    assert xapp.on_measurement(bus_frame({"in_us": 60_000, "out_us": 61_000})) is not None


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(JSON | st.fixed_dictionaries({}, optional={"in_us": JSON, "out_us": JSON}), st.integers(0, 10**7))
def test_wall_mode_never_raises_on_any_bus_value(bus, t_sent_us):
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    decision = xapp.on_measurement(bus_frame(bus, t_sent_us=t_sent_us))
    assert (decision is None) == (xapp.malformed == 1)


KPM_FIELDS = list(frame_for(1, 0, WEB).payload)
EXTREMES = st.sampled_from([inf, -inf, float("nan"), 10**400, -(10**400), 1e308, 2**63, -1, True, "7"])


def vote_tree() -> DecisionTree:
    """A served-style tree over the ten features: splits on ul_pkts_ok, then on the drop ratio."""
    return DecisionTree.from_dict(
        dict(n_features=10, n_classes=5, feature=[7, -1, 9, -1, -1], threshold=[2.5, 0.0, 0.1, 0.0, 0.0],
             left=[1, -1, 3, -1, -1], right=[2, -1, 4, -1, -1], counts=np.eye(5).tolist())
    )


def without_clock_reads(d: Decision) -> tuple:
    """A decision less the stamps read from the wall clock: receive, inference, command issue."""
    command = None if d.command is None else replace(d.command, issued_at_us=0)
    return d.ue_id, d.timestamp_ms, d.raw, d.smoothed, command, astuple(d.trace)[:3]


@settings(max_examples=300, deadline=None)
@example(changes={"timestamp_ms": inf}, keep=True)
@example(changes={"ul_pkts_ok": 10**400}, keep=True)
@given(
    changes=st.dictionaries(st.sampled_from(KPM_FIELDS + ["bus"]) | st.text(max_size=4), JSON | EXTREMES, max_size=14),
    keep=st.booleans(),
)
def test_on_measurement_never_raises_on_any_payload(changes, keep):
    # keep: change some fields of a valid payload; otherwise the payload is changes alone
    payload = {**(frame_for(1, 50, WEB).payload if keep else {}), **changes}
    frame = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 50_000, payload)
    xapp = OnlineClassifier(vote_tree(), CLASS_ORDER)
    decision = xapp.on_measurement(frame)
    assert (decision is None) == (xapp.malformed == 1)
    # the trust boundary takes and refuses exactly what the inline route did, and decides as it did
    expected = FrameRouteClassifier(vote_tree(), CLASS_ORDER).on_measurement(frame)
    assert (decision is None) == (expected is None)
    if decision is not None:
        assert without_clock_reads(decision) == without_clock_reads(expected)


@settings(max_examples=200, deadline=None)
@given(
    t_sent_us=st.integers(0, 10**12),
    labels=st.lists(st.sampled_from(list(TrafficClass)), min_size=1, max_size=20),
)
def test_on_sample_stamps_exactly_the_delay_model(t_sent_us, labels):
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    commands = 0
    with mock.patch.object(xapp_module, "now_us", lambda: pytest.fail("on_sample read the wall clock")):
        for k, cls in enumerate(labels):
            t = t_sent_us + k * 100_000
            d = xapp.on_sample(sample_for(1, k * 100, cls), virtual_trace(t))
            assert d.trace == virtual_trace(t)
            assert d.trace.t_d_us == 2 * (DELTA_BD_US + DELTA_DR_US) + 2 * DELTA_D_US + DELTA_I_US
            if d.command is not None:
                commands += 1
                assert d.command.issued_at_us == d.trace.t_infer_end_us
    # window 1, dwell 1: the first attack label commands, so the check above is not vacuous
    assert (commands > 0) == any(category_of(c) is TrafficCategory.ATTACK for c in labels)


@settings(max_examples=200, deadline=None)
@example(t_sent_us=10**15, gaps=[0, 0], cls=HULK)  # stamps ahead of this host's clock
@given(
    t_sent_us=st.integers(0, 10**12),
    gaps=st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
    cls=st.sampled_from(list(TrafficClass)),
)
def test_wall_mode_trace_is_monotone_and_carries_the_frame_stamps(t_sent_us, gaps, cls):
    t_in = t_sent_us + gaps[0]
    t_out = t_in + gaps[1]
    payload = dict(frame_for(1, 50, cls).payload, bus={"in_us": t_in, "out_us": t_out})
    xapp = OnlineClassifier(IndexModel(), CLASS_ORDER, policy_with(window=1, dwell=1))
    before = now_us()
    d = xapp.on_measurement(DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", t_sent_us, payload))
    after = now_us()
    stamps = astuple(d.trace)
    assert stamps[:3] == (t_sent_us, t_in, t_out)
    assert list(stamps) == sorted(stamps)
    assert max(before, t_out) <= d.trace.t_xapp_recv_us
    assert d.trace.t_infer_end_us <= max(after, t_out)
    if d.command is not None:
        assert d.command.issued_at_us == d.trace.t_infer_end_us
    assert (d.command is not None) == (category_of(cls) is TrafficCategory.ATTACK)


# -- time to correct --


def seg(ue_id: int, start: int, end: int, label: TrafficClass) -> GroundTruthSegment:
    return GroundTruthSegment(ue_id, start, end, label)


def decisions_for(ue_id: int, labels: list[TrafficClass], *, start_ms: int = 0) -> list[Decision]:
    out = []
    for k, label in enumerate(labels):
        t = start_ms + k * 100
        out.append(
            Decision(
                ue_id=ue_id,
                timestamp_ms=t,
                raw=label,
                smoothed=label,
                command=None,
                trace=virtual_trace(t * 1000),
            )
        )
    return out


def test_all_correct_segment_scores_zero():
    rows = decisions_for(1, [WEB] * 10)
    ttc = time_to_correct(rows, [seg(1, 0, 1000, WEB)], period_ms=100)
    assert ttc.times_ms == (0.0,)
    assert ttc.cdf() == [(0.0, 1.0)]
    assert fraction_within(ttc, 0) == 1.0
    assert ttc.unresolved == 0


def test_correct_from_fifth_sample_scores_500ms():
    labels = [VOIP] * 4 + [HULK] * 6
    rows = decisions_for(1, labels)
    ttc = time_to_correct(rows, [seg(1, 0, 1000, HULK)], period_ms=100)
    assert ttc.times_ms == (500.0,)


def test_wrong_final_verdict_is_unresolved():
    rows = decisions_for(1, [HULK] * 9 + [WEB])
    ttc = time_to_correct(rows, [seg(1, 0, 1000, HULK)], period_ms=100)
    assert ttc.times_ms == (inf,)
    assert ttc.unresolved == 1
    assert ttc.cdf() == []
    assert fraction_within(ttc, 10**9) == 0.0


def test_segment_without_decisions_is_unresolved():
    ttc = time_to_correct([], [seg(1, 0, 1000, WEB)], period_ms=100)
    assert ttc.times_ms == (inf,)


def test_hand_built_cdf():
    rows = (
        decisions_for(1, [WEB] * 5)  # 0 ms
        + decisions_for(1, [WEB, WEB, HULK, HULK, HULK], start_ms=500)  # 300 ms
        + decisions_for(2, [HULK] * 4 + [SLOW], start_ms=0)  # 500 ms
        + decisions_for(2, [VOIP] * 4 + [WEB], start_ms=500)  # unresolved
    )
    segments = [
        seg(1, 0, 500, WEB),
        seg(1, 500, 1000, HULK),
        seg(2, 0, 500, SLOW),
        seg(2, 500, 1000, VOIP),
    ]
    ttc = time_to_correct(rows, segments, period_ms=100)
    assert ttc.times_ms == (0.0, 300.0, 500.0, inf)
    assert ttc.cdf() == [(0.0, 0.25), (300.0, 0.5), (500.0, 0.75)]
    assert fraction_within(ttc, 500) == 0.75
    assert ttc.total == 4
    assert ttc.unresolved == 1


def test_cdf_merges_equal_times():
    rows = decisions_for(1, [WEB] * 3) + decisions_for(2, [WEB] * 3)
    segments = [seg(1, 0, 300, WEB), seg(2, 0, 300, WEB)]
    ttc = time_to_correct(rows, segments, period_ms=100)
    assert ttc.cdf() == [(0.0, 1.0)]


@st.composite
def scored_decisions(draw) -> tuple[list[Decision], list[GroundTruthSegment]]:
    """Decisions of up to three UEs in random order, on a coarse clock so stamps repeat,
    and segments that may hold no decision or end on a wrong verdict."""
    stamps = st.integers(0, 30).map(lambda k: k * 100)
    rows = [
        Decision(ue_id=ue, timestamp_ms=t, raw=label, smoothed=label, command=None, trace=virtual_trace(t * 1000))
        for ue, t, label in draw(
            st.lists(st.tuples(st.integers(1, 3), stamps, st.sampled_from([WEB, HULK, SLOW])), max_size=60)
        )
    ]
    segments = [
        seg(ue, start, start + length, label)
        for ue, start, length, label in draw(
            st.lists(
                st.tuples(st.integers(1, 4), stamps, st.integers(1, 1200), st.sampled_from([WEB, HULK, SLOW])),
                max_size=12,
            )
        )
    ]
    return rows, segments


@settings(max_examples=300, deadline=None)
@given(scored_decisions(), st.integers(1, 200))
def test_time_to_correct_equals_the_scan_of_every_decision(data, period_ms):
    rows, segments = data
    expected = oracle_time_to_correct(rows, segments, period_ms=period_ms)
    assert time_to_correct(iter(rows), segments, period_ms=period_ms) == expected


def test_decisions_outside_segment_are_ignored():
    rows = decisions_for(1, [HULK] * 5) + decisions_for(1, [WEB] * 5, start_ms=500)
    ttc = time_to_correct(rows, [seg(1, 0, 500, HULK)], period_ms=100)
    assert ttc.times_ms == (0.0,)  # the wrong verdicts at 500+ lie outside


def test_segment_validation():
    with pytest.raises(ValueError):
        GroundTruthSegment(1, 500, 500, WEB)


# -- ground truth from a station --


def test_segments_extend_final_leg_to_duration():
    config = ScenarioConfig(
        duration_ms=1000,
        ues=(UeSpec(4, (ScriptSegment(WEB, 300), ScriptSegment(SLOW, 200))),),
    )
    bs = build_station(config)
    assert ground_truth_segments(bs, 1000) == [
        seg(4, 0, 300, WEB),
        seg(4, 300, 1000, SLOW),
    ]


def test_segments_truncate_at_duration():
    config = ScenarioConfig(
        duration_ms=400,
        ues=(UeSpec(4, (ScriptSegment(WEB, 300), ScriptSegment(SLOW, 200), ScriptSegment(VOIP, 100))),),
    )
    bs = build_station(config)
    assert ground_truth_segments(bs, 400) == [
        seg(4, 0, 300, WEB),
        seg(4, 300, 400, SLOW),
    ]


def test_segments_agree_with_labeled_stream():
    config = ScenarioConfig(duration_ms=20_000, seed=3, ues=(UeSpec(0, None), UeSpec(1, None)))
    segments = ground_truth_segments(build_station(config), config.duration_ms)
    for labeled in labeled_stream(config):
        hits = [
            s
            for s in segments
            if s.ue_id == labeled.sample.ue_id
            and s.start_ms <= labeled.sample.timestamp_ms < s.end_ms
        ]
        assert len(hits) == 1
        assert hits[0].label is labeled.label


# -- policy config text --


def test_policy_round_trip_default():
    policy = policy_with(window=7, dwell=2)
    assert parse_policy(format_policy(policy)) == policy


@given(
    window=st.integers(min_value=1, max_value=20),
    dwell=st.integers(min_value=1, max_value=20),
    action_idx=st.lists(
        st.integers(min_value=0, max_value=2), min_size=3, max_size=3
    ),
)
def test_policy_round_trip_any_map(window, dwell, action_idx):
    choices = tuple(CommandAction)
    policy = PolicyMap(
        {cls: choices[i] for cls, i in zip(ATTACK_CLASSES, action_idx)},
        window=window,
        dwell=dwell,
    )
    assert parse_policy(format_policy(policy)) == policy


def test_policy_parse_tolerates_comments_and_blanks():
    text = """
# how much evidence to require
window = 3   # samples
dwell = 2

ddos_ripper = rrc_release
dos_hulk = drop   # keep the flow, lose its uplink
slowloris = forward
"""
    policy = parse_policy(text)
    assert policy.window == 3
    assert policy.dwell == 2
    assert policy.actions[RIPPER] is CommandAction.RRC_RELEASE
    assert policy.actions[HULK] is CommandAction.DROP
    assert policy.actions[SLOW] is CommandAction.FORWARD


def test_policy_parse_defaults_knobs_when_absent():
    text = "\n".join(f"{cls.value} = forward" for cls in ATTACK_CLASSES)
    policy = parse_policy(text)
    assert policy.window == PolicyMap.default().window
    assert policy.dwell == PolicyMap.default().dwell


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("web forward", "expected key = value"),
        ("window = five\n" + "\n".join(f"{c.value} = forward" for c in TrafficClass), "must be an integer"),
        ("ddos_ripper = nuke", "action must be one of"),
        ("ddos_ripper = prioritize", "^line 1: action must be one of forward, drop, rrc_release, got 'prioritize'$"),
        ("web = forward\n" + "\n".join(f"{c.value} = forward" for c in ATTACK_CLASSES), "^line 1: unknown key 'web'$"),
        ("web = forward\nweb = drop", "duplicate key"),
        ("banana = forward", "unknown key"),
        ("\n".join(f"{c.value} = forward" for c in ATTACK_CLASSES[:-1]), "missing"),
        ("window = 0\n" + "\n".join(f"{c.value} = forward" for c in ATTACK_CLASSES), "window must be >= 1"),
    ],
)
def test_policy_parse_errors(text, fragment):
    with pytest.raises(PolicyError, match=fragment):
        parse_policy(text)