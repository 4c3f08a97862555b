"""The slotted records against their dataclass oracles, and the one-call latency report."""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import FrozenInstanceError, astuple, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import record_oracle as oracle
from ranguard.databus import DatabusFrame, FrameKind
from ranguard.kpm import KpmSample, LabeledSample, TrafficClass
from ranguard.ransim import CommandAction, RicCommand
from ranguard.records import record
from ranguard.xapp import BUDGET_US, Decision, LatencyTrace, QuantilePair, latency_report, virtual_trace

# a value for any field: in range, negative, past a bound, a bool, a float of
# any kind, an int no float holds, or no number at all
ANY = st.one_of(
    st.integers(-3, 40),
    st.integers(0, 10**18),
    st.just(10**400),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1e9),
    st.none(),
    st.text(max_size=2),
)
INTS = st.one_of(st.integers(-2, 2**70), st.booleans(), st.floats(0.0, 10.0), st.just(-1.5))


def outcome(make, *args, **kwargs):
    """What a construction did: the record's class name, field values and hash, or the error."""
    try:
        made = make(*args, **kwargs)
    except Exception as exc:  # the same type and message is the contract
        return ("raised", type(exc), str(exc))
    try:
        digest = hash(made)
    except TypeError:  # a frame's dict payload
        digest = None
    return ("made", type(made).__name__, repr(astuple(made)), digest)


SAMPLE_NAMES = [f.name for f in dataclasses.fields(KpmSample)]
VALID_SAMPLE = st.tuples(
    *(st.integers(0, hi) for hi in (10**9, 9, 99, 15, 28, 28)),
    *(st.floats(lo, hi) for lo, hi in ((-20.0, 40.0), (-20.0, 40.0), (0.0, 1e8), (0.0, 1e8))),
    st.integers(0, 1000),
    st.integers(0, 1000),
)


@settings(max_examples=400, deadline=None)
@given(args=VALID_SAMPLE, changes=st.dictionaries(st.sampled_from(SAMPLE_NAMES), ANY, max_size=3))
def test_kpm_sample_accepts_and_refuses_as_the_oracle(args, changes):
    values = dict(zip(SAMPLE_NAMES, args), **changes)
    assert outcome(KpmSample, **values) == outcome(oracle.KpmSample, **values)
    assert outcome(KpmSample, *values.values()) == outcome(oracle.KpmSample, *values.values())


@settings(max_examples=200, deadline=None)
@given(args=VALID_SAMPLE, ok=st.integers(0, 5), label=st.sampled_from(list(TrafficClass)))
def test_kpm_sample_drop_path_equality_and_hash(args, ok, label):
    sample, ref = KpmSample(*args), oracle.KpmSample(*args)
    # the DROP policy's zeroed uplink goes through dataclasses.replace
    zeroed = replace(sample, ul_brate_bps=0.0, ul_pkts_ok=0, ul_pkts_nok=0)
    assert repr(zeroed) == repr(replace(ref, ul_brate_bps=0.0, ul_pkts_ok=0, ul_pkts_nok=0))
    assert type(zeroed) is KpmSample
    assert zeroed == KpmSample(*astuple(zeroed)) and hash(zeroed) == hash(KpmSample(*astuple(zeroed)))
    assert (replace(sample, ul_pkts_ok=ok) == sample) == (ok == sample.ul_pkts_ok)
    assert repr(sample) == repr(ref) and hash(sample) == hash(ref)
    with pytest.raises(ValueError, match="cqi must be in"):
        replace(sample, cqi=16)
    labeled, again = LabeledSample(sample, label), LabeledSample(KpmSample(*args), label)
    assert repr(labeled) == repr(oracle.LabeledSample(ref, label))
    assert labeled == again and hash(labeled) == hash(again)


STAMPS = st.lists(st.integers(0, 10**6), min_size=6, max_size=6).map(sorted)


@settings(max_examples=400, deadline=None)
@example(stamps=[True, True, 2, 2, 2, 2])  # a bool is an int to the check
@example(stamps=[0, 0, 0, 0, 0, 1.5])
@example(stamps=[100, 90, 100, 100, 100, 100])
@example(stamps=[-1, 0, 0, 0, 0, 0])
@example(stamps=[0, 0, 0, 0, 0, 2**70])
@given(stamps=st.one_of(STAMPS, st.lists(INTS, min_size=6, max_size=6)))
def test_latency_trace_accepts_and_refuses_as_the_oracle(stamps):
    assert outcome(LatencyTrace, *stamps) == outcome(oracle.LatencyTrace, *stamps)
    names = [f.name for f in dataclasses.fields(LatencyTrace)]
    assert outcome(LatencyTrace, **dict(zip(names, stamps))) == outcome(oracle.LatencyTrace, *stamps)


TOPICS = st.sampled_from(["kpm.1", "ctrl.7", "event.0", "kpm.*", "kpm.x", "", "ack", "bus.1"])


@settings(max_examples=400, deadline=None)
@example(kind=FrameKind.MEASUREMENT, topic="kpm.1", t_sent_us=True, payload={})
@given(
    kind=st.sampled_from(list(FrameKind)),
    topic=TOPICS,
    t_sent_us=INTS,
    payload=st.sampled_from([{}, {"a": 1}, [], "x", None]),
)
def test_databus_frame_accepts_and_refuses_as_the_oracle(kind, topic, t_sent_us, payload):
    ref = outcome(oracle.DatabusFrame, kind, topic, t_sent_us, payload)
    assert outcome(DatabusFrame, kind, topic, t_sent_us, payload) == ref
    by_name = {"kind": kind, "topic": topic, "t_sent_us": t_sent_us, "payload": payload}
    assert outcome(DatabusFrame, **by_name) == ref


def test_frame_with_a_dict_payload_is_unhashable_as_before():
    frame = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 5, {"a": 1})
    with pytest.raises(TypeError):
        hash(frame)
    assert frame == DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 5, {"a": 1})
    assert repr(frame) == repr(oracle.DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 5, {"a": 1}))


@settings(max_examples=200, deadline=None)
@given(
    ue_id=st.integers(0, 99),
    t=st.integers(0, 10**6),
    raw=st.sampled_from(list(TrafficClass)),
    smoothed=st.sampled_from(list(TrafficClass)),
    command=st.none() | st.builds(RicCommand, st.integers(0, 9), st.sampled_from(list(CommandAction)), st.integers(0, 99)),
)
def test_decision_equality_hash_repr_and_replace(ue_id, t, raw, smoothed, command):
    trace = virtual_trace(t * 1000)
    d = Decision(ue_id, t, raw, smoothed, command, trace)
    ref = oracle.Decision(ue_id, t, raw, smoothed, command, trace)
    assert repr(d) == repr(ref) and hash(d) == hash(ref) and astuple(d) == astuple(ref)
    assert d == Decision(ue_id=ue_id, timestamp_ms=t, raw=raw, smoothed=smoothed, command=command, trace=trace)
    assert replace(d, raw=smoothed) == Decision(ue_id, t, smoothed, smoothed, command, trace)
    assert (replace(d, ue_id=ue_id + 1) == d) is False


def sample() -> KpmSample:
    return KpmSample(0, 1, 2, 3, 4, 5, 1.0, 2.0, 3.0, 4.0, 5, 6)


@pytest.mark.parametrize(
    "made",
    [
        sample(),
        LabeledSample(sample(), TrafficClass.WEB),
        DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {}),
        LatencyTrace(0, 1, 2, 3, 4, 5),
        Decision(1, 0, TrafficClass.WEB, TrafficClass.WEB, None, LatencyTrace(0, 1, 2, 3, 4, 5)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_are_frozen_and_slotted(made):
    name = dataclasses.fields(made)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(made, name, getattr(made, name))
    with pytest.raises(FrozenInstanceError):
        delattr(made, name)
    with pytest.raises((AttributeError, TypeError)):
        made.extra = 1  # no __dict__ to put it in
    assert not hasattr(made, "__dict__")
    ref = getattr(oracle, type(made).__name__)(*(getattr(made, f.name) for f in dataclasses.fields(made)))
    assert sys.getsizeof(made) < sys.getsizeof(ref) + sys.getsizeof(ref.__dict__)


def test_record_init_sets_fields_by_position_or_name_with_defaults():
    @record
    class Pair:
        a: int
        b: str = "x"

    assert repr(Pair(1)).endswith("Pair(a=1, b='x')")
    assert Pair(b="y", a=2) == Pair(2, "y")
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, "y", 3)


def test_record_refuses_a_default_factory():
    with pytest.raises(TypeError, match="default_factory"):

        @record
        class Factory:
            a: list = dataclasses.field(default_factory=list)


# -- the latency report --


def traces_from(cuts: list[list[int]]) -> list[LatencyTrace]:
    out = []
    for send, *gaps in cuts:
        stamps = [send]
        for gap in gaps:
            stamps.append(stamps[-1] + gap)
        out.append(LatencyTrace(*stamps))
    return out


CUTS = st.lists(st.integers(0, 10**4), min_size=6, max_size=6)
NEAR_BUDGET_CUTS = st.lists(st.integers(0, 3 * 10**5), min_size=6, max_size=6)  # T_d up to 2.1 s
WIDE_CUTS = st.lists(st.integers(0, 2**64), min_size=6, max_size=6)


@settings(max_examples=300, deadline=None)
@example(cuts=[[0, 0, 0, 0, 0, BUDGET_US]])  # T_d on the budget is within it
@example(cuts=[[0, 0, 0, 0, 0, BUDGET_US + 1]])
@example(cuts=[[0, 0, 0, 0, 0, 2**62]])  # T_d would leave int64
@example(cuts=[[2**62 - 1, 0, 0, 0, 0, 0]])
@example(cuts=[[2**70, 1, 2, 3, 4, 5], [0] * 6])
@given(
    cuts=st.lists(CUTS | NEAR_BUDGET_CUTS, min_size=1, max_size=300) | st.lists(WIDE_CUTS, min_size=1, max_size=20),
)
def test_latency_report_equals_the_four_call_report(cuts):
    traces = traces_from(cuts)
    assert latency_report(traces) == oracle.latency_report(traces)


def test_latency_report_of_shared_traces():
    ticks = [virtual_trace(t * 100_000) for t in range(40)]
    shared = [trace for trace in ticks for _ in range(3)]  # one trace object for the three UEs of a tick
    report = latency_report(shared)
    assert report == oracle.latency_report(shared)
    t_d = ticks[0].t_d_us
    assert report.t_d == QuantilePair(t_d, t_d) and report.count == 120
