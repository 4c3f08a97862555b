"""Broker wire format, topic routing, ordering, and overflow tests."""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.databus import (
    Broker,
    BusClient,
    BusDisconnected,
    DatabusFrame,
    FrameDecodeError,
    FrameKind,
    UnknownFrameKind,
    decode_frame,
    encode_frame,
    topic_matches,
    valid_pattern,
    valid_topic,
)


@pytest.fixture()
def broker():
    b = Broker(port=0)  # ephemeral port keeps tests isolated
    b.start()
    yield b
    b.stop()


def client(broker) -> BusClient:
    host, port = broker.address
    return BusClient.connect(host, port)


# --- wire format -----------------------------------------------------------------

def test_encode_prefixes_big_endian_length():
    frame = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 5, {"a": 1})
    data = encode_frame(frame)
    assert int.from_bytes(data[:4], "big") == len(data) - 4
    assert decode_frame(data[4:]) == frame


topics = st.sampled_from(["kpm.1", "kpm.42", "ctrl.7", "event.0"])
payloads = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda s: s != "bus"),
    st.one_of(st.integers(min_value=-(2**40), max_value=2**40), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20)),
    max_size=5,
)


@given(
    kind=st.sampled_from([FrameKind.MEASUREMENT, FrameKind.COMMAND, FrameKind.EVENT]),
    topic=topics,
    t=st.integers(min_value=0, max_value=2**63 - 1),
    payload=payloads,
)
@settings(max_examples=80, deadline=None)
def test_wire_round_trip(kind, topic, t, payload):
    frame = DatabusFrame(kind, topic, t, payload)
    assert decode_frame(encode_frame(frame)[4:]) == frame


def test_decode_rejects_garbage():
    with pytest.raises(FrameDecodeError, match="JSON"):
        decode_frame(b"\xff\x00garbage")
    with pytest.raises(FrameDecodeError, match="object"):
        decode_frame(b'[1,2]')
    with pytest.raises(FrameDecodeError, match="missing"):
        decode_frame(b'{"version":1}')


def test_decode_unknown_kind_is_distinct():
    body = b'{"version":1,"kind":"hello","topic":"kpm.1","t_sent_us":0,"payload":{}}'
    with pytest.raises(UnknownFrameKind):
        decode_frame(body)


def test_decode_rejects_wrong_version():
    body = b'{"version":2,"kind":"measurement","topic":"kpm.1","t_sent_us":0,"payload":{}}'
    with pytest.raises(FrameDecodeError, match="version"):
        decode_frame(body)


def test_frame_validates_topic_grammar():
    with pytest.raises(ValueError, match="topic"):
        DatabusFrame(FrameKind.MEASUREMENT, "kpm.x", 0, {})
    with pytest.raises(ValueError, match="topic"):
        DatabusFrame(FrameKind.COMMAND, "other.1", 0, {})
    with pytest.raises(ValueError, match="pattern"):
        DatabusFrame(FrameKind.SUBSCRIBE, "kpm.1.2", 0, {})
    DatabusFrame(FrameKind.SUBSCRIBE, "kpm.*", 0, {})  # wildcard fine for subscribe


def test_topic_and_pattern_grammar():
    assert valid_topic("kpm.12") and valid_topic("ctrl.0") and valid_topic("event.3")
    assert not valid_topic("kpm.*") and not valid_topic("kpm.") and not valid_topic("bad.1")
    assert valid_pattern("kpm.*") and valid_pattern("event.12")
    assert not valid_pattern("*.1") and not valid_pattern("kpm.1.*")


def test_topic_matching_wildcard_last_segment_only():
    assert topic_matches("kpm.*", "kpm.7")
    assert topic_matches("kpm.3", "kpm.3")
    assert not topic_matches("kpm.*", "ctrl.7")
    assert not topic_matches("kpm.3", "kpm.30")
    assert not topic_matches("kpm.*", "kpm.x")


# --- pub/sub behaviour --------------------------------------------------------------

def test_publish_with_zero_subscribers_counts_in(broker):
    with client(broker) as pub:
        pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": 1})
        time.sleep(0.05)
    stats = broker.stats()
    assert stats.frames_in == 1
    assert stats.frames_out == 0


def test_thousand_frames_in_order(broker):
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.1")
        for i in range(1000):
            pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": i})
        got = [sub.poll(timeout=2.0) for _ in range(1000)]
    assert all(f is not None for f in got)
    assert [f.payload["n"] for f in got] == list(range(1000))
    stats = broker.stats()
    assert stats.frames_in == 1000
    assert stats.frames_out == 1000
    assert len(stats.delta_d_us) == stats.frames_out  # one delay record per delivery
    assert all(d >= 0 for d in stats.delta_d_us)


def test_wildcard_filters_topics(broker):
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.*")
        pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"want": True})
        pub.publish(FrameKind.COMMAND, "ctrl.1", {"want": False})
        pub.publish(FrameKind.MEASUREMENT, "kpm.2", {"want": True})
        first = sub.poll(timeout=2.0)
        second = sub.poll(timeout=2.0)
        third = sub.poll(timeout=0.2)
    assert first.topic == "kpm.1" and second.topic == "kpm.2"
    assert third is None  # ctrl frame never arrives here


def test_fan_out_to_two_subscribers(broker):
    with client(broker) as pub, client(broker) as r1, client(broker) as r2:
        s1 = r1.subscribe("event.5")
        s2 = r2.subscribe("event.5")
        for i in range(20):
            pub.publish(FrameKind.EVENT, "event.5", {"n": i})
        got1 = [s1.poll(timeout=2.0).payload["n"] for _ in range(20)]
        got2 = [s2.poll(timeout=2.0).payload["n"] for _ in range(20)]
    assert got1 == list(range(20))
    assert got2 == list(range(20))
    assert broker.stats().frames_out == 40


def test_no_duplication_with_overlapping_patterns(broker):
    with client(broker) as pub, client(broker) as recv:
        recv.subscribe("kpm.*")
        specific = recv.subscribe("kpm.9")
        pub.publish(FrameKind.MEASUREMENT, "kpm.9", {"n": 0})
        time.sleep(0.1)
    # one wire delivery even though two patterns matched on this connection
    assert broker.stats().frames_out == 1
    assert specific is not None


def test_per_publisher_fifo_with_interleaving(broker):
    with client(broker) as pa, client(broker) as pb, client(broker) as recv:
        sub = recv.subscribe("kpm.3")
        stop = threading.Event()

        def blast(cl, tag):
            for i in range(300):
                cl.publish(FrameKind.MEASUREMENT, "kpm.3", {"src": tag, "n": i})

        ta = threading.Thread(target=blast, args=(pa, "a"))
        tb = threading.Thread(target=blast, args=(pb, "b"))
        ta.start(); tb.start(); ta.join(); tb.join()
        frames = [sub.poll(timeout=2.0) for _ in range(600)]
        stop.set()
    seq = {"a": [], "b": []}
    for f in frames:
        seq[f.payload["src"]].append(f.payload["n"])
    assert seq["a"] == list(range(300))
    assert seq["b"] == list(range(300))


def test_poll_timeout_returns_none(broker):
    with client(broker) as recv:
        sub = recv.subscribe("kpm.8")
        t0 = time.monotonic()
        assert sub.poll(timeout=0.15) is None
        assert time.monotonic() - t0 >= 0.13


def test_poll_after_close_raises(broker):
    recv = client(broker)
    sub = recv.subscribe("kpm.8")
    recv.close()
    with pytest.raises(BusDisconnected):
        sub.poll(timeout=1.0)


def test_bus_stamps_are_attached_and_ordered(broker):
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.2")
        pub.publish(FrameKind.MEASUREMENT, "kpm.2", {"v": 1})
        frame = sub.poll(timeout=2.0)
    bus = frame.payload["bus"]
    assert frame.t_sent_us <= bus["in_us"] <= bus["out_us"]


def test_queue_overflow_drops_oldest():
    b = Broker(port=0, max_queue=16)
    b.start()
    try:
        host, port = b.address
        with BusClient.connect(host, port) as pub, BusClient.connect(host, port) as recv:
            sub = recv.subscribe("kpm.1")
            # jam the subscriber's TCP pipe by not polling and hammering frames
            blob = "x" * 4096
            for i in range(1500):
                pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": i, "pad": blob})
            deadline = time.monotonic() + 5.0
            while b.stats().dropped == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = b.stats()
            assert stats.dropped > 0
            # drain: delivered frames stay in order even after drops
            got = []
            while True:
                f = sub.poll(timeout=0.25)
                if f is None:
                    break
                got.append(f.payload["n"])
            assert got == sorted(got)
            assert len(got) < 1500
    finally:
        b.stop()


def test_malformed_frame_closes_connection(broker):
    host, port = broker.address
    raw = socket.create_connection((host, port))
    try:
        raw.sendall(len(b"not json").to_bytes(4, "big") + b"not json")
        raw.settimeout(2.0)
        assert raw.recv(1024) == b""  # broker hung up
    finally:
        raw.close()


def test_unknown_kind_gets_error_ack(broker):
    host, port = broker.address
    raw = socket.create_connection((host, port))
    try:
        body = b'{"version":1,"kind":"mystery","topic":"kpm.1","t_sent_us":0,"payload":{}}'
        raw.sendall(len(body).to_bytes(4, "big") + body)
        raw.settimeout(2.0)
        header = raw.recv(4)
        length = int.from_bytes(header, "big")
        buf = b""
        while len(buf) < length:
            buf += raw.recv(length - len(buf))
        ack = decode_frame(buf)
        assert ack.kind is FrameKind.ACK
        assert ack.payload["ok"] is False
        # connection survives: a valid publish still works
        raw.sendall(encode_frame(DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {})))
        time.sleep(0.05)
        assert broker.stats().frames_in == 1
    finally:
        raw.close()


def test_subscribe_rejects_bad_pattern(broker):
    with client(broker) as recv:
        with pytest.raises(ValueError, match="pattern"):
            recv.subscribe("kpm.1.2")


def test_publish_after_close_raises(broker):
    pub = client(broker)
    pub.close()
    with pytest.raises(BusDisconnected):
        pub.publish(FrameKind.MEASUREMENT, "kpm.1", {})


def test_loopback_delay_median_under_1ms(broker):
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.1")
        for i in range(500):
            pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": i})
            sub.poll(timeout=2.0)
    deltas = sorted(broker.stats().delta_d_us)
    median = deltas[len(deltas) // 2]
    assert median < 1000  # microseconds


def test_connection_churn_keeps_the_thread_list_small(broker):
    for _ in range(30):
        with client(broker) as c:
            c.subscribe("kpm.1")  # acknowledged: the broker has accepted this connection
    deadline = time.monotonic() + 5.0
    while sum(t.is_alive() for t in broker._threads) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)  # the closed connections' reader and writer threads exit
    with client(broker) as c:
        c.subscribe("kpm.1")
        # the accept thread and this connection's reader and writer, not 2 per connection ever made
        assert len(broker._threads) <= 3
