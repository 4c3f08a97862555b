"""Broker wire format, topic routing, ordering, and overflow tests."""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import databus_oracle as oracle
from ranguard import databus
from ranguard.databus import (
    Broker,
    BusClient,
    BusDisconnected,
    DatabusFrame,
    FrameDecodeError,
    FrameKind,
    decode_frame,
    encode_frame,
    topic_matches,
    valid_pattern,
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
    # the refusal names the kind, and the kind is checked before the version
    for version in (1, 2):
        body = b'{"version":%d,"kind":"hello","topic":"kpm.1","t_sent_us":0,"payload":{}}' % version
        with pytest.raises(FrameDecodeError, match="unknown frame kind 'hello'"):
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
    valid_topic = oracle.valid_topic
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
    assert all(f.payload["bus"]["out_us"] >= f.payload["bus"]["in_us"] for f in got)  # delta_d >= 0


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


def test_an_earlier_patterns_frames_come_out_first_and_in_order(broker):
    with client(broker) as pub, client(broker) as recv:
        recv.subscribe("kpm.1")
        for i in range(50):
            pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": i})
        deadline = time.monotonic() + 5.0
        while broker.stats().frames_out < 50 and time.monotonic() < deadline:
            time.sleep(0.005)
        # the broker relayed the kpm.1 frames before it took event.1, so they reach recv before the ack
        both = recv.subscribe("event.1")
        for i in range(50, 60):
            pub.publish(FrameKind.EVENT, "event.1", {"n": i})
        got = []
        while (frame := both.poll(timeout=0.5)) is not None:
            got.append(frame)
    assert [f.payload["n"] for f in got] == list(range(60))
    assert [f.topic for f in got] == ["kpm.1"] * 50 + ["event.1"] * 10
    assert both is recv  # one queue for every pattern of the connection


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


def test_threads_publish_on_the_client_that_one_thread_polls(broker):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible, mid-send included
    try:
        with client(broker) as c:
            sub = c.subscribe("kpm.4")

            def blast(tag: int) -> None:
                for i in range(200):
                    c.publish(FrameKind.MEASUREMENT, "kpm.4", {"src": tag, "n": i})

            threads = [threading.Thread(target=blast, args=(tag,)) for tag in range(4)]
            for t in threads:
                t.start()
            got = {tag: [] for tag in range(4)}
            for _ in range(800):
                frame = sub.poll(timeout=5.0)
                got[frame.payload["src"]].append(frame.payload["n"])
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == {tag: list(range(200)) for tag in range(4)}  # whole frames, each thread's in order


def test_poll_timeout_returns_none(broker):
    with client(broker) as recv:
        sub = recv.subscribe("kpm.8")
        t0 = time.monotonic()
        assert sub.poll(timeout=0.15) is None
        assert time.monotonic() - t0 >= 0.13


def test_poll_takes_a_timeout_longer_than_one_wait_of_the_socket(broker):
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.8")
        pub.publish(FrameKind.MEASUREMENT, "kpm.8", {"n": 1})
        assert sub.poll(timeout=1e7).payload["n"] == 1  # 1e10 ms: past the longest single wait


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


def test_queue_overflow_drops_oldest(monkeypatch):
    monkeypatch.setattr(databus, "QUEUE_FRAMES", 16)
    b = Broker(port=0)
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
    unknown_kind = b'{"version":1,"kind":"mystery","topic":"kpm.1","t_sent_us":0,"payload":{}}'
    for body in (b"not json", unknown_kind, client_ack("kpm.1")[4:]):
        raw = socket.create_connection((host, port))
        try:
            raw.sendall(len(body).to_bytes(4, "big") + body)
            raw.settimeout(2.0)
            assert raw.recv(1024) == b"", body  # broker hung up, with no answer
        finally:
            raw.close()


def test_subscribe_waits_for_the_ack_of_its_own_pattern(monkeypatch):
    monkeypatch.setattr(databus, "WAIT_S", 0.2)
    near, far = socket.socketpair()  # far plays the broker
    with BusClient(near) as c, far:
        other_ack = DatabusFrame(FrameKind.ACK, "kpm.2", 0, {"ok": True, "pattern": "kpm.2"})
        delivery = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {"n": 1})
        far.sendall(encode_frame(other_ack) + encode_frame(delivery))
        with pytest.raises(TimeoutError):
            c.subscribe("kpm.1")
        assert c.poll(timeout=0) == delivery  # kept for the poll; the other ack is dropped
        assert c.poll(timeout=0) is None


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
        got = []
        for i in range(500):
            pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": i})
            got.append(sub.poll(timeout=2.0))
    deltas = sorted(f.payload["bus"]["out_us"] - f.payload["bus"]["in_us"] for f in got)
    median = deltas[len(deltas) // 2]
    assert median < 1000  # microseconds


def bus_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("bus-")]


def test_connection_churn_keeps_the_thread_list_small(broker):
    before = set(threading.enumerate())
    for _ in range(30):
        with client(broker) as c:
            c.subscribe("kpm.1")  # acknowledged: the broker has accepted this connection
    with client(broker) as a, client(broker) as b:
        a.subscribe("kpm.1")
        b.subscribe("kpm.*")
        # the broker's one loop thread, whatever the number of connections, and none a client's
        assert set(threading.enumerate()) - before == set()
        assert bus_threads() == [broker._thread]
        deadline = time.monotonic() + 5.0
        while len(broker._conns) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)  # the loop sees the last closes
        assert len(broker._conns) == 2  # only the live connections, not one per connection ever made
        assert [len(conn.patterns) for conn in broker._subscribers] == [1, 1]
    broker.stop()
    assert bus_threads() == []


# --- exact envelope types, the relay and the buffered reader --------------------------

def envelope(**fields) -> bytes:
    doc = {"version": 1, "kind": "measurement", "topic": "kpm.1", "t_sent_us": 0, "payload": {}}
    doc.update(fields)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("name", ["version", "t_sent_us"])
@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_envelope_numbers_must_be_exact_ints(name, value):
    with pytest.raises(FrameDecodeError, match=name):
        decode_frame(envelope(**{name: value}))
    if name == "t_sent_us":  # the version is checked on the wire only: a frame holds none
        with pytest.raises(ValueError):
            DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", value, {})


def test_decode_lifts_the_envelope_bus_into_the_payload():
    frame = decode_frame(envelope(payload={"n": 1, "bus": "mine"}, bus={"in_us": 3, "out_us": 4}))
    assert frame.payload == {"n": 1, "bus": {"in_us": 3, "out_us": 4}}
    assert decode_frame(envelope(payload={"n": 1})).payload == {"n": 1}


def test_decode_refuses_nesting_past_the_recursion_limit():
    with pytest.raises(FrameDecodeError, match="JSON"):
        decode_frame(b"[" * 100_000)
    with pytest.raises(FrameDecodeError, match="JSON"):
        decode_frame(envelope()[:-1] + b',"deep":' + b"[" * 100_000)


def test_a_body_without_room_for_the_stamp_is_refused(broker, monkeypatch):
    monkeypatch.setattr(databus, "MAX_FRAME_BYTES", 512)
    limit = 512 - databus._STAMP_ROOM

    def body_of(size: int) -> bytes:
        body = encode_frame(DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {"pad": ""}))[4:]
        return body.replace(b'"pad":""', b'"pad":"' + b"x" * (size - len(body)) + b'"')

    host, port = broker.address
    with client(broker) as recv, socket.create_connection((host, port)) as raw:
        sub = recv.subscribe("kpm.1")
        fits = body_of(limit)
        assert len(fits) == limit
        raw.sendall(len(fits).to_bytes(4, "big") + fits)
        frame = sub.poll(timeout=2.0)  # the longest accepted body is still deliverable
        assert frame.payload["pad"] == "x" * (limit - len(body_of(0)))
        too_long = body_of(limit + 1)
        raw.sendall(len(too_long).to_bytes(4, "big") + too_long)
        raw.settimeout(2.0)
        assert raw.recv(1024) == b""  # refused like an oversize length: the broker hung up
        assert recv.poll(timeout=0.05) is None  # a lost connection would raise BusDisconnected
    assert broker.stats().frames_in == 1


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
delivery_kinds = st.sampled_from([FrameKind.MEASUREMENT, FrameKind.COMMAND, FrameKind.EVENT])
any_topic = st.builds("{}.{}".format, st.sampled_from(["kpm", "ctrl", "event"]), st.integers(0, 10**6))
relay_payloads = st.dictionaries(st.one_of(st.just("bus"), st.text(max_size=6)), json_values, max_size=5)


@st.composite
def publisher_bodies(draw) -> bytes:
    """A valid delivery body in any key order and layout, perhaps with its own "bus" keys."""
    doc = {
        "version": 1,
        "kind": draw(delivery_kinds).value,
        "topic": draw(any_topic),
        "t_sent_us": draw(st.integers(0, 2**63 - 1)),
        "payload": draw(relay_payloads),
    }
    if draw(st.booleans()):
        doc["bus"] = draw(json_values)
    keys = draw(st.permutations(list(doc)))
    text = json.dumps(
        {key: doc[key] for key in keys},
        indent=draw(st.none() | st.integers(0, 2)),
        ensure_ascii=draw(st.booleans()),
    )
    try:
        body = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, not sent raw by any UTF-8 publisher
        assume(False)
    return body + draw(st.text(alphabet=" \t\n\r", max_size=4)).encode()


def test_relayed_frames_decode_as_the_oracle_relay(broker):
    host, port = broker.address
    with client(broker) as recv, socket.create_connection((host, port)) as raw:
        for prefix in ("kpm", "ctrl", "event"):
            recv.subscribe(f"{prefix}.*")

        @given(body=publisher_bodies())
        @settings(max_examples=120, deadline=None)
        def relays_like_the_oracle(body):
            raw.sendall(len(body).to_bytes(4, "big") + body)
            frame = recv.poll(timeout=2.0)
            assert frame is not None
            bus = frame.payload["bus"]
            assert type(bus["in_us"]) is int and type(bus["out_us"]) is int
            assert bus["in_us"] <= bus["out_us"]
            assert bus["dropped"] == 0
            expected = oracle.decode(oracle.relay(body, bus["in_us"], bus["out_us"], 0)[4:])
            assert (frame.kind, frame.topic, frame.t_sent_us, frame.payload, 1) == expected

        relays_like_the_oracle()
        assert recv.poll(timeout=0.05) is None  # a lost connection would raise BusDisconnected


@st.composite
def any_bodies(draw) -> bytes:
    """Bodies of every sort: bytes, JSON that is not an envelope, and envelopes with a few fields spoiled."""
    shape = draw(st.sampled_from(["bytes", "json", "envelope"]))
    if shape == "bytes":
        return draw(st.binary(max_size=60))
    if shape == "json":
        return json.dumps(draw(json_values)).encode()
    good = {
        "version": st.just(1),
        "kind": delivery_kinds.map(lambda kind: kind.value),
        "topic": any_topic,
        "t_sent_us": st.integers(0, 2**64),
        "payload": relay_payloads,
        "bus": json_values,
    }
    bad = {
        "version": st.sampled_from([0, 2, True, False, 1.0, "1", None, [1]]),
        "kind": st.sampled_from(["subscribe", "ack", "hello", "", 1, None, [], {}, ["ack"]]),
        "topic": st.sampled_from(["kpm.*", "event.*", "kpm.x", "", "x", 1, None, ["kpm.1"]]),
        "t_sent_us": st.sampled_from([True, False, 1.0, "1", None, -1]),
        "payload": json_values,
        "bus": json_values,
    }
    spoiled = draw(st.sets(st.sampled_from(list(good)), max_size=2))
    missing = draw(st.sets(st.sampled_from(list(good)), max_size=1)) if draw(st.integers(0, 5)) == 0 else set()
    doc = {}
    for key in draw(st.permutations(list(good))):
        if key not in missing:
            doc[key] = draw((bad if key in spoiled else good)[key])
    return json.dumps(doc).encode()


@given(body=any_bodies())
@example(body=b'{"version":2,"kind":"hello","topic":"kpm.1","t_sent_us":0,"payload":{}}')  # the kind is checked first
@settings(max_examples=600, deadline=None)
def test_decode_agrees_with_the_oracle(body):
    def refusal(exc: FrameDecodeError) -> str:
        return str(exc) if str(exc).startswith("unknown frame kind") else "refused"

    try:
        expected = oracle.decode(body)
    except FrameDecodeError as exc:
        expected = refusal(exc)
    try:
        frame = decode_frame(body)
        got = (frame.kind, frame.topic, frame.t_sent_us, frame.payload)
    except FrameDecodeError as exc:
        got = refusal(exc)
    if isinstance(expected, tuple) and got == "refused":
        # the one refusal the oracle did not make: a version or send stamp that is not exactly an int
        assert type(expected[4]) is not int or type(expected[2]) is not int
        return
    if isinstance(expected, tuple):
        doc = json.loads(body)
        if "bus" in doc:
            expected[3]["bus"] = doc["bus"]
        assert type(got[2]) is int and type(expected[4]) is int  # the wire's version was exactly 1
        expected = expected[:4]
    assert got == expected


frames = st.builds(DatabusFrame, delivery_kinds, any_topic, st.integers(0, 2**63 - 1), relay_payloads)


@given(frame=frames)
@settings(max_examples=200, deadline=None)
def test_encode_writes_the_oracle_bytes(frame):
    fields = (frame.kind, frame.topic, frame.t_sent_us, frame.payload, 1)
    assert encode_frame(frame) == oracle.encode(fields)


class ChunkedSocket:
    """A socket whose recv hands the stream out in the given chunk sizes, in turn."""

    def __init__(self, stream: bytes, sizes: list[int]) -> None:
        self._stream = stream
        self._sizes = sizes
        self.calls = 0

    def recv(self, n: int) -> bytes:
        size = min(n, self._sizes[self.calls % len(self._sizes)])
        self.calls += 1
        chunk, self._stream = self._stream[:size], self._stream[size:]
        return chunk


def next_body(reader, max_bytes: int) -> bytes:
    """The next body, reading as often as it takes: how a blocking reader uses cut and fill."""
    while (body := reader.cut(max_bytes)) is None:
        reader.fill()
    return body


@given(
    sent=st.lists(frames, max_size=12),
    sizes=st.lists(st.integers(1, 3) | st.integers(4, 400) | st.just(1 << 16), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_buffered_reader_yields_the_frames_whatever_the_chunks(sent, sizes):
    stream = b"".join(encode_frame(frame) for frame in sent)
    sock = ChunkedSocket(stream, sizes)
    reader = databus._FrameReader(sock)
    got = [decode_frame(next_body(reader, databus.MAX_FRAME_BYTES)) for _ in sent]
    assert got == sent
    assert reader.cut(databus.MAX_FRAME_BYTES) is None
    with pytest.raises(BusDisconnected):
        next_body(reader, databus.MAX_FRAME_BYTES)


def test_buffered_reader_takes_many_frames_from_one_read():
    frame = DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {"n": 1})
    sock = ChunkedSocket(encode_frame(frame) * 50, [1 << 16])
    reader = databus._FrameReader(sock)
    assert [decode_frame(next_body(reader, 1000)) for _ in range(50)] == [frame] * 50
    assert sock.calls == 1  # not two reads a frame, one for the header and one for the body


def test_buffered_reader_refuses_a_bad_length_after_the_good_frames():
    good = encode_frame(DatabusFrame(FrameKind.MEASUREMENT, "kpm.1", 0, {}))
    for bad in (b"\x00\x00\x00\x00", (101).to_bytes(4, "big")):
        reader = databus._FrameReader(ChunkedSocket(good * 2 + bad + b"x" * 200, [1 << 16]))
        assert next_body(reader, 100) == next_body(reader, 100) == good[4:]
        with pytest.raises(FrameDecodeError, match="length"):
            next_body(reader, 100)


def raw_subscriber(broker, pattern: str, rcvbuf: int) -> tuple[socket.socket, databus._FrameReader]:
    """A subscriber socket with a small receive buffer, past its subscribe ack."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(5.0)
    sock.connect(broker.address)
    sock.sendall(encode_frame(DatabusFrame(FrameKind.SUBSCRIBE, pattern, 0, {})))
    reader = databus._FrameReader(sock)
    ack = decode_frame(next_body(reader, databus.MAX_FRAME_BYTES))
    assert ack.kind is FrameKind.ACK and ack.payload == {"ok": True, "pattern": pattern}
    return sock, reader


def test_a_stalled_subscriber_loses_its_oldest_frames_while_another_keeps_up(monkeypatch):
    monkeypatch.setattr(databus, "QUEUE_FRAMES", 8)
    with Broker(port=0) as b:
        stalled, reader = raw_subscriber(b, "kpm.1", 4096)
        with stalled, client(b) as pub, client(b) as live:
            sub = live.subscribe("kpm.1")
            blob = "x" * 1024
            got, sent = [], 0
            while b.stats().dropped == 0 and sent < 20_000:
                pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": sent, "pad": blob})
                sent += 1
                got.append(sub.poll(timeout=2.0).payload["n"])
            assert b.stats().dropped > 0  # the stalled subscriber's queue overflowed
            assert got == list(range(sent))  # and the live one lost nothing, in order
            assert live.dropped == 0
            stalled_got = []
            while not stalled_got or stalled_got[-1]["n"] != sent - 1:
                stalled_got.append(decode_frame(next_body(reader, databus.MAX_FRAME_BYTES)).payload)
            numbers = [payload["n"] for payload in stalled_got]
            assert numbers == sorted(set(numbers))
            assert len(numbers) + stalled_got[-1]["bus"]["dropped"] == sent
            assert stalled_got[-1]["bus"]["dropped"] == b.stats().dropped


def test_frames_received_plus_the_reported_drops_equal_the_frames_published(monkeypatch):
    monkeypatch.setattr(databus, "QUEUE_FRAMES", 8)
    with Broker(port=0) as b:
        with client(b) as pub, client(b) as recv:
            recv.subscribe("kpm.1")
            blob = "x" * 4096
            sent = 0
            while b.stats().dropped == 0 and sent < 20_000:  # a subscriber that does not poll yet
                for _ in range(50):
                    pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": sent, "pad": blob})
                    sent += 1
            got = []
            while (frame := recv.poll(timeout=1.0)) is not None:
                got.append(frame.payload["n"])
            assert recv.dropped > 0
            assert recv.dropped == b.stats().dropped
            assert len(got) + recv.dropped == sent
            assert got == sorted(got) and got[-1] == sent - 1  # the newest is never dropped


def client_ack(topic: str) -> bytes:
    return encode_frame(DatabusFrame(FrameKind.ACK, topic, 0, {"ok": True, "pattern": topic}))


def unknown_kind(kind: str) -> bytes:
    body = json.dumps({"version": 1, "kind": kind, "topic": "kpm.1", "t_sent_us": 0, "payload": {}}).encode()
    return len(body).to_bytes(4, "big") + body


garbage = st.one_of(
    st.tuples(st.just("hang-up"), st.sampled_from([0, 2**31, 2**32 - 1]).map(lambda n: n.to_bytes(4, "big"))),
    st.tuples(
        st.just("hang-up"),
        (st.binary(min_size=1, max_size=40) | st.builds(json.dumps, json_values).map(str.encode)).map(
            lambda body: len(body).to_bytes(4, "big") + body
        ),
    ),
    st.tuples(st.just("hang-up"), st.sampled_from(["hello", "", "Measurement", "acks"]).map(unknown_kind)),
    st.tuples(st.just("hang-up"), st.sampled_from(["kpm.1", "ctrl.2", "x"]).map(client_ack)),
    st.tuples(
        st.just("half"),
        frames.map(encode_frame).flatmap(lambda wire: st.integers(1, len(wire) - 1).map(lambda k: wire[:k])),
    ),
)


def test_garbage_on_one_connection_never_stops_relaying_on_another(broker):
    host, port = broker.address
    numbers = itertools.count()
    with client(broker) as pub, client(broker) as recv:
        sub = recv.subscribe("kpm.1")

        @given(case=garbage)
        @settings(max_examples=80, deadline=None)
        def relays_on(case):
            reaction, data = case
            with socket.create_connection((host, port)) as raw:
                raw.sendall(data)
                if reaction == "half":
                    raw.shutdown(socket.SHUT_WR)  # half a frame, then the close
                raw.settimeout(2.0)
                try:
                    answer = raw.recv(1 << 16)
                except ConnectionResetError:
                    answer = b""
                assert answer == b""  # the broker hangs up on each, an unknown kind or an ack too, with no answer
                n = next(numbers)
                pub.publish(FrameKind.MEASUREMENT, "kpm.1", {"n": n})
                frame = sub.poll(timeout=2.0)
                assert frame is not None and frame.payload["n"] == n

        relays_on()
    assert broker._thread.is_alive()
