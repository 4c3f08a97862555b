"""Topic-based pub/sub over TCP: length-prefixed JSON frames, per-delivery delay stats.

Wire format: 4-byte big-endian body length, then the UTF-8 JSON frame body, an
object with the envelope keys "version", "kind", "topic", "t_sent_us" and
"payload". The broker relays the publisher's body bytes as they came, with one
envelope key spliced in before the closing brace:
"bus": {"in_us": <ingress>, "out_us": <egress>}, its microsecond stamps.
decode_frame lifts that key into payload["bus"], so receivers read the stamps
there and derive network and broker delay components per frame. The broker's
key comes last, so it wins over a "bus" key the publisher put in the envelope
or the payload. Broker ingress refuses a body too long to take the stamp.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Mapping

MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_QUEUE_FRAMES = 1024
_RECV_BYTES = 64 * 1024

_TOPIC_RE = re.compile(r"^(kpm|ctrl|event)\.\d+$")
_PATTERN_RE = re.compile(r"^(kpm|ctrl|event)\.(\d+|\*)$")


def default_port() -> int:
    """Broker TCP port: RANGUARD_BUS_PORT env var, else 36421."""
    return int(os.environ.get("RANGUARD_BUS_PORT", "36421"))


def now_us() -> int:
    return time.monotonic_ns() // 1000


class FrameKind(Enum):
    MEASUREMENT = "measurement"
    COMMAND = "command"
    EVENT = "event"
    SUBSCRIBE = "subscribe"
    ACK = "ack"


class FrameDecodeError(ValueError):
    """Structurally invalid frame: not decodable as this protocol."""


class UnknownFrameKind(ValueError):
    """Well-formed envelope carrying a kind this protocol version does not define."""


class BusDisconnected(ConnectionError):
    """The peer went away; polls and publishes can no longer succeed."""


def valid_topic(topic: str) -> bool:
    return bool(_TOPIC_RE.match(topic))


def valid_pattern(pattern: str) -> bool:
    return bool(_PATTERN_RE.match(pattern))


def topic_matches(pattern: str, topic: str) -> bool:
    """Wildcard only on the last segment: kpm.* matches kpm.<any id>."""
    if pattern == topic:
        return True
    if pattern.endswith(".*"):
        prefix = pattern[:-1]
        return topic.startswith(prefix) and topic[len(prefix):].isdigit()
    return False


@dataclass(frozen=True)
class DatabusFrame:
    kind: FrameKind
    topic: str
    t_sent_us: int
    payload: Mapping
    version: int = 1

    def __post_init__(self) -> None:
        if type(self.version) is not int or self.version != 1:
            raise ValueError(f"unsupported frame version {self.version!r}")
        if type(self.t_sent_us) is not int or self.t_sent_us < 0:
            raise ValueError(f"t_sent_us must be a nonnegative integer, got {self.t_sent_us!r}")
        if type(self.payload) is not dict and not isinstance(self.payload, Mapping):
            raise ValueError("payload must be a JSON object")
        if self.kind is FrameKind.SUBSCRIBE:
            if not valid_pattern(self.topic):
                raise ValueError(f"bad subscribe pattern {self.topic!r}")
        elif self.kind is FrameKind.ACK:
            if not self.topic:
                raise ValueError("ack topic must not be empty")
        elif not _TOPIC_RE.match(self.topic):
            raise ValueError(f"bad topic {self.topic!r} (want kpm.<id>, ctrl.<id>, or event.<id>)")


_KINDS = {kind.value: kind for kind in FrameKind}
_ENVELOPE = ("version", "kind", "topic", "t_sent_us", "payload")
_envelope_of = itemgetter(*_ENVELOPE)
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().decode

# the broker's stamp replaces a body's closing brace; a stamp is at most this much longer
_STAMP = b',"bus":{"in_us":%d,"out_us":%d}}'
_STAMP_ROOM = len(_STAMP % (2**64, 2**64)) - 1
_JSON_WHITESPACE = b" \t\n\r"


def encode_frame(frame: DatabusFrame) -> bytes:
    payload = frame.payload
    body = _encode_json(
        {
            "version": frame.version,
            "kind": frame.kind.value,
            "topic": frame.topic,
            "t_sent_us": frame.t_sent_us,
            "payload": payload if type(payload) is dict else dict(payload),
        }
    ).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def decode_frame(body: bytes) -> DatabusFrame:
    """Frame from a wire body (without the length prefix); an envelope "bus" goes into the payload."""
    try:
        doc = _decode_json(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameDecodeError(f"frame body is not JSON: {exc}") from None
    if type(doc) is not dict:
        raise FrameDecodeError("frame body must be a JSON object")
    try:
        version, kind, topic, t_sent_us, payload = _envelope_of(doc)
    except KeyError:
        missing = [key for key in _ENVELOPE if key not in doc]
        raise FrameDecodeError(f"frame missing fields: {sorted(missing)}") from None
    try:
        kind = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, a list or an object
        raise UnknownFrameKind(f"unknown frame kind {kind!r}") from None
    if "bus" in doc and type(payload) is dict:
        payload["bus"] = doc["bus"]
    try:
        return DatabusFrame(kind, topic, t_sent_us, payload, version)
    except (TypeError, ValueError) as exc:
        raise FrameDecodeError(str(exc)) from None


def _stamped(head: bytes, t_in_us: int, t_out_us: int) -> bytes:
    """The wire frame of a delivery: the relayed body head, then the broker's stamp."""
    stamp = _STAMP % (t_in_us, t_out_us)
    return (len(head) + len(stamp)).to_bytes(4, "big") + head + stamp


class _FrameReader:
    """One connection's inbound byte stream, cut into length-prefixed frame bodies.

    Each recv takes whatever has arrived; a frame split across reads waits in
    the buffer, and many frames in one read are handed out one by one.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()
        self._pos = 0  # start of the first byte not yet handed out

    def next_body(self, max_bytes: int) -> bytes:
        """The next frame body; FrameDecodeError when its length is 0 or past max_bytes."""
        buf = self._buf
        while True:
            pos = self._pos
            if len(buf) - pos >= 4:
                length = int.from_bytes(buf[pos : pos + 4], "big")
                if not 0 < length <= max_bytes:
                    raise FrameDecodeError(f"frame length {length} out of range")
                end = pos + 4 + length
                if len(buf) >= end:
                    self._pos = end
                    return bytes(buf[pos + 4 : end])
            if pos:
                del buf[:pos]
                self._pos = 0
            chunk = self._sock.recv(_RECV_BYTES)
            if not chunk:
                raise BusDisconnected("connection closed by peer")
            buf += chunk


@dataclass
class BrokerStats:
    """Point-in-time broker counters; delta_d_us has one entry per delivery."""

    frames_in: int = 0
    frames_out: int = 0
    dropped: int = 0
    delta_d_us: tuple[int, ...] = ()


class _Subscriber:
    """Broker-side connection state: patterns plus a bounded drop-oldest queue."""

    def __init__(self, sock: socket.socket, max_queue: int) -> None:
        self.sock = sock
        self.max_queue = max_queue
        self.patterns: list[str] = []
        self.queue: deque = deque()
        self.cond = threading.Condition()
        self.alive = True
        self.dropped = 0

    def enqueue(self, data: bytes, t_in_us: int | None) -> int:
        """Queue a delivery (a body head and its ingress stamp) or, with t_in_us None, a wire frame."""
        with self.cond:
            if not self.alive:
                return 0
            dropped = 0
            if len(self.queue) >= self.max_queue:
                self.queue.popleft()
                self.dropped += 1
                dropped = 1
            self.queue.append((data, t_in_us))
            self.cond.notify()
            return dropped

    def close(self) -> None:
        with self.cond:
            self.alive = False
            self.cond.notify_all()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class Broker:
    """TCP pub/sub hub. At-most-once, per-publisher FIFO, never blocks publishers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        max_queue: int = DEFAULT_QUEUE_FRAMES,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._host = host
        self._port = default_port() if port is None else port
        self._max_queue = max_queue
        self._listener: socket.socket | None = None
        self._subscribers: list[_Subscriber] = []
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._frames_in = 0
        self._frames_out = 0
        self._dropped = 0
        self._delta_d_us: list[int] = []
        self._threads: list[threading.Thread] = []
        self._running = False

    # -- lifecycle --

    def start(self) -> tuple[str, int]:
        if self._running:
            raise RuntimeError("broker already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._running = True
        t = threading.Thread(target=self._accept_loop, name="bus-accept", daemon=True)
        t.start()
        self._threads.append(t)
        return self.address

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept(); close() alone does not.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            subs = list(self._subscribers)
            self._subscribers.clear()
        for sub in subs:
            sub.close()
        for t in list(self._threads):
            t.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stats(self) -> BrokerStats:
        with self._stats_lock:
            return BrokerStats(
                frames_in=self._frames_in,
                frames_out=self._frames_out,
                dropped=self._dropped,
                delta_d_us=tuple(self._delta_d_us),
            )

    # -- internals --

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sub = _Subscriber(sock, self._max_queue)
            with self._lock:
                self._subscribers.append(sub)
            # forget the threads of connections already closed, so the list tracks open ones
            self._threads[:] = [t for t in self._threads if t.is_alive()]
            for target, name in ((self._reader_loop, "bus-read"), (self._writer_loop, "bus-write")):
                t = threading.Thread(target=target, args=(sub,), name=name, daemon=True)
                t.start()
                self._threads.append(t)

    def _drop_subscriber(self, sub: _Subscriber) -> None:
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)
        sub.close()

    def _reader_loop(self, sub: _Subscriber) -> None:
        reader = _FrameReader(sub.sock)
        while self._running and sub.alive:
            try:
                # a body must leave room for the broker's stamp, or its delivery would be too long
                body = reader.next_body(MAX_FRAME_BYTES - _STAMP_ROOM)
                frame = decode_frame(body)
            except UnknownFrameKind as exc:
                ack = DatabusFrame(
                    FrameKind.ACK, "error", now_us(), {"ok": False, "detail": str(exc)}
                )
                sub.enqueue(encode_frame(ack), None)
                continue
            except (FrameDecodeError, BusDisconnected, OSError):
                # protocol violation or peer gone: this connection is done
                self._drop_subscriber(sub)
                return
            self._handle_frame(sub, frame, body)

    def _handle_frame(self, sub: _Subscriber, frame: DatabusFrame, body: bytes) -> None:
        t_in = now_us()
        if frame.kind is FrameKind.SUBSCRIBE:
            with self._lock:
                if frame.topic not in sub.patterns:
                    sub.patterns.append(frame.topic)
            ack = DatabusFrame(
                FrameKind.ACK, frame.topic, now_us(), {"ok": True, "pattern": frame.topic}
            )
            sub.enqueue(encode_frame(ack), None)
            return
        if frame.kind is FrameKind.ACK:
            return  # clients have no business acking; ignore
        with self._stats_lock:
            self._frames_in += 1
        with self._lock:
            targets = [
                s
                for s in self._subscribers
                if s.alive and any(topic_matches(p, frame.topic) for p in s.patterns)
            ]
        if not targets:
            return
        # the body decoded as a JSON object, so it ends in "}" once trailing whitespace goes
        head = body.rstrip(_JSON_WHITESPACE)[:-1]
        dropped = 0
        for target in targets:
            dropped += target.enqueue(head, t_in)
        if dropped:
            with self._stats_lock:
                self._dropped += dropped

    def _writer_loop(self, sub: _Subscriber) -> None:
        while True:
            with sub.cond:
                while sub.alive and not sub.queue:
                    sub.cond.wait()
                if not sub.alive:
                    return
                data, t_in = sub.queue.popleft()
            if t_in is not None:
                t_out = now_us()
                data = _stamped(data, t_in, t_out)
            try:
                sub.sock.sendall(data)
            except OSError:
                self._drop_subscriber(sub)
                return
            if t_in is not None:
                with self._stats_lock:
                    self._frames_out += 1
                    self._delta_d_us.append(t_out - t_in)


class Subscription:
    """Client-side FIFO of frames whose topics match one subscribed pattern.

    Holds at most DEFAULT_QUEUE_FRAMES frames: a full queue drops its oldest
    frame for a new one and counts it in `dropped`.
    """

    def __init__(self, pattern: str, client: "BusClient") -> None:
        self.pattern = pattern
        self._client = client
        self._queue: deque = deque(maxlen=DEFAULT_QUEUE_FRAMES)
        self._cond = threading.Condition()
        self.dropped = 0  # frames pushed out, oldest first, by newer ones while the queue was full

    def _push(self, frame: DatabusFrame) -> None:
        with self._cond:
            if len(self._queue) == self._queue.maxlen:
                self.dropped += 1
            self._queue.append(frame)
            self._cond.notify()

    def _wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def poll(self, timeout: float | None = None) -> DatabusFrame | None:
        """Next frame in arrival order; None once timeout elapses with nothing."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if not self._client.connected:
                    raise BusDisconnected("bus connection is closed")
                if deadline is None:
                    self._cond.wait()
                else:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        return None
                    self._cond.wait(left)
            return self._queue.popleft()


class BusClient:
    """One TCP connection to the broker; may publish and subscribe concurrently."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._subs_lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._acks: deque = deque()
        self._ack_cond = threading.Condition()
        self.error_acks = 0  # acks that name no pattern (an unknown frame kind): counted, not kept
        self._connected = True
        self._reader = threading.Thread(target=self._reader_loop, name="bus-client-read", daemon=True)
        self._reader.start()

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 5.0) -> "BusClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    @property
    def connected(self) -> bool:
        return self._connected

    def close(self) -> None:
        self._connected = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._ack_cond:
            self._ack_cond.notify_all()
        with self._subs_lock:
            subs = list(self._subs)
        for sub in subs:
            sub._wake()

    def __enter__(self) -> "BusClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _reader_loop(self) -> None:
        reader = _FrameReader(self._sock)
        try:
            while self._connected:
                frame = decode_frame(reader.next_body(MAX_FRAME_BYTES))
                if frame.kind is FrameKind.ACK:
                    if "pattern" not in frame.payload:  # no subscribe would ever claim it
                        self.error_acks += 1
                        continue
                    with self._ack_cond:
                        self._acks.append(frame)
                        self._ack_cond.notify_all()
                    continue
                with self._subs_lock:
                    targets = [s for s in self._subs if topic_matches(s.pattern, frame.topic)]
                for sub in targets:
                    sub._push(frame)
        except (FrameDecodeError, UnknownFrameKind, BusDisconnected, OSError):
            pass
        finally:
            self._connected = False
            with self._ack_cond:
                self._ack_cond.notify_all()
            with self._subs_lock:
                subs = list(self._subs)
            for sub in subs:
                sub._wake()

    def send_frame(self, frame: DatabusFrame) -> None:
        if not self._connected:
            raise BusDisconnected("bus connection is closed")
        data = encode_frame(frame)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            self._connected = False
            raise BusDisconnected(f"send failed: {exc}") from None

    def publish(
        self,
        kind: FrameKind,
        topic: str,
        payload: Mapping,
        t_sent_us: int | None = None,
    ) -> None:
        """Fire-and-forget publish; the frame is validated before it leaves."""
        stamp = now_us() if t_sent_us is None else t_sent_us
        self.send_frame(DatabusFrame(kind, topic, stamp, payload))

    def subscribe(self, pattern: str, timeout: float = 5.0) -> Subscription:
        """Register a pattern; returns once the broker has acknowledged it."""
        if not valid_pattern(pattern):
            raise ValueError(f"bad subscribe pattern {pattern!r}")
        sub = Subscription(pattern, self)
        with self._subs_lock:
            self._subs.append(sub)
        self.send_frame(DatabusFrame(FrameKind.SUBSCRIBE, pattern, now_us(), {}))
        deadline = time.monotonic() + timeout
        with self._ack_cond:
            while True:
                for i, ack in enumerate(self._acks):
                    if ack.payload.get("pattern") == pattern:
                        del self._acks[i]
                        if not ack.payload.get("ok", False):
                            raise ValueError(f"broker rejected pattern {pattern!r}")
                        return sub
                if not self._connected:
                    raise BusDisconnected("bus connection closed during subscribe")
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"no subscribe ack for {pattern!r} within {timeout}s")
                self._ack_cond.wait(left)
