"""Topic-based pub/sub over TCP: length-prefixed JSON frames, per-delivery delay stats.

Wire format: 4-byte big-endian body length, then the UTF-8 JSON frame body, an
object with the envelope keys "version" (always 1), "kind", "topic", "t_sent_us"
and "payload". The broker relays the publisher's body bytes as they came, with one
envelope key spliced in before the closing brace:
"bus": {"in_us": <ingress>, "out_us": <egress>, "dropped": <n>}, its microsecond
stamps and the number of frames it has dropped for this subscriber so far.
decode_frame lifts that key into payload["bus"], so receivers read the stamps
there and derive network and broker delay components per frame. The broker's
key comes last, so it wins over a "bus" key the publisher put in the envelope
or the payload. Broker ingress refuses a body too long to take the stamp.

The broker is one event-loop thread over non-blocking sockets. It decodes each
frame as it is read and writes it at once to every matching subscriber. A frame
it cannot decode, of any sort (a bad length, not JSON, an unknown kind or
version, a bad topic), closes the connection that sent it, and so does an ack,
which only the broker sends. Only a subscriber whose socket takes no more gets
a queue; when that queue is full its oldest delivery goes, counted, so a
publisher never waits; that is the one place a frame is lost. The client
starts no thread and holds one FIFO for all its patterns: a poll reads and
decodes in the caller's thread, one frame at a time, so a frame is handed on
while the frames behind it are still bytes.
"""

from __future__ import annotations

import json
import re
import select
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .records import record

MAX_FRAME_BYTES = 16 * 1024 * 1024
QUEUE_FRAMES = 1024  # deliveries a subscriber's queue holds before its oldest goes
WAIT_S = 5.0  # the longest a client waits for the broker: to connect, or for a subscribe ack
_RECV_BYTES = 64 * 1024
_POLL_MAX_MS = 2**31 - 1  # the longest wait select.poll takes

_TOPIC_RE = re.compile(r"^(kpm|ctrl|event)\.\d+$")
_PATTERN_RE = re.compile(r"^(kpm|ctrl|event)\.(\d+|\*)$")


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


class BusDisconnected(ConnectionError):
    """The peer went away; polls and publishes can no longer succeed."""


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


@record
class DatabusFrame:
    kind: FrameKind
    topic: str
    t_sent_us: int
    payload: Mapping

    def __post_init__(self) -> None:
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
_STAMP = b',"bus":{"in_us":%d,"out_us":%d,"dropped":%d}}'
_STAMP_ROOM = len(_STAMP % (2**64, 2**64, 2**64)) - 1
_JSON_WHITESPACE = b" \t\n\r"


def encode_frame(frame: DatabusFrame) -> bytes:
    payload = frame.payload
    body = _encode_json(
        {
            "version": 1,
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
        raise FrameDecodeError(f"unknown frame kind {kind!r}") from None
    if type(version) is not int or version != 1:
        raise FrameDecodeError(f"unsupported frame version {version!r}")
    if "bus" in doc and type(payload) is dict:
        payload["bus"] = doc["bus"]
    try:
        return DatabusFrame(kind, topic, t_sent_us, payload)
    except (TypeError, ValueError) as exc:
        raise FrameDecodeError(str(exc)) from None


class _FrameReader:
    """One connection's inbound byte stream, cut into length-prefixed frame bodies.

    fill appends whatever one recv returns; cut hands out one complete body at
    a time, so the frames behind it stay bytes until they are asked for.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()
        self._pos = 0  # start of the first byte not yet handed out

    def cut(self, max_bytes: int) -> bytes | None:
        """The next body, None until all of it is here; FrameDecodeError for a length of 0 or past max_bytes."""
        buf, pos = self._buf, self._pos
        if len(buf) - pos >= 4:
            length = int.from_bytes(buf[pos : pos + 4], "big")
            if not 0 < length <= max_bytes:
                raise FrameDecodeError(f"frame length {length} out of range")
            end = pos + 4 + length
            if len(buf) >= end:
                self._pos = end
                return bytes(buf[pos + 4 : end])
        return None

    def fill(self) -> None:
        """One recv onto the buffer; BusDisconnected once the peer has closed."""
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        chunk = self._sock.recv(_RECV_BYTES)
        if not chunk:
            raise BusDisconnected("connection closed by peer")
        self._buf += chunk


@dataclass
class BrokerStats:
    """Point-in-time broker counters; each delivery carries its own delta_d in its bus stamp."""

    frames_in: int = 0
    frames_out: int = 0
    dropped: int = 0


class _Conn:
    """Broker side of one connection: its reader, its patterns, and what its socket has not taken yet."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = _FrameReader(sock)
        self.patterns: list[str] = []
        self.pending = b""  # the tail of a stamped delivery the socket took only part of
        self.queue: deque = deque()  # (body head, ingress stamp) or, for an ack, (wire frame, None)
        self.dropped = 0  # deliveries its full queue pushed out; each stamp carries the count so far
        self.closed = False


class Broker:
    """TCP pub/sub hub on one event-loop thread. At-most-once, per-publisher FIFO, never blocks publishers."""

    def __init__(self, host: str = "127.0.0.1", *, port: int) -> None:
        """A broker to bind host:port when it starts; port 0 takes an ephemeral one."""
        self._host = host
        self._port = port
        self._conns: set[_Conn] = set()
        self._subscribers: tuple[_Conn, ...] = ()  # the open connections with at least one pattern
        self._frames_in = 0
        self._frames_out = 0
        self._dropped = 0
        self._thread: threading.Thread | None = None
        self._running = False

    # -- lifecycle --

    def start(self) -> tuple[str, int]:
        if self._running:
            raise RuntimeError("broker already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._port = listener.getsockname()[1]
        # stop() writes a byte to this pair, so a loop waiting in select sees it is done
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._running = True
        self._thread = threading.Thread(target=self._loop, name="bus-loop", daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            try:
                self._wake_w.send(b"\0")
            except OSError:  # the loop has already ended and closed its sockets
                pass
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stats(self) -> BrokerStats:
        return BrokerStats(self._frames_in, self._frames_out, self._dropped)

    # -- the loop --

    def _loop(self) -> None:
        try:
            while self._running:
                for key, events in self._selector.select():
                    conn = key.data
                    if conn is None:  # the listener, or the wake-up from stop()
                        if key.fileobj is self._listener:
                            self._accept()
                    elif not conn.closed:
                        if events & selectors.EVENT_READ:
                            self._read(conn)
                        if events & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
        finally:
            for conn in list(self._conns):
                self._close(conn)
            self._selector.close()
            for sock in (self._listener, self._wake_r, self._wake_w):
                sock.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up before it was taken
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        if conn.patterns:
            self._subscribers = tuple(c for c in self._subscribers if c is not conn)
        self._selector.unregister(conn.sock)
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()

    def _read(self, conn: _Conn) -> None:
        reader = conn.reader
        # a body must leave room for the broker's stamp, or its delivery would be too long
        max_body = MAX_FRAME_BYTES - _STAMP_ROOM
        try:
            reader.fill()
            while not conn.closed and (body := reader.cut(max_body)) is not None:
                self._handle(conn, body)
        except BlockingIOError:
            pass  # woken with nothing to read
        except (FrameDecodeError, BusDisconnected, OSError):
            # protocol violation or peer gone: this connection is done
            self._close(conn)

    def _handle(self, conn: _Conn, body: bytes) -> None:
        frame = decode_frame(body)
        t_in = now_us()
        topic = frame.topic
        if frame.kind is FrameKind.SUBSCRIBE:
            if topic not in conn.patterns:
                if not conn.patterns:
                    self._subscribers += (conn,)
                conn.patterns.append(topic)
            ack = DatabusFrame(FrameKind.ACK, topic, now_us(), {"ok": True, "pattern": topic})
            self._deliver(conn, encode_frame(ack), None)
            return
        if frame.kind is FrameKind.ACK:
            raise FrameDecodeError("a client does not send acks")
        self._frames_in += 1
        head = None
        for target in self._subscribers:
            if not target.closed and any(topic_matches(p, topic) for p in target.patterns):
                if head is None:
                    # the body decoded as a JSON object, so it ends in "}" once trailing whitespace goes
                    head = body.rstrip(_JSON_WHITESPACE)[:-1]
                self._deliver(target, head, t_in)

    def _deliver(self, conn: _Conn, data: bytes, t_in: int | None) -> None:
        """Write a delivery now, or queue it behind what the socket has not taken; a full queue drops its oldest."""
        if conn.pending or conn.queue:
            if len(conn.queue) >= QUEUE_FRAMES:
                conn.queue.popleft()
                conn.dropped += 1
                self._dropped += 1
            conn.queue.append((data, t_in))
        elif not self._send(conn, data, t_in) and not conn.closed:
            self._selector.modify(conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    def _send(self, conn: _Conn, data: bytes, t_in: int | None) -> bool:
        """Stamp a delivery (an ack goes as it is) and write it; False unless the socket took all of it."""
        if t_in is not None:
            t_out = now_us()
            stamp = _STAMP % (t_in, t_out, conn.dropped)
            data = (len(data) + len(stamp)).to_bytes(4, "big") + data + stamp
            self._frames_out += 1
        return self._write(conn, data)

    def _write(self, conn: _Conn, data: bytes) -> bool:
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return False
        conn.pending = data[sent:]
        return not conn.pending

    def _flush(self, conn: _Conn) -> None:
        """The socket takes more: the rest of the pending delivery, then the queue, until it is full again."""
        if not self._write(conn, conn.pending):
            return
        while conn.queue:
            if not self._send(conn, *conn.queue.popleft()):
                return
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)


class BusClient:
    """One TCP connection to the broker, with one FIFO for every pattern it subscribes.

    It starts no thread: polls and subscribes read the socket in the caller's
    thread, so one thread reads a client at a time; any thread may publish.
    The broker sends a connection only what its patterns match, so the client
    keeps no patterns of its own, and loses no frame itself.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = _FrameReader(sock)
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._send_lock = threading.Lock()
        self._early: deque[DatabusFrame] = deque()  # deliveries read while a subscribe waited for its ack
        self.dropped = 0  # frames the broker dropped for this connection, as its latest delivery reports
        self._connected = True

    @classmethod
    def connect(cls, host: str, port: int) -> "BusClient":
        sock = socket.create_connection((host, port), timeout=WAIT_S)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

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

    def __enter__(self) -> "BusClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_frame(self, deadline: float) -> DatabusFrame | None:
        """Read and decode one frame; None if none came by the deadline.

        A delivery's stamp sets `dropped`.
        """
        if not self._connected:
            raise BusDisconnected("bus connection is closed")
        reader = self._reader
        try:
            while (body := reader.cut(MAX_FRAME_BYTES)) is None:
                left_ms = (deadline - time.monotonic()) * 1e3
                if not self._readable.poll(min(max(left_ms, 0.0), _POLL_MAX_MS)):
                    if left_ms <= _POLL_MAX_MS:
                        return None
                    continue  # poll waits at most _POLL_MAX_MS, so a longer wait takes several
                reader.fill()
            frame = decode_frame(body)
        except (FrameDecodeError, BusDisconnected, OSError) as exc:
            self.close()
            raise BusDisconnected(f"bus connection lost: {exc}") from None
        if type(bus := frame.payload.get("bus")) is dict and type(dropped := bus.get("dropped")) is int:
            self.dropped = dropped
        return frame

    def poll(self, timeout: float) -> DatabusFrame | None:
        """Next delivery of any subscribed pattern, in arrival order; None once timeout
        seconds elapse with nothing. timeout 0 still takes a frame that is already on the socket."""
        if self._early:
            return self._early.popleft()
        deadline = time.monotonic() + timeout
        while (frame := self._read_frame(deadline)) is not None:
            if frame.kind is not FrameKind.ACK:
                return frame
        return None

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

    def subscribe(self, pattern: str) -> "BusClient":
        """Add a pattern to this connection; returns the client once the broker has acknowledged it.

        Waiting for the ack, the one whose topic is the pattern, reads the socket
        like a poll; the deliveries read meanwhile are kept, in order, for the
        next polls, and any other ack is dropped.
        """
        self.send_frame(DatabusFrame(FrameKind.SUBSCRIBE, pattern, now_us(), {}))  # a bad pattern raises here, unsent
        deadline = time.monotonic() + WAIT_S
        while True:
            frame = self._read_frame(deadline)
            if frame is None:
                raise TimeoutError(f"no subscribe ack for {pattern!r} within {WAIT_S}s")
            if frame.kind is not FrameKind.ACK:
                self._early.append(frame)
            elif frame.topic == pattern:
                return self
