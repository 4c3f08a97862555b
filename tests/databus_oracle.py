"""The frame codec and broker relay as they were before the broker relayed bytes, as the tests' oracle.

`decode` is the old `decode_frame` with the old `DatabusFrame` checks, and
`encode` the old `encode_frame`. `relay` is the old broker writer: it decoded
the publisher's body, copied the payload, set the broker's stamp in
`payload["bus"]`, re-checked the frame and encoded it again. A frame here is
the tuple of its fields, `(kind, topic, t_sent_us, payload, version)`, so the
oracle can hold what the old checks let through (a version of `True`, say).
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from ranguard.databus import FrameDecodeError, FrameKind, UnknownFrameKind, valid_pattern, valid_topic


def check(kind, topic, t_sent_us, payload, version) -> None:
    """The old DatabusFrame.__post_init__."""
    if version != 1:
        raise ValueError(f"unsupported frame version {version}")
    if not isinstance(t_sent_us, int) or t_sent_us < 0:
        raise ValueError(f"t_sent_us must be a nonnegative integer, got {t_sent_us!r}")
    if not isinstance(payload, Mapping):
        raise ValueError("payload must be a JSON object")
    if kind is FrameKind.SUBSCRIBE:
        if not valid_pattern(topic):
            raise ValueError(f"bad subscribe pattern {topic!r}")
    elif kind is FrameKind.ACK:
        if not topic:
            raise ValueError("ack topic must not be empty")
    elif not valid_topic(topic):
        raise ValueError(f"bad topic {topic!r} (want kpm.<id>, ctrl.<id>, or event.<id>)")


def encode(frame: tuple) -> bytes:
    kind, topic, t_sent_us, payload, version = frame
    body = json.dumps(
        {
            "version": version,
            "kind": kind.value,
            "topic": topic,
            "t_sent_us": t_sent_us,
            "payload": dict(payload),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def decode(body: bytes) -> tuple:
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameDecodeError(f"frame body is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameDecodeError("frame body must be a JSON object")
    missing = {"version", "kind", "topic", "t_sent_us", "payload"} - set(doc)
    if missing:
        raise FrameDecodeError(f"frame missing fields: {sorted(missing)}")
    try:
        kind = FrameKind(doc["kind"])
    except ValueError:
        raise UnknownFrameKind(f"unknown frame kind {doc['kind']!r}") from None
    frame = (kind, doc["topic"], doc["t_sent_us"], doc["payload"], doc["version"])
    try:
        check(*frame)
    except (TypeError, ValueError) as exc:
        raise FrameDecodeError(str(exc)) from None
    return frame


def relay(body: bytes, t_in_us: int, t_out_us: int) -> bytes:
    """The wire frame the old broker sent for a delivery of this publisher body."""
    kind, topic, t_sent_us, payload, version = decode(body)
    stamped = dict(payload)
    stamped["bus"] = {"in_us": t_in_us, "out_us": t_out_us}
    check(kind, topic, t_sent_us, stamped, version)
    return encode((kind, topic, t_sent_us, stamped, version))
