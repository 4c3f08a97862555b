"""Spans around calls into ranguard's layers, recorded from outside the package.

`install` swaps a timing wrapper in for one public callable per layer (a
class attribute or a module global that the calling module looks up at call
time) and returns a function that puts the originals back. `TracedModel`
stands in for a classifier. Nothing under src/ changes; an untraced run
installs nothing.

A span is [id, name, start_ns, end_ns, parent_id, frame]. Ids are unique per
process, parent_id is -1 for a root, and frame is (bs_id, ue_id,
timestamp_ms) for every span that works on one measurement frame; a span
that cannot see its frame inherits its parent's. Spans stay in memory until
the run ends, when `dump` hands them to the parent process.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager

from perfstats import percentile, self_times

# Set-up spans are reported whenever they ran; every other span only counts
# when it starts inside the measured window.
SETUP_SPANS = ("pipeline.collect", "ml.train", "ml.load")
FRAME_SPANS = (
    "traffic.next_sample",
    "ransim.tick",
    "ransim.apply_command",
    "kpm.to_payload",
    "kpm.from_payload",
    "kpm.feature_vector",
    "ml.predict",
    "ml.predict_batch",
    "xapp.on_measurement",
    "databus.encode",
    "databus.decode",
    "pipeline.closed_loop",
)
BUS_SPANS = ("databus.encode", "databus.decode")
ML_SPANS = ("ml.predict", "ml.predict_batch", "ml.train", "ml.load")


def payload_frame(payload) -> tuple | None:
    if not isinstance(payload, Mapping):
        return None
    try:
        return (payload["bs_id"], payload["ue_id"], payload["timestamp_ms"])
    except KeyError:
        return None


def sample_frame(sample) -> tuple:
    return (sample.bs_id, sample.ue_id, sample.timestamp_ms)


class Tracer:
    """Per-process span and counter store."""

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stamps: list[list[int]] = []  # per decision: ue_id, timestamp_ms, six trace stamps
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, frame=None, frame_of_result=None):
        """fn(*args, **kwargs) inside a span; a call that raises records none."""
        stack = self._stack()
        parent = stack[-1] if stack else (-1, None)
        if frame is None:
            frame = parent[1]
        sid = next(self._ids)
        stack.append((sid, frame))
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
        if frame is None and frame_of_result is not None:
            frame = frame_of_result(result)
        # Finished spans are tuples of atoms, which the garbage collector stops
        # scanning; a growing list of lists made every collection slower.
        self.spans.append((sid, name, start, end, parent[0], frame))
        return result

    @contextmanager
    def span(self, name: str):
        """Span around a block of harness code, such as one closed_loop call."""
        stack = self._stack()
        parent = stack[-1] if stack else (-1, None)
        sid = next(self._ids)
        stack.append((sid, None))
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            stack.pop()
        self.spans.append((sid, name, start, end, parent[0], None))

    def dump(self) -> dict:
        return {
            "proc": self.proc,
            "spans": self.spans,
            "counts": dict(self.counts),
            "stamps": self.stamps,
        }


class TracedModel:
    """Classifier proxy: every predict and predict_batch call becomes an ml span."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer

    def predict(self, x):
        return self._tracer.call("ml.predict", self._model.predict, (x,), {})

    def predict_batch(self, X):
        self._tracer.counts["ml.predict_batch.rows"] += len(X)
        return self._tracer.call("ml.predict_batch", self._model.predict_batch, (X,), {})

    def __getattr__(self, name):
        return getattr(self._model, name)


def install(tracer: Tracer):
    """Wrap one public callable per layer; returns a function that unwraps them."""
    from ranguard import databus, kpm, ransim, traffic, xapp

    undo = []

    def replace(owner, attr, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    def method(owner, attr, name, frame_of=None) -> None:
        fn = owner.__dict__[attr]

        def traced(*args, **kwargs):
            frame = frame_of(*args) if frame_of is not None else None
            return tracer.call(name, fn, args, kwargs, frame)

        replace(owner, attr, traced)

    method(traffic.ScriptedStream, "next_sample", "traffic.next_sample", lambda _s, ts, bs, ue: (bs, ue, ts))
    method(ransim.BaseStation, "tick_samples", "ransim.tick")
    method(ransim.BaseStation, "apply_command", "ransim.apply_command")
    method(kpm.KpmSample, "to_payload", "kpm.to_payload", sample_frame)

    from_payload = kpm.KpmSample.__dict__["from_payload"].__func__

    def traced_from_payload(cls, payload):
        return tracer.call("kpm.from_payload", from_payload, (cls, payload), {}, payload_frame(payload))

    replace(kpm.KpmSample, "from_payload", classmethod(traced_from_payload))

    feature_vector = xapp.feature_vector
    replace(
        xapp,
        "feature_vector",
        lambda sample: tracer.call("kpm.feature_vector", feature_vector, (sample,), {}, sample_frame(sample)),
    )

    on_measurement = xapp.OnlineClassifier.__dict__["on_measurement"]
    counts = tracer.counts

    def traced_on_measurement(self, frame, **kwargs):
        malformed = self.malformed
        decision = tracer.call(
            "xapp.on_measurement", on_measurement, (self, frame), kwargs, payload_frame(frame.payload)
        )
        counts["xapp.malformed"] += self.malformed - malformed
        if decision is not None:
            counts["xapp.decisions"] += 1
            counts["xapp.commands"] += decision.command is not None
            tr = decision.trace
            tracer.stamps.append(
                [
                    decision.ue_id,
                    decision.timestamp_ms,
                    tr.t_bs_send_us,
                    tr.t_bus_in_us,
                    tr.t_bus_out_us,
                    tr.t_xapp_recv_us,
                    tr.t_infer_start_us,
                    tr.t_infer_end_us,
                ]
            )
        return decision

    replace(xapp.OnlineClassifier, "on_measurement", traced_on_measurement)

    encode_frame = databus.encode_frame
    decode_frame = databus.decode_frame
    replace(
        databus,
        "encode_frame",
        lambda frame: tracer.call("databus.encode", encode_frame, (frame,), {}, payload_frame(frame.payload)),
    )
    replace(
        databus,
        "decode_frame",
        lambda body: tracer.call(
            "databus.decode", decode_frame, (body,), {}, None, lambda f: payload_frame(f.payload)
        ),
    )

    def uninstall() -> None:
        while undo:
            owner, attr, old = undo.pop()
            setattr(owner, attr, old)

    return uninstall


def summarize(dumps: list[dict], lo_ns: int, hi_ns: int) -> dict[str, dict]:
    """Per span name: calls, durations and self times (ns) of the spans that count."""
    out: dict[str, dict] = {}
    for dump in dumps:
        spans = dump["spans"]
        selfs = self_times([(s[0], s[2], s[3], s[4]) for s in spans])
        for sid, name, start, end, _, _ in spans:
            if name not in SETUP_SPANS and not lo_ns <= start < hi_ns:
                continue
            row = out.setdefault(name, {"dur": [], "self": []})
            row["dur"].append(end - start)
            row["self"].append(selfs[sid])
    return out


def layer_metrics(summary: dict[str, dict], counts: Counter) -> dict[str, float]:
    """The span-derived per-layer metrics; absent layers read 0."""

    def calls(name):
        return len(summary.get(name, {}).get("dur", ()))

    def mean_self(name, scale):
        row = summary.get(name)
        return sum(row["self"]) / len(row["self"]) / scale if row else 0.0

    def dur_pct(name, pct):
        row = summary.get(name)
        return percentile(row["dur"], pct) / 1e3 if row else 0.0

    batch = summary.get("ml.predict_batch")
    rows = counts.get("ml.predict_batch.rows", 0)
    total_self = self_total_ns(summary)
    metrics = {
        "ml.predict.us_p50": dur_pct("ml.predict", 50),
        "ml.predict.us_p99": dur_pct("ml.predict", 99),
        "ml.predict.calls": calls("ml.predict"),
        "ml.predict_batch.rows": rows,
        "ml.predict_batch.us_per_row": sum(batch["dur"]) / 1e3 / rows if batch and rows else 0.0,
        "ml.train.s": mean_self("ml.train", 1e9),
        "ml.load.s": mean_self("ml.load", 1e9),
        "pipeline.collect.s": mean_self("pipeline.collect", 1e9),
        "kpm.to_payload.us": mean_self("kpm.to_payload", 1e3),
        "kpm.from_payload.us": mean_self("kpm.from_payload", 1e3),
        "kpm.feature_vector.us": mean_self("kpm.feature_vector", 1e3),
        "traffic.next_sample.us": mean_self("traffic.next_sample", 1e3),
        "traffic.next_sample.calls": calls("traffic.next_sample"),
        "ransim.tick.self_us": mean_self("ransim.tick", 1e3),
        "ransim.apply_command.us": mean_self("ransim.apply_command", 1e3),
        "ransim.commands_applied": calls("ransim.apply_command"),
        "databus.encode.us": mean_self("databus.encode", 1e3),
        "databus.decode.us": mean_self("databus.decode", 1e3),
        "xapp.on_measurement.self_us": mean_self("xapp.on_measurement", 1e3),
        "xapp.decisions": counts.get("xapp.decisions", 0),
        "xapp.commands": counts.get("xapp.commands", 0),
        "xapp.malformed": counts.get("xapp.malformed", 0),
        "pipeline.closed_loop.self_s": mean_self("pipeline.closed_loop", 1e9),
    }
    for name in FRAME_SPANS:
        own = sum(summary[name]["self"]) if name in summary else 0
        metrics[f"self_share_pct.{name}"] = 100.0 * own / total_self if total_self else 0.0
    return metrics


def self_total_ns(summary: dict[str, dict]) -> int:
    return sum(sum(summary[n]["self"]) for n in FRAME_SPANS if n in summary)
