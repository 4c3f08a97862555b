"""Reference traffic generator, one numpy call per draw, as the tests' oracle.

This is the generator that `ranguard.traffic.ScriptedStream` replaced: it
steps the channel walk through its own function per sample, draws every
uniform through `rng.uniform` and every normal through `rng.normal`, reads
each class parameter from the table on every use, and maps the SINR and the
load to a CQI, an MCS and a drop probability through the helper functions
below, where the served generator reads a per-CQI table. It takes the channel
and class constants from `ranguard.traffic`. The served generator must match
it draw for draw.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ranguard.kpm import KpmSample, LabeledSample, TrafficClass
from ranguard.traffic import (
    CLASS_PARAMS,
    SINR_BASE_DB,
    WALK_CAP_DB,
    WALK_STEP_DB,
    ScriptSegment,
    dl_capacity_bps,
    ul_capacity_bps,
)


def cqi_from_sinr(sinr_db: float) -> int:
    """Wideband CQI report for a given SINR."""
    return int(min(15, max(0, round((sinr_db + 6.0) / 1.9))))


def mcs_for_load(cqi: int, offered_bps: float, capacity_bps: Callable[[int], float]) -> int:
    """Scheduler MCS choice: channel-driven base, backed off when the link is idle.

    Non-bijective with CQI on purpose: the same CQI maps to different MCS
    depending on offered load, matching scheduler link adaptation.
    """
    base = round(cqi * 28 / 15)
    cap = capacity_bps(base)
    util = offered_bps / cap if cap > 0 else 0.0
    if util <= 0.05:
        mcs = base - 3
    elif util <= 0.4:
        mcs = base - 1
    else:
        mcs = base
    return min(28, max(0, mcs))


def _base_drop_prob(sinr_db: float) -> float:
    p = 0.002 + max(0.0, 8.0 - sinr_db) * 0.004
    return min(0.05, max(0.002, p))


def _drop_prob(sinr_db: float, offered_bps: float, capacity_bps: float) -> float:
    congestion = 0.0
    if offered_bps > capacity_bps > 0:
        congestion = 1.0 - capacity_bps / offered_bps
    return min(0.95, _base_drop_prob(sinr_db) + congestion)


def step_channel(walk_db: float, rng: np.random.Generator) -> float:
    """The channel walk one interval on: a uniform step, clamped at the cap."""
    walk_db = walk_db + rng.uniform(-WALK_STEP_DB, WALK_STEP_DB)
    return min(WALK_CAP_DB, max(-WALK_CAP_DB, walk_db))


class TrafficStream:
    """Stateful single-UE generator for one traffic class at a time.

    Draw order per interval is fixed (channel step, SINR noise, class load,
    loss realization) so a stream is fully determined by its classes, ramp,
    period and RNG seed.
    """

    def __init__(
        self, cls: TrafficClass, rng: np.random.Generator, *, period_ms: int, transient_ms: int
    ) -> None:
        self.period_ms = period_ms
        self.transient_ms = transient_ms
        self.walk_db = 0.0
        self._rng = rng
        self._cqi = cqi_from_sinr(SINR_BASE_DB)
        self._class_state: dict[str, float] = {}
        self.switch_class(cls)

    def switch_class(self, cls: TrafficClass) -> None:
        """Start a new flow: per-class state and the ramp restart, channel persists."""
        self.traffic_class = cls
        self._t_rel_ms = 0
        self._class_state.clear()
        if cls is TrafficClass.WEB:
            self._class_state["backlog_bytes"] = 0.0
        elif cls is TrafficClass.VOIP:
            p = CLASS_PARAMS[cls]
            self._class_state["call_rate_bps"] = self._rng.uniform(p["rate_low_bps"], p["rate_high_bps"])

    def _scale(self) -> float:
        t = self.transient_ms
        if t <= 0:
            return 1.0
        return min(1.0, self._t_rel_ms / t)

    def _class_loads(self, scale: float) -> tuple[float, float, int]:
        """Offered (ul_bits, dl_bits, ul_pkts) for one interval, ramp applied."""
        rng = self._rng
        cls = self.traffic_class
        p = CLASS_PARAMS[cls]
        seconds = self.period_ms / 1000.0

        if cls is TrafficClass.WEB:
            request_bits = 0.0
            req_pkts = 0
            if rng.random() < p["page_rate_per_s"] * seconds:
                size = rng.lognormal(math.log(p["page_size_mean_bytes"]), p["page_size_sigma"])
                self._class_state["backlog_bytes"] += size
                request_bits = p["request_bits"]
                req_pkts = int(rng.integers(3, 7))
            drain_frac = rng.uniform(p["drain_frac_low"], p["drain_frac_high"])
            base_mcs = min(28, max(0, round(self._cqi * 28 / 15)))
            drain_bytes = drain_frac * dl_capacity_bps(base_mcs) * seconds / 8.0 * scale
            drained = min(self._class_state["backlog_bytes"], drain_bytes)
            self._class_state["backlog_bytes"] -= drained
            bg_dl = rng.uniform(p["bg_dl_low_bps"], p["bg_dl_high_bps"]) * seconds
            bg_ul = rng.uniform(p["bg_ul_low_bps"], p["bg_ul_high_bps"]) * seconds
            bg_pkts = int(rng.integers(1, 4))
            dl_bits = drained * 8.0 + bg_dl * scale
            ul_bits = p["ul_fraction"] * drained * 8.0 + (bg_ul + request_bits) * scale
            acks = dl_bits / p["ack_every_bits"]
            pkts = int(round((acks + bg_pkts + req_pkts) * scale))
            return ul_bits, dl_bits, pkts

        if cls is TrafficClass.VOIP:
            lo, hi = p["clamp_low_bps"], p["clamp_high_bps"]
            rate = self._class_state["call_rate_bps"]
            jit_ul = rng.uniform(-p["jitter_bps"], p["jitter_bps"])
            jit_dl = rng.uniform(-p["jitter_bps"], p["jitter_bps"])
            ul = min(hi, max(lo, rate + jit_ul)) * seconds * scale
            dl = min(hi, max(lo, rate + jit_dl)) * seconds * scale
            pkts = int(round(p["pkts_per_interval"] * scale))
            return ul, dl, pkts

        if cls in (TrafficClass.DDOS_RIPPER, TrafficClass.DOS_HULK):
            pkts_full = max(1.0, rng.normal(p["pkts_mean"], p["pkts_sd"]))
            pkt_bytes = rng.uniform(p["pkt_bytes_low"], p["pkt_bytes_high"])
            dl = rng.uniform(p["dl_low_bps"], p["dl_high_bps"]) * seconds * scale
            pkts = int(round(pkts_full * scale))
            ul = pkts * pkt_bytes * 8.0
            return ul, dl, pkts

        # Slowloris: a trickle of tiny keep-alive writes, near-silent downlink
        pkts_full = 1.0 + (1.0 if rng.random() < p["extra_pkt_prob"] else 0.0)
        pkt_bytes = rng.uniform(p["pkt_bytes_low"], p["pkt_bytes_high"])
        dl = rng.uniform(0.0, p["dl_high_bps"]) * seconds * scale
        pkts = int(round(pkts_full * scale))
        ul = pkts * pkt_bytes * 8.0
        return ul, dl, pkts

    def next_sample(self, timestamp_ms: int, bs_id: int, ue_id: int) -> KpmSample:
        """Generate the measurement for the interval ending now, then advance."""
        self.walk_db = step_channel(self.walk_db, self._rng)
        sinr = SINR_BASE_DB + self.walk_db
        pusch = sinr + self._rng.normal(0.0, 0.3)
        pucch = sinr - 1.5 + self._rng.normal(0.0, 0.4)
        self._cqi = cqi_from_sinr(pusch)

        scale = self._scale()
        ul_bits, dl_bits, ul_pkts = self._class_loads(scale)
        seconds = self.period_ms / 1000.0
        offered_ul_bps = ul_bits / seconds
        offered_dl_bps = dl_bits / seconds

        ul_mcs = mcs_for_load(self._cqi, offered_ul_bps, ul_capacity_bps)
        dl_mcs = mcs_for_load(self._cqi, offered_dl_bps, dl_capacity_bps)

        p_drop = _drop_prob(sinr, offered_ul_bps, ul_capacity_bps(ul_mcs))
        nok = int(self._rng.binomial(ul_pkts, p_drop)) if ul_pkts > 0 else 0
        ok = ul_pkts - nok
        ul_brate = offered_ul_bps * (1.0 - p_drop)

        self._t_rel_ms += self.period_ms
        return KpmSample(
            timestamp_ms=timestamp_ms,
            bs_id=bs_id,
            ue_id=ue_id,
            cqi=self._cqi,
            dl_mcs=dl_mcs,
            ul_mcs=ul_mcs,
            pusch_sinr_db=pusch,
            pucch_sinr_db=pucch,
            dl_brate_bps=offered_dl_bps,
            ul_brate_bps=ul_brate,
            ul_pkts_ok=ok,
            ul_pkts_nok=nok,
        )


def scripted_samples(
    script: Sequence[ScriptSegment],
    rng: np.random.Generator,
    n: int,
    *,
    period_ms: int,
    transient_ms: int,
) -> list[LabeledSample]:
    """n labeled samples of a UE working through script, as `ScriptedStream` plays it:
    each segment starts a new flow, and the final class keeps running past the end."""
    stream = TrafficStream(script[0].traffic_class, rng, period_ms=period_ms, transient_ms=transient_ms)
    starts = {}  # sample index -> segment index starting there
    at = 0
    for i, seg in enumerate(script):
        starts[at] = i
        at += seg.duration_ms // period_ms
    seg_idx = 0
    out = []
    for k in range(n):
        if k in starts and starts[k] > 0:
            seg_idx = starts[k]
            stream.switch_class(script[seg_idx].traffic_class)
        sample = stream.next_sample(k * period_ms, 1, 0)
        out.append(LabeledSample(sample, script[seg_idx].traffic_class))
    return out
