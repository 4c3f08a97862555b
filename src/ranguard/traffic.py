"""Stochastic per-class traffic generators producing per-UE KPM measurement streams.

Each traffic class is a parametric load model driven by a seeded RNG on top of a
shared slow-fading channel. Every class ramps from zero to steady state over a
configurable transient window after it starts, so early measurements of a fresh
flow look ambiguous on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ranguard.kpm import KpmSample, LabeledSample, TrafficClass

DEFAULT_PERIOD_MS = 100
DEFAULT_TRANSIENT_MS = 500


# --- channel model -----------------------------------------------------------

@dataclass(frozen=True)
class ChannelState:
    """Slow-fading channel: a fixed base SINR plus a bounded random walk."""

    sinr_base_db: float = 18.0
    sinr_walk_db: float = 0.0
    walk_cap_db: float = 6.0
    walk_step_db: float = 0.5

    def __post_init__(self) -> None:
        if self.walk_cap_db < 0 or self.walk_step_db < 0:
            raise ValueError("walk_cap_db and walk_step_db must be >= 0")
        if abs(self.sinr_walk_db) > self.walk_cap_db:
            raise ValueError(f"sinr_walk_db {self.sinr_walk_db} exceeds cap {self.walk_cap_db}")

    @property
    def sinr_db(self) -> float:
        return self.sinr_base_db + self.sinr_walk_db


def cqi_from_sinr(sinr_db: float) -> int:
    """Wideband CQI report for a given SINR."""
    return int(min(15, max(0, round((sinr_db + 6.0) / 1.9))))


def ul_capacity_bps(mcs: int) -> float:
    """Deliverable uplink rate on the configured grant at a given MCS."""
    return 1.0e6 + 1.2e6 * mcs


def dl_capacity_bps(mcs: int) -> float:
    return 2.0e6 + 2.8e6 * mcs


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


# --- uplink loss model --------------------------------------------------------

def _base_drop_prob(sinr_db: float) -> float:
    p = 0.002 + max(0.0, 8.0 - sinr_db) * 0.004
    return min(0.05, max(0.002, p))


def _drop_prob(sinr_db: float, offered_bps: float, capacity_bps: float) -> float:
    congestion = 0.0
    if offered_bps > capacity_bps > 0:
        congestion = 1.0 - capacity_bps / offered_bps
    return min(0.95, _base_drop_prob(sinr_db) + congestion)


# --- per-class load parameters -------------------------------------------------

_CLASS_DEFAULTS: dict[TrafficClass, dict[str, float]] = {
    TrafficClass.WEB: dict(
        page_rate_per_s=0.6,
        page_size_mean_bytes=900_000.0,
        page_size_sigma=0.6,
        drain_frac_low=0.6,
        drain_frac_high=0.9,
        ul_fraction=0.05,
        bg_dl_low_bps=15e3,
        bg_dl_high_bps=70e3,
        bg_ul_low_bps=4e3,
        bg_ul_high_bps=20e3,
        request_bits=30e3,
        ack_every_bits=24e3,
    ),
    TrafficClass.VOIP: dict(
        rate_low_bps=30e3,
        rate_high_bps=160e3,
        jitter_bps=2e3,
        clamp_low_bps=25e3,
        clamp_high_bps=165e3,
        pkts_per_interval=5,
    ),
    TrafficClass.DDOS_RIPPER: dict(
        pkts_mean=320.0,
        pkts_sd=30.0,
        pkt_bytes_low=380.0,
        pkt_bytes_high=520.0,
        dl_low_bps=30e3,
        dl_high_bps=120e3,
    ),
    TrafficClass.DOS_HULK: dict(
        pkts_mean=600.0,
        pkts_sd=50.0,
        pkt_bytes_low=950.0,
        pkt_bytes_high=1250.0,
        dl_low_bps=0.8e6,
        dl_high_bps=2.5e6,
    ),
    TrafficClass.SLOWLORIS: dict(
        extra_pkt_prob=0.3,
        pkt_bytes_low=90.0,
        pkt_bytes_high=140.0,
        dl_high_bps=2.5e3,
    ),
}


@dataclass(frozen=True)
class TrafficProfile:
    """A traffic class plus its load parameters and ramp-up window."""

    traffic_class: TrafficClass
    transient_ms: int = DEFAULT_TRANSIENT_MS
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.transient_ms < 0:
            raise ValueError(f"transient_ms must be >= 0, got {self.transient_ms}")
        defaults = _CLASS_DEFAULTS[self.traffic_class]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {self.traffic_class.value}: {sorted(unknown)}; "
                f"valid: {sorted(defaults)}"
            )
        merged = dict(defaults)
        merged.update(self.params)
        for key, value in merged.items():
            if not math.isfinite(value) or (not key.endswith("_db") and value < 0):
                raise ValueError(f"{self.traffic_class.value}.{key} must be finite and >= 0, got {value}")
            high = key.replace("_low", "_high")
            if high != key and merged.get(high, value) < value:
                raise ValueError(f"{self.traffic_class.value}.{key} {value} exceeds {high} {merged[high]}")
        object.__setattr__(self, "params", merged)


# --- the generator -------------------------------------------------------------

class TrafficStream:
    """Stateful single-UE generator for one traffic profile.

    Draw order per interval is fixed (channel step, SINR noise, class load,
    loss realization) so a stream is fully determined by profile, channel
    start state, and RNG seed. A uniform draw is written out as
    lo + (hi - lo) * rng.random(), which is how numpy computes
    rng.uniform(lo, hi), so it takes the same value from the same bits at a
    third of the call cost.
    """

    def __init__(
        self,
        profile: TrafficProfile,
        rng: np.random.Generator,
        channel: ChannelState | None = None,
        period_ms: int = DEFAULT_PERIOD_MS,
    ) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {period_ms}")
        self._channel = channel if channel is not None else ChannelState()
        self._walk = self._channel.sinr_walk_db
        step = float(self._channel.walk_step_db)
        self._step_lo, self._step_span = -step, step - -step  # rng.uniform(-step, step)
        self.period_ms = period_ms
        self._seconds = period_ms / 1000.0
        self._rng = rng
        self._cqi = cqi_from_sinr(self._channel.sinr_db)
        self.switch_profile(profile)

    @property
    def channel(self) -> ChannelState:
        """The channel as it stands after the last sample."""
        return replace(self._channel, sinr_walk_db=self._walk)

    def switch_profile(self, profile: TrafficProfile) -> None:
        """Start a new flow: per-class state and the ramp restart, channel persists."""
        self.profile = profile
        self._t_rel_ms = 0
        # as floats, the way rng.uniform reads its bounds
        self._p = p = {key: float(value) for key, value in profile.params.items()}
        cls = profile.traffic_class
        # a plain function, called as self._loads(self, scale): a bound method here would be a cycle
        self._loads = _CLASS_LOADS[cls]
        self._backlog_bytes = 0.0
        if cls is TrafficClass.VOIP:
            lo = p["rate_low_bps"]
            self._call_rate_bps = lo + (p["rate_high_bps"] - lo) * self._rng.random()

    # Each _*_loads gives the offered (ul_bits, dl_bits, ul_pkts) of one
    # interval, ramp applied.

    def _web_loads(self, scale: float) -> tuple[float, float, int]:
        random, p, seconds = self._rng.random, self._p, self._seconds
        request_bits = 0.0
        req_pkts = 0
        if random() < p["page_rate_per_s"] * seconds:
            size = self._rng.lognormal(math.log(p["page_size_mean_bytes"]), p["page_size_sigma"])
            self._backlog_bytes += size
            request_bits = p["request_bits"]
            req_pkts = int(self._rng.integers(3, 7))
        lo = p["drain_frac_low"]
        drain_frac = lo + (p["drain_frac_high"] - lo) * random()
        base_mcs = min(28, max(0, round(self._cqi * 28 / 15)))
        drain_bytes = drain_frac * dl_capacity_bps(base_mcs) * seconds / 8.0 * scale
        drained = min(self._backlog_bytes, drain_bytes)
        self._backlog_bytes -= drained
        lo = p["bg_dl_low_bps"]
        bg_dl = (lo + (p["bg_dl_high_bps"] - lo) * random()) * seconds
        lo = p["bg_ul_low_bps"]
        bg_ul = (lo + (p["bg_ul_high_bps"] - lo) * random()) * seconds
        bg_pkts = int(self._rng.integers(1, 4))
        dl_bits = drained * 8.0 + bg_dl * scale
        ul_bits = p["ul_fraction"] * drained * 8.0 + (bg_ul + request_bits) * scale
        acks = dl_bits / p["ack_every_bits"]
        pkts = int(round((acks + bg_pkts + req_pkts) * scale))
        return ul_bits, dl_bits, pkts

    def _voip_loads(self, scale: float) -> tuple[float, float, int]:
        random, p, seconds = self._rng.random, self._p, self._seconds
        lo, hi = p["clamp_low_bps"], p["clamp_high_bps"]
        rate = self._call_rate_bps
        jitter = p["jitter_bps"]
        jit_ul = -jitter + (jitter - -jitter) * random()
        jit_dl = -jitter + (jitter - -jitter) * random()
        ul = min(hi, max(lo, rate + jit_ul)) * seconds * scale
        dl = min(hi, max(lo, rate + jit_dl)) * seconds * scale
        pkts = int(round(p["pkts_per_interval"] * scale))
        return ul, dl, pkts

    def _flood_loads(self, scale: float) -> tuple[float, float, int]:
        random, p = self._rng.random, self._p
        pkts_full = max(1.0, self._rng.normal(p["pkts_mean"], p["pkts_sd"]))
        lo = p["pkt_bytes_low"]
        pkt_bytes = lo + (p["pkt_bytes_high"] - lo) * random()
        lo = p["dl_low_bps"]
        dl = (lo + (p["dl_high_bps"] - lo) * random()) * self._seconds * scale
        pkts = int(round(pkts_full * scale))
        ul = pkts * pkt_bytes * 8.0
        return ul, dl, pkts

    def _slowloris_loads(self, scale: float) -> tuple[float, float, int]:
        """A trickle of tiny keep-alive writes, near-silent downlink."""
        random, p = self._rng.random, self._p
        pkts_full = 1.0 + (1.0 if random() < p["extra_pkt_prob"] else 0.0)
        lo = p["pkt_bytes_low"]
        pkt_bytes = lo + (p["pkt_bytes_high"] - lo) * random()
        dl = (0.0 + p["dl_high_bps"] * random()) * self._seconds * scale  # rng.uniform(0.0, high)
        pkts = int(round(pkts_full * scale))
        ul = pkts * pkt_bytes * 8.0
        return ul, dl, pkts

    def next_sample(self, timestamp_ms: int, bs_id: int, ue_id: int) -> KpmSample:
        """Generate the measurement for the interval ending now, then advance."""
        rng, cap = self._rng, self._channel.walk_cap_db
        self._walk = min(cap, max(-cap, self._walk + (self._step_lo + self._step_span * rng.random())))
        sinr = self._channel.sinr_base_db + self._walk
        pusch = sinr + rng.normal(0.0, 0.3)
        pucch = sinr - 1.5 + rng.normal(0.0, 0.4)
        self._cqi = cqi_from_sinr(pusch)

        t = self.profile.transient_ms
        scale = 1.0 if t <= 0 else min(1.0, self._t_rel_ms / t)
        ul_bits, dl_bits, ul_pkts = self._loads(self, scale)
        offered_ul_bps = ul_bits / self._seconds
        offered_dl_bps = dl_bits / self._seconds

        ul_mcs = mcs_for_load(self._cqi, offered_ul_bps, ul_capacity_bps)
        dl_mcs = mcs_for_load(self._cqi, offered_dl_bps, dl_capacity_bps)

        p_drop = _drop_prob(sinr, offered_ul_bps, ul_capacity_bps(ul_mcs))
        nok = int(rng.binomial(ul_pkts, p_drop)) if ul_pkts > 0 else 0
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


_CLASS_LOADS = {  # chosen once per flow
    TrafficClass.WEB: TrafficStream._web_loads,
    TrafficClass.VOIP: TrafficStream._voip_loads,
    TrafficClass.DDOS_RIPPER: TrafficStream._flood_loads,
    TrafficClass.DOS_HULK: TrafficStream._flood_loads,
    TrafficClass.SLOWLORIS: TrafficStream._slowloris_loads,
}


# --- scripts -------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptSegment:
    """One leg of a UE's behaviour: run this class for this long."""

    traffic_class: TrafficClass
    duration_ms: int

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError(f"segment duration must be > 0, got {self.duration_ms}")


class ScriptedStream:
    """A UE working through a class script; each segment restarts the ramp.

    Past the end of the script the final class keeps running at steady state.
    """

    def __init__(
        self,
        script: Sequence[ScriptSegment],
        seed: int | np.random.Generator,
        *,
        period_ms: int = DEFAULT_PERIOD_MS,
        transient_ms: int = DEFAULT_TRANSIENT_MS,
        channel: ChannelState | None = None,
        params: Mapping[TrafficClass, Mapping[str, float]] | None = None,
    ) -> None:
        if not script:
            raise ValueError("script must not be empty")
        for i, seg in enumerate(script):
            if seg.duration_ms % period_ms != 0:
                raise ValueError(
                    f"segment {i} duration {seg.duration_ms} is not a multiple of period {period_ms}"
                )
        self.script = tuple(script)
        self.period_ms = period_ms
        self._transient_ms = transient_ms
        self._params = dict(params or {})
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._seg_idx = 0
        self._left_ms = script[0].duration_ms
        self._stream = TrafficStream(
            self._profile_for(script[0].traffic_class), rng, channel, period_ms
        )

    def _profile_for(self, cls: TrafficClass) -> TrafficProfile:
        return TrafficProfile(cls, self._transient_ms, dict(self._params.get(cls, {})))

    @property
    def label(self) -> TrafficClass:
        return self.script[self._seg_idx].traffic_class

    def next_sample(self, timestamp_ms: int, bs_id: int, ue_id: int) -> LabeledSample:
        if self._left_ms <= 0 and self._seg_idx + 1 < len(self.script):
            self._seg_idx += 1
            seg = self.script[self._seg_idx]
            self._left_ms = seg.duration_ms
            self._stream.switch_profile(self._profile_for(seg.traffic_class))
        self._left_ms -= self.period_ms
        sample = self._stream.next_sample(timestamp_ms, bs_id, ue_id)
        return LabeledSample(sample, self.label)


def build_random_script(
    rng: np.random.Generator,
    classes: Sequence[TrafficClass],
    duration_ms: int,
    *,
    min_segment_ms: int = 3000,
    max_segment_ms: int = 8000,
    period_ms: int = DEFAULT_PERIOD_MS,
) -> list[ScriptSegment]:
    """Random class sequence covering duration_ms exactly; no same-class repeats."""
    if not classes:
        raise ValueError("classes must not be empty")
    if duration_ms <= 0 or duration_ms % period_ms != 0:
        raise ValueError(f"duration_ms must be a positive multiple of {period_ms}")
    lo = -(-min_segment_ms // period_ms)  # segment bounds in whole periods
    hi = max_segment_ms // period_ms
    if not 1 <= lo <= hi:
        raise ValueError(
            f"need period_ms <= min_segment_ms <= max_segment_ms, "
            f"got {period_ms}, {min_segment_ms}, {max_segment_ms}"
        )
    script: list[ScriptSegment] = []
    left = duration_ms
    prev: TrafficClass | None = None
    while left > 0:
        pool = [c for c in classes if c is not prev] or list(classes)
        cls = pool[int(rng.integers(0, len(pool)))]
        seg = min(int(rng.integers(lo, hi + 1)) * period_ms, left)
        if left - seg < min_segment_ms:
            # never strand a sub-minimum tail: absorb it or leave a full minimum
            if left <= max_segment_ms:
                seg = left
            else:
                seg = max(period_ms, (left - min_segment_ms) // period_ms * period_ms)
        script.append(ScriptSegment(cls, seg))
        prev = cls
        left -= seg
    return script
