"""Stochastic per-class traffic generator producing per-UE KPM measurement streams.

Each UE works through a script of traffic classes. Each class is a parametric
load model driven by the UE's seeded RNG on top of a slow-fading channel.
Every flow ramps from zero to steady state over a fixed transient window
(TRANSIENT_MS) after it starts, so early measurements of a fresh flow look
ambiguous on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ranguard.kpm import KpmSample, LabeledSample, TrafficClass

DEFAULT_PERIOD_MS = 100
TRANSIENT_MS = 500  # every flow ramps linearly from zero to steady state over this window
MIN_SEGMENT_MS = 3000  # the bounds of a random script's segments
MAX_SEGMENT_MS = 8000


# --- channel model -----------------------------------------------------------

# Slow fading: a fixed base SINR plus a random walk of uniform steps, bounded at the cap.
SINR_BASE_DB = 18.0
WALK_CAP_DB = 6.0
WALK_STEP_DB = 0.5
_STEP_LO, _STEP_SPAN = -WALK_STEP_DB, WALK_STEP_DB - -WALK_STEP_DB  # rng.uniform(-step, step)


def ul_capacity_bps(mcs: int) -> float:
    """Deliverable uplink rate on the configured grant at a given MCS."""
    return 1.0e6 + 1.2e6 * mcs


def dl_capacity_bps(mcs: int) -> float:
    return 2.0e6 + 2.8e6 * mcs


def _link_row(cqi: int) -> tuple[int, int, int, float, float]:
    """The scheduler's MCS choices at a wideband CQI, and the capacities at its base MCS.

    The base MCS follows the channel, and backs off by 3 on an idle link
    (utilization of the base capacity at most 5%) and by 1 on a light one (at
    most 40%). So the same CQI maps to different MCS depending on offered
    load, matching scheduler link adaptation.
    """
    base = round(cqi * 28 / 15)
    return max(0, base - 3), max(0, base - 1), base, ul_capacity_bps(base), dl_capacity_bps(base)


# (idle MCS, light MCS, base MCS, uplink and downlink capacity at the base), by CQI 0..15
_LINK = tuple(_link_row(cqi) for cqi in range(16))
_UL_CAPACITY = tuple(ul_capacity_bps(mcs) for mcs in range(29))  # by MCS


# --- per-class load parameters -------------------------------------------------

# Load parameters by class, as floats: the way rng.uniform reads its bounds.
CLASS_PARAMS: dict[TrafficClass, dict[str, float]] = {
    cls: {key: float(value) for key, value in params.items()}
    for cls, params in {
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
    }.items()
}


# --- the generator -------------------------------------------------------------

class ScriptedStream:
    """One UE working through a class script on a slow-fading channel.

    Each segment starts a new flow of its class: the ramp restarts, the web
    backlog empties and a VoIP call draws its rate, while the channel walk
    carries on. Past the end of the script the final class keeps running at
    steady state.

    Draw order per interval is fixed (channel step, SINR noise, class load,
    loss realization) so a stream is fully determined by its script, period
    and RNG seed. A uniform draw is written out as
    lo + (hi - lo) * rng.random(), which is how numpy computes
    rng.uniform(lo, hi), so it takes the same value from the same bits at a
    third of the call cost; a normal draw as m + s * rng.standard_normal(),
    which rng.normal(m, s) computes as m + s * z from the same bits (for m = 0
    the sum adds nothing, so it is written as the product alone).
    """

    def __init__(
        self,
        script: Sequence[ScriptSegment],
        seed: int | np.random.Generator,
        *,
        period_ms: int = DEFAULT_PERIOD_MS,
    ) -> None:
        if not script:
            raise ValueError("script must not be empty")
        if period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {period_ms}")
        for i, seg in enumerate(script):
            if seg.duration_ms % period_ms != 0:
                raise ValueError(
                    f"segment {i} duration {seg.duration_ms} is not a multiple of period {period_ms}"
                )
        self.script = tuple(script)
        self.period_ms = period_ms
        self._seconds = period_ms / 1000.0
        self._rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._walk = 0.0  # the channel's walk in dB, which persists across segments
        self._start_segment(0)

    def _start_segment(self, idx: int) -> None:
        """Start segment idx: a new flow of its class, ramp restarted, its constants computed once."""
        self._seg_idx = idx
        seg = self.script[idx]
        self.label = cls = seg.traffic_class  # the class of the samples until the next segment
        self._left_ms = seg.duration_ms
        self._t_rel_ms = 0
        self._backlog_bytes = 0.0
        # plain functions, called with self: bound methods kept here would be a cycle
        start, self._loads = _CLASS_FLOWS[cls]
        self._k = start(self, CLASS_PARAMS[cls])

    # Each _*_start gives the constants of a new flow of its class, as the tuple
    # self._k, in the order its _*_loads unpacks them; each _*_loads gives the
    # offered (ul_bits, dl_bits, ul_pkts) of one interval, ramp applied. A clamp
    # is written as comparisons, which give what nested min/max calls give.

    def _web_start(self, p: dict[str, float]) -> tuple:
        seconds = self._seconds
        return (
            p["page_rate_per_s"] * seconds,  # the chance of a page request in one interval
            math.log(p["page_size_mean_bytes"]),
            p["page_size_sigma"],
            p["request_bits"],
            *_span(p, "drain_frac_low", "drain_frac_high"),
            *_span(p, "bg_dl_low_bps", "bg_dl_high_bps"),
            *_span(p, "bg_ul_low_bps", "bg_ul_high_bps"),
            p["ul_fraction"],
            p["ack_every_bits"],
            seconds,
        )

    def _web_loads(self, scale: float) -> tuple[float, float, int]:
        (
            page_chance, log_page_mean, page_sigma, request_bits, drain_lo, drain_span,
            bg_dl_lo, bg_dl_span, bg_ul_lo, bg_ul_span, ul_fraction, ack_every_bits, seconds,
        ) = self._k
        rng = self._rng
        random = rng.random
        req_bits = 0.0
        req_pkts = 0
        if random() < page_chance:
            self._backlog_bytes += rng.lognormal(log_page_mean, page_sigma)
            req_bits = request_bits
            req_pkts = int(rng.integers(3, 7))
        drain_frac = drain_lo + drain_span * random()
        dl_capacity = _LINK[self._cqi][4]  # at the base MCS of this interval's CQI
        drain_bytes = drain_frac * dl_capacity * seconds / 8.0 * scale
        backlog = self._backlog_bytes
        drained = drain_bytes if drain_bytes < backlog else backlog
        self._backlog_bytes = backlog - drained
        bg_dl = (bg_dl_lo + bg_dl_span * random()) * seconds
        bg_ul = (bg_ul_lo + bg_ul_span * random()) * seconds
        bg_pkts = int(rng.integers(1, 4))
        dl_bits = drained * 8.0 + bg_dl * scale
        ul_bits = ul_fraction * drained * 8.0 + (bg_ul + req_bits) * scale
        acks = dl_bits / ack_every_bits
        pkts = int(round((acks + bg_pkts + req_pkts) * scale))
        return ul_bits, dl_bits, pkts

    def _voip_start(self, p: dict[str, float]) -> tuple:
        """The call draws its rate as the flow starts."""
        lo = p["rate_low_bps"]
        rate = lo + (p["rate_high_bps"] - lo) * self._rng.random()
        jitter = p["jitter_bps"]
        return (
            rate,
            -jitter,
            jitter - -jitter,  # rng.uniform(-jitter, jitter)
            p["clamp_low_bps"],
            p["clamp_high_bps"],
            p["pkts_per_interval"],
            self._seconds,
        )

    def _voip_loads(self, scale: float) -> tuple[float, float, int]:
        rate, jit_lo, jit_span, lo, hi, pkts_per_interval, seconds = self._k
        random = self._rng.random
        ul = rate + (jit_lo + jit_span * random())
        dl = rate + (jit_lo + jit_span * random())
        ul = lo if ul < lo else hi if ul > hi else ul
        dl = lo if dl < lo else hi if dl > hi else dl
        pkts = int(round(pkts_per_interval * scale))
        return ul * seconds * scale, dl * seconds * scale, pkts

    def _flood_start(self, p: dict[str, float]) -> tuple:
        return (
            p["pkts_mean"],
            p["pkts_sd"],
            *_span(p, "pkt_bytes_low", "pkt_bytes_high"),
            *_span(p, "dl_low_bps", "dl_high_bps"),
            self._seconds,
        )

    def _flood_loads(self, scale: float) -> tuple[float, float, int]:
        pkts_mean, pkts_sd, bytes_lo, bytes_span, dl_lo, dl_span, seconds = self._k
        rng = self._rng
        random = rng.random
        pkts_full = pkts_mean + pkts_sd * rng.standard_normal()  # rng.normal(mean, sd)
        if pkts_full < 1.0:
            pkts_full = 1.0
        pkt_bytes = bytes_lo + bytes_span * random()
        dl = (dl_lo + dl_span * random()) * seconds * scale
        pkts = int(round(pkts_full * scale))
        return pkts * pkt_bytes * 8.0, dl, pkts

    def _slowloris_start(self, p: dict[str, float]) -> tuple:
        return (
            p["extra_pkt_prob"],
            *_span(p, "pkt_bytes_low", "pkt_bytes_high"),
            p["dl_high_bps"],
            self._seconds,
        )

    def _slowloris_loads(self, scale: float) -> tuple[float, float, int]:
        """A trickle of tiny keep-alive writes, near-silent downlink."""
        extra_pkt_prob, bytes_lo, bytes_span, dl_high, seconds = self._k
        random = self._rng.random
        pkts_full = 2.0 if random() < extra_pkt_prob else 1.0
        pkt_bytes = bytes_lo + bytes_span * random()
        # rng.uniform(0.0, high) is 0.0 + high * r, which adds nothing to a product r >= 0
        dl = dl_high * random() * seconds * scale
        pkts = int(round(pkts_full * scale))
        return pkts * pkt_bytes * 8.0, dl, pkts

    def next_sample(self, timestamp_ms: int, bs_id: int, ue_id: int) -> LabeledSample:
        """Generate the labeled measurement for the interval ending now, then advance."""
        if self._left_ms <= 0 and self._seg_idx + 1 < len(self.script):
            self._start_segment(self._seg_idx + 1)
        self._left_ms -= self.period_ms
        rng = self._rng
        walk = self._walk + (_STEP_LO + _STEP_SPAN * rng.random())
        self._walk = walk = WALK_CAP_DB if walk > WALK_CAP_DB else -WALK_CAP_DB if walk < -WALK_CAP_DB else walk
        sinr = SINR_BASE_DB + walk
        pusch = sinr + 0.3 * rng.standard_normal()
        pucch = sinr - 1.5 + 0.4 * rng.standard_normal()
        cqi = round((pusch + 6.0) / 1.9)
        self._cqi = cqi = 15 if cqi > 15 else 0 if cqi < 0 else cqi  # the wideband CQI report

        t_rel = self._t_rel_ms
        scale = t_rel / TRANSIENT_MS if t_rel < TRANSIENT_MS else 1.0
        ul_bits, dl_bits, ul_pkts = self._loads(self, scale)
        seconds = self._seconds
        offered_ul_bps = ul_bits / seconds
        offered_dl_bps = dl_bits / seconds

        idle, light, base, ul_cap, dl_cap = _LINK[cqi]
        util = offered_ul_bps / ul_cap
        ul_mcs = idle if util <= 0.05 else light if util <= 0.4 else base
        util = offered_dl_bps / dl_cap
        dl_mcs = idle if util <= 0.05 else light if util <= 0.4 else base

        # uplink loss: a floor that rises as the SINR falls below 8 dB, capped at 5%,
        # plus the share of the offered rate above the capacity at the chosen MCS
        p_drop = min(0.05, 0.002 + (8.0 - sinr) * 0.004) if sinr < 8.0 else 0.002
        capacity = _UL_CAPACITY[ul_mcs]
        if offered_ul_bps > capacity:
            p_drop = min(0.95, p_drop + (1.0 - capacity / offered_ul_bps))
        nok = int(rng.binomial(ul_pkts, p_drop)) if ul_pkts > 0 else 0
        ok = ul_pkts - nok
        ul_brate = offered_ul_bps * (1.0 - p_drop)

        self._t_rel_ms += self.period_ms
        sample = KpmSample(  # by position, in field order: cheaper than by name
            timestamp_ms, bs_id, ue_id, cqi, dl_mcs, ul_mcs, pusch, pucch, offered_dl_bps, ul_brate, ok, nok
        )
        return LabeledSample(sample, self.label)


def _span(p: dict[str, float], lo: str, hi: str) -> tuple[float, float]:
    """(low, high - low) of a uniform draw between two parameters."""
    return p[lo], p[hi] - p[lo]


_CLASS_FLOWS = {  # (start, loads) of each class's flows, chosen once per flow
    TrafficClass.WEB: (ScriptedStream._web_start, ScriptedStream._web_loads),
    TrafficClass.VOIP: (ScriptedStream._voip_start, ScriptedStream._voip_loads),
    TrafficClass.DDOS_RIPPER: (ScriptedStream._flood_start, ScriptedStream._flood_loads),
    TrafficClass.DOS_HULK: (ScriptedStream._flood_start, ScriptedStream._flood_loads),
    TrafficClass.SLOWLORIS: (ScriptedStream._slowloris_start, ScriptedStream._slowloris_loads),
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


def build_random_script(
    rng: np.random.Generator,
    classes: Sequence[TrafficClass],
    duration_ms: int,
    *,
    period_ms: int = DEFAULT_PERIOD_MS,
) -> list[ScriptSegment]:
    """Random class sequence covering duration_ms exactly; no same-class repeats.

    Each segment lasts MIN_SEGMENT_MS to MAX_SEGMENT_MS, or the whole duration
    if that is shorter.
    """
    if not 0 < period_ms <= MAX_SEGMENT_MS:
        raise ValueError(f"period_ms must be in 1..{MAX_SEGMENT_MS}, got {period_ms}")
    if not classes:
        raise ValueError("classes must not be empty")
    if duration_ms <= 0 or duration_ms % period_ms != 0:
        raise ValueError(f"duration_ms must be a positive multiple of {period_ms}")
    lo = -(-MIN_SEGMENT_MS // period_ms)  # segment bounds in whole periods
    hi = MAX_SEGMENT_MS // period_ms
    script: list[ScriptSegment] = []
    left = duration_ms
    prev: TrafficClass | None = None
    while left > 0:
        pool = [c for c in classes if c is not prev] or list(classes)
        cls = pool[int(rng.integers(0, len(pool)))]
        seg = min(int(rng.integers(lo, hi + 1)) * period_ms, left)
        if left - seg < MIN_SEGMENT_MS:
            # never strand a sub-minimum tail: absorb it or leave a full minimum
            if left <= MAX_SEGMENT_MS:
                seg = left
            else:
                seg = max(period_ms, (left - MIN_SEGMENT_MS) // period_ms * period_ms)
        script.append(ScriptSegment(cls, seg))
        prev = cls
        left -= seg
    return script
