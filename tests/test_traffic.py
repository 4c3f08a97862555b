"""Generator distribution, channel map, ramp, and script tests."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard.kpm import LabeledSample, TrafficClass
from ranguard.traffic import (
    DEFAULT_PERIOD_MS,
    MAX_SEGMENT_MS,
    MIN_SEGMENT_MS,
    TRANSIENT_MS,
    WALK_CAP_DB,
    ScriptedStream,
    ScriptSegment,
    build_random_script,
    dl_capacity_bps,
    ul_capacity_bps,
)
from traffic_oracle import cqi_from_sinr, mcs_for_load, scripted_samples


def schedule_execution(
    script: Sequence[ScriptSegment], seed: int, *, period_ms: int = DEFAULT_PERIOD_MS
) -> Iterator[LabeledSample]:
    """Labeled measurement stream for a whole script, one sample per period from t = 0."""
    stream = ScriptedStream(script, seed, period_ms=period_ms)
    total_ms = sum(seg.duration_ms for seg in script)
    for t in range(0, total_ms, period_ms):
        yield stream.next_sample(t, 1, 0)


def one_class_stream(cls: TrafficClass, seed: int) -> ScriptedStream:
    """A single-segment script, so the class runs for as long as it is asked."""
    return ScriptedStream([ScriptSegment(cls, 100)], seed)


def steady_stream(cls: TrafficClass, seed: int, n: int):
    """n samples of one flow past its ramp."""
    stream = one_class_stream(cls, seed)
    ramp = TRANSIENT_MS // DEFAULT_PERIOD_MS
    return [stream.next_sample(i * 100, 1, 0).sample for i in range(ramp + n)][ramp:]


# --- channel quality maps ------------------------------------------------------

def test_cqi_map_oracle_points():
    # clamp(round((sinr + 6) / 1.9), 0, 15)
    assert cqi_from_sinr(-20.0) == 0
    assert cqi_from_sinr(-6.0) == 0
    assert cqi_from_sinr(0.0) == 3
    assert cqi_from_sinr(12.7) == 10
    assert cqi_from_sinr(22.5) == 15
    assert cqi_from_sinr(40.0) == 15


@given(st.floats(min_value=-50, max_value=60, allow_nan=False))
def test_cqi_map_matches_formula(sinr):
    assert cqi_from_sinr(sinr) == min(15, max(0, round((sinr + 6.0) / 1.9)))


def test_generated_cqi_tracks_pusch_sinr():
    for cls in TrafficClass:
        for s in steady_stream(cls, 11, 80):
            assert s.cqi == cqi_from_sinr(s.pusch_sinr_db)


def test_capacity_monotone_in_mcs():
    ul = [ul_capacity_bps(m) for m in range(29)]
    dl = [dl_capacity_bps(m) for m in range(29)]
    assert ul == sorted(ul) and len(set(ul)) == 29
    assert dl == sorted(dl) and len(set(dl)) == 29


def test_mcs_load_dependent_not_bijective():
    # same CQI, different offered load -> different MCS
    idle = mcs_for_load(15, 1e3, ul_capacity_bps)
    busy = mcs_for_load(15, 30e6, ul_capacity_bps)
    assert idle == 25 and busy == 28
    assert mcs_for_load(15, 0.2 * ul_capacity_bps(28), ul_capacity_bps) == 27
    assert mcs_for_load(0, 1e3, ul_capacity_bps) == 0  # clamped at floor
    assert 0 <= mcs_for_load(8, 5e6, dl_capacity_bps) <= 28


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_channel_walk_stays_bounded(seed):
    stream = one_class_stream(TrafficClass.SLOWLORIS, seed)
    for i in range(300):
        stream.next_sample(i * 100, 1, 0)
        assert abs(stream._walk) <= WALK_CAP_DB


# --- steady-state class behaviour ----------------------------------------------

def test_voip_steady_rate_band():
    # constant-ish bitrate talk path stays inside its codec band
    for seed in (1, 2, 3):
        for s in steady_stream(TrafficClass.VOIP, seed, 400):
            assert 20e3 <= s.ul_brate_bps <= 170e3
            assert s.ul_pkts_ok + s.ul_pkts_nok == 5


def class_means(n_seeds=3, n=400):
    means = {}
    for cls in TrafficClass:
        ul, dl, pk, ok, drop = [], [], [], [], []
        for seed in range(n_seeds):
            for s in steady_stream(cls, 100 + seed, n):
                ul.append(s.ul_brate_bps)
                dl.append(s.dl_brate_bps)
                pk.append(s.ul_pkts_ok + s.ul_pkts_nok)
                ok.append(s.ul_pkts_ok)
                drop.append(s.ul_drop_ratio)
        means[cls] = dict(
            ul=np.mean(ul), dl=np.mean(dl), pk=np.mean(pk), ok=np.mean(ok),
            drop=np.mean(drop), dl_max=np.max(dl), dl_min=np.min(dl),
        )
    return means


def test_class_uplink_rate_ordering():
    m = class_means()
    assert m[TrafficClass.DOS_HULK]["ul"] > 1.5 * m[TrafficClass.DDOS_RIPPER]["ul"]
    assert m[TrafficClass.DDOS_RIPPER]["ul"] > 5 * m[TrafficClass.WEB]["ul"]
    assert m[TrafficClass.WEB]["ul"] > 1.5 * m[TrafficClass.VOIP]["ul"]
    assert m[TrafficClass.VOIP]["ul"] > 1.5 * m[TrafficClass.SLOWLORIS]["ul"]


def test_flood_packet_counts_dominate_benign():
    m = class_means()
    floor = max(m[c]["pk"] for c in (TrafficClass.WEB, TrafficClass.VOIP, TrafficClass.SLOWLORIS))
    assert m[TrafficClass.DDOS_RIPPER]["ok"] > 2 * floor
    assert m[TrafficClass.DOS_HULK]["ok"] > 2 * floor


def test_hulk_saturates_uplink_with_heavy_loss():
    m = class_means()
    assert m[TrafficClass.DOS_HULK]["drop"] > 0.2
    for cls in (TrafficClass.WEB, TrafficClass.VOIP, TrafficClass.DDOS_RIPPER, TrafficClass.SLOWLORIS):
        assert m[cls]["drop"] < 0.05


def test_slowloris_downlink_nearly_silent():
    m = class_means()
    assert m[TrafficClass.SLOWLORIS]["dl_max"] < 3e3
    assert m[TrafficClass.WEB]["dl_min"] > 10e3  # background keeps web above it even when idle


# --- ramp-up transient ----------------------------------------------------------

@pytest.mark.parametrize("cls", list(TrafficClass))
def test_first_interval_of_a_fresh_flow_is_silent(cls):
    s = one_class_stream(cls, 5).next_sample(0, 1, 0).sample
    assert s.ul_brate_bps == 0.0 and s.dl_brate_bps == 0.0
    assert s.ul_pkts_ok == 0 and s.ul_pkts_nok == 0
    assert 0 <= s.cqi <= 15  # radio stays up even with no traffic


def test_ramp_reaches_steady_state_by_transient_end():
    stream = one_class_stream(TrafficClass.DOS_HULK, 9)
    samples = [stream.next_sample(i * 100, 1, 0).sample for i in range(100)]
    early = np.mean([s.ul_brate_bps for s in samples[:5]])
    steady = np.mean([s.ul_brate_bps for s in samples[10:]])
    assert early < 0.75 * steady
    assert min(s.ul_brate_bps for s in samples[6:]) > 0.5 * steady


def test_steady_flood_is_hot():
    s = steady_stream(TrafficClass.DDOS_RIPPER, 3, 1)[0]
    assert s.ul_brate_bps > 1e6


# --- the generator against its oracle ---------------------------------------------

@st.composite
def scripted_setups(draw) -> tuple[list[ScriptSegment], int]:
    """(script, period_ms) over all five classes."""
    period = draw(st.sampled_from([50, 100, 200]))
    legs = draw(st.lists(st.tuples(st.sampled_from(list(TrafficClass)), st.integers(1, 8)), min_size=1, max_size=4))
    return [ScriptSegment(cls, n * period) for cls, n in legs], period


@given(setup=scripted_setups(), seed=st.integers(0, 2**64 - 1), extra=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_generator_draws_exactly_as_the_oracle(setup, seed, extra):
    script, period = setup
    n = sum(seg.duration_ms for seg in script) // period + extra  # extra: past the script's end
    served_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = ScriptedStream(script, served_rng, period_ms=period)
    served = [stream.next_sample(k * period, 1, 0) for k in range(n)]
    oracle = scripted_samples(script, oracle_rng, n, period_ms=period, transient_ms=TRANSIENT_MS)
    # repr tells 0.0 from -0.0 and 5 from 5.0, which the dataset CSV would also tell apart
    assert [repr(x) for x in served] == [repr(x) for x in oracle]
    assert served_rng.bit_generator.state == oracle_rng.bit_generator.state  # same number of draws


# --- scripts --------------------------------------------------------------------

def test_schedule_execution_is_deterministic():
    script = [ScriptSegment(TrafficClass.WEB, 2000), ScriptSegment(TrafficClass.DOS_HULK, 1500)]
    a = list(schedule_execution(script, seed=42))
    b = list(schedule_execution(script, seed=42))
    c = list(schedule_execution(script, seed=43))
    assert a == b
    assert a != c


def test_schedule_execution_sample_count_and_labels():
    script = [ScriptSegment(TrafficClass.WEB, 1000), ScriptSegment(TrafficClass.VOIP, 1500)]
    rows = list(schedule_execution(script, seed=1))
    assert len(rows) == 25
    assert [r.label for r in rows[:10]] == [TrafficClass.WEB] * 10
    assert [r.label for r in rows[10:]] == [TrafficClass.VOIP] * 15
    assert [r.sample.timestamp_ms for r in rows] == list(range(0, 2500, 100))


def test_each_segment_restarts_the_ramp():
    script = [ScriptSegment(TrafficClass.DOS_HULK, 2000), ScriptSegment(TrafficClass.DDOS_RIPPER, 2000)]
    rows = list(schedule_execution(script, seed=8))
    assert rows[20].sample.ul_brate_bps == 0.0  # first interval of the new flow
    assert rows[19].sample.ul_brate_bps > 1e6


def test_empty_script_rejected():
    with pytest.raises(ValueError, match="empty"):
        list(schedule_execution([], seed=1))


def test_non_multiple_segment_rejected():
    with pytest.raises(ValueError, match="multiple"):
        list(schedule_execution([ScriptSegment(TrafficClass.WEB, 1050)], seed=1))


def test_zero_duration_segment_rejected():
    with pytest.raises(ValueError, match="> 0"):
        ScriptSegment(TrafficClass.WEB, 0)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    duration_s=st.integers(min_value=1, max_value=120),
    period=st.sampled_from([5, 10, 100]),  # bench_latency, CI's bench-latency, every preset
    n_classes=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_random_script_properties(seed, duration_s, period, n_classes):
    rng = np.random.default_rng(seed)
    classes = list(TrafficClass)[:n_classes]
    duration = duration_s * 1000
    script = build_random_script(rng, classes, duration, period_ms=period)
    assert sum(s.duration_ms for s in script) == duration
    for s in script:
        assert s.duration_ms % period == 0
        assert min(MIN_SEGMENT_MS, duration) <= s.duration_ms <= MAX_SEGMENT_MS
        assert s.traffic_class in classes
    if len(classes) > 1:
        for a, b in zip(script, script[1:]):
            assert a.traffic_class is not b.traffic_class


def test_random_script_rejects_bad_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="period_ms"):  # a period longer than the longest segment
        build_random_script(rng, list(TrafficClass), 2 * (MAX_SEGMENT_MS + 100), period_ms=MAX_SEGMENT_MS + 100)
    with pytest.raises(ValueError, match="classes"):
        build_random_script(rng, [], 10000)
    with pytest.raises(ValueError, match="multiple"):
        build_random_script(rng, list(TrafficClass), 10050)
