"""Self-tests of the harness's own logic: python3 -m pytest perfbench -q

Each correctness check is shown to fail on a planted fault, so a passing
benchmark run means the checks looked, not that they cannot fail.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import perftrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from perfstats import late_values, percentile, quiet_periods, self_times, tail, tail_pct  # noqa: E402
from ranguard import pipeline  # noqa: E402
from ranguard.kpm import CLASS_ORDER  # noqa: E402
from ranguard.ransim import CommandAction, RicCommand  # noqa: E402

RELEASE = CommandAction.RRC_RELEASE


# -- arithmetic --


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, 0, 100, -1),
        (1, 10, 30, 0),
        (2, 20, 50, 0),  # overlaps span 1, as a child on another thread can
        (3, 12, 15, 1),
        (4, 90, 120, 0),  # runs past its parent's end
    ]
    assert self_times(spans) == {0: 100 - 40 - 10, 1: 20 - 3, 2: 30, 3: 3, 4: 30}


@pytest.mark.parametrize("n, pct", [(1000, 99), (5000, 99), (100, 90), (80, 87), (20, 50), (19, None)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_pct(n) == pct
    if pct is not None:
        beyond = lambda p: n - math.ceil(p * n / 100)  # noqa: E731
        assert beyond(pct) >= 10
        assert pct == 99 or beyond(pct + 1) < 10


def test_tail_falls_back_to_the_maximum_when_samples_are_few():
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_lost_frames_count_as_infinitely_late():
    sent = [(ue, ts) for ue in range(1, 11) for ts in range(0, 2000, 100)]  # 200 frames
    decided = {key: 5.0 for key in sent}
    assert percentile(late_values(sent, decided), 99) == 5.0
    for key in sent[:3]:
        del decided[key]
    late = late_values(sent, decided)
    assert late.count(math.inf) == 3
    assert percentile(late, 50) == 5.0
    assert percentile(late, 99) == math.inf


def test_a_period_is_quiet_when_neither_it_nor_the_next_saw_steal():
    # steal counters of two CPUs at each period's start, and after the last
    marks = [(0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (2, 1)]
    assert quiet_periods(marks) == [False, False, True, False, False]
    assert quiet_periods([(5, 5)] * 4) == [True, True, True]


def test_a_time_reads_the_same_at_any_host_speed():
    # a host half as fast doubles both the measured call and the kernel next to it
    fast = hostspeed.at_nominal(0.080, hostspeed.NOMINAL_S)
    assert fast == pytest.approx(0.080)
    assert hostspeed.at_nominal(0.160, 2 * hostspeed.NOMINAL_S) == pytest.approx(fast)


def test_kernel_times_lose_a_single_outlier_but_follow_a_swing():
    assert hostspeed.smoothed([3.0, 3.0, 9.0, 3.0, 3.0]) == [3.0, 3.0, 3.0, 3.0, 3.0]
    assert hostspeed.smoothed([3.0, 3.0, 4.0, 4.0, 4.0]) == [3.0, 3.0, 4.0, 4.0, 4.0]
    assert hostspeed.smoothed([2.0]) == [2.0]


def test_reference_kernel_does_fixed_work_independent_of_the_program():
    a, b = hostspeed.ReferenceKernel(), hostspeed.ReferenceKernel()
    assert a.work() == b.work() == a.work()
    wall, cpu = a.seconds()
    assert wall > 0 and cpu >= 0
    assert "ranguard" not in (HERE / "hostspeed.py").read_text()


def test_period_tail_is_the_median_of_each_period_slowest_frame():
    sent = {(ue, t): 0 for t in range(0, 500, 100) for ue in (1, 2)}
    decided = {(ue, t): 10 * ue + t for ue, t in sent}
    assert workloads.period_tail(sent, decided) == 220  # periods end at 20, 120, ..., 420
    del decided[(2, 0)], decided[(2, 100)], decided[(2, 200)]
    assert workloads.period_tail(sent, decided) == math.inf  # lost frames in 3 of 5 periods


# -- spans --


def test_spans_share_their_frame_and_point_at_their_parent():
    tracer = perftrace.Tracer("test")
    inner = lambda: tracer.call("inner", lambda: 7, (), {})  # noqa: E731
    assert tracer.call("outer", inner, (), {}, frame=(1, 2, 300)) == 7
    inner_span, outer_span = tracer.spans
    assert inner_span[1] == "inner" and inner_span[4] == outer_span[0]
    assert inner_span[5] == outer_span[5] == (1, 2, 300)
    assert outer_span[2] <= inner_span[2] <= inner_span[3] <= outer_span[3]


def test_install_wraps_each_layer_and_uninstall_restores_it():
    from ranguard import databus, kpm, ransim, traffic, xapp

    owners = [
        (traffic.ScriptedStream.__dict__, "next_sample"),
        (ransim.BaseStation.__dict__, "tick_samples"),
        (ransim.BaseStation.__dict__, "apply_command"),
        (kpm.KpmSample.__dict__, "to_payload"),
        (kpm.KpmSample.__dict__, "from_payload"),
        (xapp.OnlineClassifier.__dict__, "on_measurement"),
        (vars(xapp), "feature_vector"),
        (vars(databus), "encode_frame"),
        (vars(databus), "decode_frame"),
    ]
    before = [space[name] for space, name in owners]
    tracer = perftrace.Tracer("test")
    uninstall = perftrace.install(tracer)
    try:
        assert all(space[name] is not old for (space, name), old in zip(owners, before))
        frame = databus.DatabusFrame(databus.FrameKind.MEASUREMENT, "kpm.1", 5, {"bs_id": 1, "ue_id": 2, "timestamp_ms": 3})
        databus.decode_frame(databus.encode_frame(frame)[4:])
    finally:
        uninstall()
    assert [space[name] for space, name in owners] == before
    assert [(s[1], s[5]) for s in tracer.spans] == [("databus.encode", (1, 2, 3)), ("databus.decode", (1, 2, 3))]


# -- planted faults: attack_demo_virtual --


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "train.csv"
    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=120_000), path)
    rows = workloads.read_dataset(path)
    model, _ = pipeline.train_model(rows, pipeline.TrainOptions(algo="dt", max_depth=10))
    return model


class FlipOne:
    """Model proxy that answers one predict call with a different class."""

    def __init__(self, model, call: int) -> None:
        self.model, self.call, self.calls = model, call, 0

    def predict(self, x):
        self.calls += 1
        label = self.model.predict(x)
        return (label + 1) % len(CLASS_ORDER) if self.calls == self.call else label


def test_raw_label_check_catches_a_flipped_label(small_model):
    config = pipeline.attack_demo_scenario(3)

    def check(model):
        result = pipeline.closed_loop(config, model, CLASS_ORDER)
        rows, diverged = workloads.replay_rows(config, result)
        assert diverged == []
        raw = [CLASS_ORDER.index(d.raw) for d in result.decisions]
        return workloads.check_raw_labels(small_model, [np.asarray(rows)], [np.asarray(raw)])

    assert check(small_model) == []
    assert check(FlipOne(small_model, 10)) != []


def test_replay_catches_a_decision_the_station_never_produced(small_model):
    config = pipeline.attack_demo_scenario(3)
    result = pipeline.closed_loop(config, small_model, CLASS_ORDER)
    shifted = list(result.decisions)
    shifted[5] = SimpleNamespace(ue_id=9, timestamp_ms=shifted[5].timestamp_ms, command=None)
    _, diverged = workloads.replay_rows(config, SimpleNamespace(decisions=shifted))
    assert diverged


def decision(ue, ts, release=False):
    command = SimpleNamespace(action=RELEASE) if release else None
    return SimpleNamespace(ue_id=ue, timestamp_ms=ts, command=command)


def demo_result(releases):
    """Benign ue 1 and attacker ue 2 (onset 2000 ms), 40 decisions each."""
    decisions = [decision(ue, ts, (ue, ts) in releases) for ts in range(0, 4000, 100) for ue in (1, 2)]
    segments = [
        SimpleNamespace(ue_id=1, start_ms=0, end_ms=4000, label=CLASS_ORDER[0]),
        SimpleNamespace(ue_id=2, start_ms=0, end_ms=2000, label=CLASS_ORDER[0]),
        SimpleNamespace(ue_id=2, start_ms=2000, end_ms=4000, label=CLASS_ORDER[3]),
    ]
    released = any(ue == 2 and ts >= 2000 for ue, ts in releases)
    episodes = [SimpleNamespace(ue_id=2, start_ms=2000, released=released)]
    return SimpleNamespace(decisions=decisions, segments=segments, episodes=episodes)


def test_release_check_passes_a_clean_run_and_counts_cold_starts():
    assert workloads.check_closed_loop(demo_result({(2, 2500)}), 5) == ([], 0)
    assert workloads.check_closed_loop(demo_result({(2, 2500), (1, 200)}), 5) == ([], 1)
    # a cold-start release of the attacker pre-empts its episode
    assert workloads.check_closed_loop(demo_result({(2, 200)}), 5) == ([], 1)


@pytest.mark.parametrize(
    "releases",
    [
        {(2, 2500), (1, 1500)},  # benign UE released with a full window
        {(2, 1500)},  # attacker released before its onset
        set(),  # attack never released
        {(2, 2500), (2, 3000)},  # released twice
    ],
)
def test_release_check_catches_planted_faults(releases):
    problems, _ = workloads.check_closed_loop(demo_result(releases), 5)
    assert problems


# -- planted faults: cell_loopback --


def cell_case():
    sent = {(ue, ts): 1000 * ts for ue in (1, 2, 3) for ts in range(0, 3000, 100)}
    log = [
        {"ue_id": ue, "timestamp_ms": ts, "command": "", "t_d_us": 500}
        for ue, ts in sorted(sent, key=lambda k: k[1])
    ]
    for row in log:
        if (row["ue_id"], row["timestamp_ms"]) == (3, 2000):
            row["command"] = RELEASE.value
    applied = [RicCommand(3, RELEASE, 1, 1)]
    return sent, log, applied, {3: 1500}


def test_cell_check_passes_a_clean_run():
    sent, log, applied, onsets = cell_case()
    problems, decided, cold = workloads.check_cell(sent, log, applied, onsets, 5)
    assert (problems, len(decided), cold) == ([], len(sent), 0)


def test_cell_check_counts_a_dropped_decision_as_lost():
    sent, log, applied, onsets = cell_case()
    del log[7]
    problems, decided, _ = workloads.check_cell(sent, log, applied, onsets, 5)
    assert problems == [] and len(sent) - len(decided) == 1


@pytest.mark.parametrize("fault", ["phantom", "twice", "benign", "unreleased", "lost_command"])
def test_cell_check_catches_planted_faults(fault):
    sent, log, applied, onsets = cell_case()
    if fault == "phantom":
        log.append({"ue_id": 9, "timestamp_ms": 0, "command": "", "t_d_us": 1})
    elif fault == "twice":
        log.append(dict(log[0]))
    elif fault == "benign":
        log[60]["command"] = RELEASE.value  # ue 1 at 2000 ms, window full
        applied.append(RicCommand(log[60]["ue_id"], RELEASE, 2, 2))
    elif fault == "unreleased":
        applied.clear()
        for row in log:
            row["command"] = ""
    else:
        applied.clear()
    problems, _, _ = workloads.check_cell(sent, log, applied, onsets, 5)
    assert problems


def test_cold_start_releases_fail_beyond_the_cap():
    assert workloads.cold_start_problems(2, 25) == []
    assert workloads.cold_start_problems(3, 25) != []
    assert workloads.cold_start_problems(6, 400) == []
    assert workloads.cold_start_problems(7, 400) != []


def test_cell_check_fails_when_every_ue_releases_on_a_cold_start():
    sent, log, _, onsets = cell_case()
    for row in log:
        row["command"] = RELEASE.value if row["timestamp_ms"] == 100 else ""
    applied = [RicCommand(ue, RELEASE, 1, 1) for ue in (1, 2, 3)]
    problems, _, cold = workloads.check_cell(sent, log, applied, onsets, 5)
    assert cold == 3 and problems


def test_t_d_identity_check_catches_a_wrong_total():
    stamps = [[1, 0, 100, 150, 160, 190, 200, 700]]
    t_d = 2 * ((150 - 100) + (190 - 160)) + 2 * (160 - 150) + (700 - 200)
    assert workloads.check_t_d_identity(stamps, {(1, 0): t_d}) == []
    assert workloads.check_t_d_identity(stamps, {(1, 0): t_d + 1}) != []


# -- layer separation and the metric tables --


def summary(**calls):
    return {name.replace("_", "."): {"dur": [1] * n, "self": [1] * n} for name, n in calls.items()}


def test_layer_separation_check():
    assert run.separation_problems("attack_demo_virtual", summary(ml_predict=5)) == []
    assert run.separation_problems("attack_demo_virtual", summary(ml_predict=5, databus_encode=1)) != []
    assert run.separation_problems("cell_loopback", summary(databus_decode=5, ml_predict=1)) == []
    assert run.separation_problems("cell_loopback", summary(databus_decode=5)) != []


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
