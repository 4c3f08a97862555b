"""Pipeline tests: presets, dataset collection, training, evaluation, closed loop, bench."""

from __future__ import annotations

import csv
import hashlib
import stat
import threading
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranguard import databus, pipeline
from ranguard.databus import Broker, BusClient, DatabusFrame, FrameKind, now_us
from ranguard.kpm import (
    ATTACK_CLASSES,
    CLASS_ORDER,
    KpmSample,
    TrafficCategory,
    TrafficClass,
    category_of,
    read_dataset,
)
from ranguard.ml import load_model, save_model
from ranguard.ransim import CommandAction, TimeMode, build_station, labeled_stream
from ranguard.xapp import PolicyMap
from file_oracle import traced_peak, write_dataset_whole
from xapp_oracle import frame_route_decisions


@pytest.fixture(scope="module")
def train_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=60_000), path)
    return read_dataset(path)


@pytest.fixture(scope="module")
def dt_model(train_rows):
    model, _ = pipeline.train_model(train_rows, pipeline.TrainOptions(algo="dt"))
    return model


class ParrotModel:
    """predict_batch returns a canned vector; lets tests pin exact predictions."""

    n_features = 10

    def __init__(self, answers):
        self.answers = np.asarray(answers, dtype=np.int64)

    def predict(self, x):
        return int(self.answers[0])

    def predict_batch(self, X):
        return self.answers[: X.shape[0]]


# -- presets --


def test_one_ue_preset_shape():
    config = pipeline.one_ue_scenario(7)
    assert config.duration_ms == 600_000
    assert config.seed == 7
    assert [u.ue_id for u in config.ues] == [1]
    assert config.ues[0].script is None


def test_two_ue_preset_shape():
    config = pipeline.two_ue_scenario()
    assert [u.ue_id for u in config.ues] == [1, 2]
    assert all(u.script is None for u in config.ues)


def test_attack_demo_attacker_turns_hostile_once():
    config = pipeline.attack_demo_scenario(0)
    benign_ue, attacker = config.ues
    assert benign_ue.script is None
    assert set(benign_ue.classes) <= set(pipeline.BENIGN_CLASSES)
    lead, tail = attacker.script
    assert category_of(lead.traffic_class) is TrafficCategory.BENIGN
    assert category_of(tail.traffic_class) is TrafficCategory.ATTACK
    assert 2000 <= lead.duration_ms <= 4000
    assert lead.duration_ms % 100 == 0
    assert lead.duration_ms + tail.duration_ms == config.duration_ms


def test_attack_demo_seed_varies_onset_and_class():
    scripts = {pipeline.attack_demo_scenario(s).ues[1].script for s in range(12)}
    onsets = {script[0].duration_ms for script in scripts}
    attacks = {script[1].traffic_class for script in scripts}
    assert len(onsets) > 1
    assert len(attacks) > 1


def test_attack_demo_rejects_too_short_run():
    with pytest.raises(ValueError, match="4 s of attack"):
        pipeline.attack_demo_scenario(0, duration_ms=5000)


# -- collect --


def test_collect_row_count_and_round_trip(tmp_path):
    path = tmp_path / "ds.csv"
    n = pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=20_000), path)
    assert n == 200
    rows = read_dataset(path)
    assert len(rows) == 200
    assert {r.label for r in rows} <= set(CLASS_ORDER)


def test_collect_two_ue_interleaves_both(tmp_path):
    path = tmp_path / "ds2.csv"
    n = pipeline.collect(pipeline.two_ue_scenario(1, duration_ms=10_000), path)
    assert n == 200
    rows = read_dataset(path)
    assert {r.sample.ue_id for r in rows} == {1, 2}


def fail_mid_write(monkeypatch, target: Path) -> None:
    """Make collect's stream raise after 300 rows, once some are on disk beside `target`."""

    def stream(config):
        yield from islice(labeled_stream(config), 300)
        # about 30 KB of rows: more than the file buffer, so the write is under way
        assert any(f != target and f.stat().st_size > 0 for f in target.parent.iterdir())
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(pipeline, "labeled_stream", stream)


def test_collect_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "partial.csv"
    fail_mid_write(monkeypatch, path)
    with pytest.raises(RuntimeError, match="disk on fire"):
        pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=60_000), path)
    assert list(tmp_path.iterdir()) == []  # neither the target nor the temporary file


def test_failed_collect_keeps_the_existing_dataset(tmp_path, monkeypatch):
    path = tmp_path / "existing.csv"
    path.write_text("the dataset of an earlier run\n")
    fail_mid_write(monkeypatch, path)
    with pytest.raises(RuntimeError, match="disk on fire"):
        pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=60_000), path)
    assert path.read_text() == "the dataset of an earlier run\n"
    assert list(tmp_path.iterdir()) == [path]


def test_collect_replaces_an_existing_dataset(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("the dataset of an earlier run\n")
    assert pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=1000), path) == 10
    assert len(read_dataset(path)) == 10
    assert list(tmp_path.iterdir()) == [path]


def test_collect_writes_through_a_symlink(tmp_path):
    # a link (or a device such as /dev/null) is written in place, not replaced by a rename
    target, link = tmp_path / "ds.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=1000), link) == 10
    assert link.is_symlink()
    assert len(read_dataset(target)) == 10


def test_collect_file_has_the_mode_of_a_plain_open(tmp_path):
    config = pipeline.one_ue_scenario(0, duration_ms=1000)
    pipeline.collect(config, tmp_path / "ds.csv")
    (tmp_path / "plain.csv").open("w").close()
    assert (tmp_path / "ds.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
    # an existing file keeps its own mode when collect replaces it
    (tmp_path / "private.csv").write_text("the dataset of an earlier run\n")
    (tmp_path / "private.csv").chmod(0o600)
    pipeline.collect(config, tmp_path / "private.csv")
    assert stat.S_IMODE((tmp_path / "private.csv").stat().st_mode) == 0o600
    assert len(read_dataset(tmp_path / "private.csv")) == 10


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(["one_ue", "two_ue"]),
    seed=st.integers(0, 2**16),
    periods=st.integers(1, 200),  # a scenario lasts at least one period
)
def test_collect_equals_the_whole_list_writer(tmp_path_factory, preset, seed, periods):
    config = pipeline.PRESETS[preset](seed, duration_ms=periods * 100)
    folder = tmp_path_factory.mktemp("collect")
    n = pipeline.collect(config, folder / "streamed.csv")
    rows = list(labeled_stream(config))
    write_dataset_whole(folder / "whole.csv", rows)
    assert n == len(rows)
    assert (folder / "streamed.csv").read_bytes() == (folder / "whole.csv").read_bytes()


def test_collect_memory_does_not_grow_with_the_run(tmp_path):
    # the whole-list writer peaked at 2.25 MB over 120 s and 13.8 MB over 1200 s
    def peak(seconds: int) -> int:
        config = pipeline.one_ue_scenario(0, duration_ms=seconds * 1000)
        return traced_peak(lambda: pipeline.collect(config, tmp_path / f"{seconds}.csv"))

    assert peak(1200) - peak(120) < 500_000


# -- training --


def test_dataset_matrix_shapes_and_labels(train_rows):
    X, y = pipeline.dataset_matrix(train_rows)
    assert X.shape == (len(train_rows), 10)
    assert X.dtype == np.float64
    assert y.dtype == np.int64
    assert set(np.unique(y)) <= set(range(len(CLASS_ORDER)))
    assert y[0] == CLASS_ORDER.index(train_rows[0].label)


def test_dataset_matrix_rejects_empty():
    with pytest.raises(ValueError, match="no rows"):
        pipeline.dataset_matrix([])


def test_train_options_rejects_unknown_algo():
    with pytest.raises(ValueError, match="algo"):
        pipeline.TrainOptions(algo="svm")


@pytest.mark.parametrize("algo", pipeline.ALGO_CHOICES)
def test_train_model_every_algo_predicts(train_rows, algo):
    options = pipeline.TrainOptions(algo=algo, trees=10, rounds=5, max_depth=8)
    model, summary = pipeline.train_model(train_rows[:300], options)
    assert summary.algo == algo
    assert summary.n_samples == 300
    assert summary.n_features == 10
    assert model.n_features == 10
    X, y = pipeline.dataset_matrix(train_rows[:50])
    preds = model.predict_batch(X)
    assert preds.shape == (50,)
    assert set(np.unique(preds)) <= set(range(len(CLASS_ORDER)))


def test_train_file_round_trip(tmp_path, train_rows):
    dataset = tmp_path / "ds.csv"
    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=20_000), dataset)
    model_path = tmp_path / "model.json"
    summary = pipeline.train(dataset, model_path, pipeline.TrainOptions(algo="dt"))
    assert summary.n_samples == 200
    model, classes = pipeline.load_online_model(model_path)
    assert classes == CLASS_ORDER
    X, _ = pipeline.dataset_matrix(train_rows[:5])
    assert 0 <= int(model.predict(X[0])) < len(CLASS_ORDER)


@pytest.mark.parametrize("algo", ["rf", "dt", "ada"])
def test_load_online_model_compiles_the_vote_before_the_first_frame(tmp_path, train_rows, algo):
    model, _ = pipeline.train_model(train_rows, pipeline.TrainOptions(algo=algo, trees=5, rounds=5))
    model_path = tmp_path / "model.json"
    save_model(model, model_path, [c.value for c in CLASS_ORDER])
    assert "_vote" not in load_model(model_path).model.__dict__  # built on first use
    served, _ = pipeline.load_online_model(model_path)
    assert "_vote" in served.__dict__


# -- evaluation --


def test_evaluate_perfect_predictions_are_diagonal(train_rows):
    rows = train_rows[:120]
    truth = [CLASS_ORDER.index(r.label) for r in rows]
    report = pipeline.evaluate(
        ParrotModel(truth), [c.value for c in CLASS_ORDER], rows, delta_i_samples=0
    )
    assert report.accuracy == 1.0
    assert report.binary_f1 == 1.0
    assert int(np.trace(report.five_class.counts)) == len(rows)
    assert report.five_class.counts.sum() == len(rows)


def test_evaluate_binary_is_block_sum_of_five_class(dt_model, tmp_path):
    path = tmp_path / "held.csv"
    pipeline.collect(pipeline.two_ue_scenario(1, duration_ms=15_000), path)
    rows = read_dataset(path)
    report = pipeline.evaluate(
        dt_model, [c.value for c in CLASS_ORDER], rows, delta_i_samples=0
    )
    five, binary = report.five_class, report.binary
    cats = [category_of(TrafficClass(l)).value for l in five.labels]
    for gi, g_true in enumerate(binary.labels):
        for gj, g_pred in enumerate(binary.labels):
            block = sum(
                int(five.counts[i, j])
                for i in range(len(cats))
                for j in range(len(cats))
                if cats[i] == g_true and cats[j] == g_pred
            )
            assert int(binary.counts[gi, gj]) == block
    assert binary.total == five.total == len(rows)


def test_evaluate_rejects_feature_mismatch(train_rows):
    bad = ParrotModel([0] * 10)
    bad.n_features = 7
    with pytest.raises(ValueError, match="7 features"):
        pipeline.evaluate(bad, [c.value for c in CLASS_ORDER], train_rows[:10], delta_i_samples=0)


def test_evaluate_rejects_empty_rows(dt_model):
    with pytest.raises(ValueError, match="no rows"):
        pipeline.evaluate(dt_model, [c.value for c in CLASS_ORDER], [], delta_i_samples=0)


def test_inference_quantiles_orders_and_validates(dt_model, train_rows):
    X, _ = pipeline.dataset_matrix(train_rows[:50])
    med, p99 = pipeline.inference_quantiles(dt_model, X, n=200)
    assert 0 < med <= p99
    with pytest.raises(ValueError, match="n must be"):
        pipeline.inference_quantiles(dt_model, X, n=0)


def evaluate_files(model_path: Path, dataset_path: Path, *, delta_i_samples: int) -> pipeline.EvalReport:
    """evaluate() on a model file and a dataset CSV."""
    loaded = load_model(model_path)
    return pipeline.evaluate(
        loaded.model, loaded.class_labels, read_dataset(dataset_path), delta_i_samples=delta_i_samples
    )


def test_evaluate_files_round_trip(tmp_path):
    dataset = tmp_path / "ds.csv"
    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=20_000), dataset)
    model_path = tmp_path / "model.json"
    pipeline.train(dataset, model_path, pipeline.TrainOptions(algo="dt"))
    report = evaluate_files(model_path, dataset, delta_i_samples=50)
    assert report.n_samples == 200
    assert report.accuracy > 0.9
    assert report.delta_i_median_us > 0


# -- closed loop --


@pytest.fixture(scope="module")
def demo_result(dt_model):
    return pipeline.closed_loop(pipeline.attack_demo_scenario(3), dt_model, CLASS_ORDER)


def test_closed_loop_releases_attacker_exactly_once(demo_result):
    releases = [c for c in demo_result.commands if c.action is CommandAction.RRC_RELEASE]
    assert len(releases) == 1
    assert releases[0].ue_id == 2
    assert demo_result.released_ues == frozenset({2})
    assert demo_result.false_releases == ()


def test_closed_loop_episode_is_scored(demo_result):
    (episode,) = demo_result.episodes
    assert episode.ue_id == 2
    assert episode.released
    assert episode.start_ms <= episode.applied_ms < episode.end_ms
    assert episode.detect_ms == pytest.approx(episode.applied_ms - episode.start_ms)
    assert episode.detect_ms > 0


def test_closed_loop_truths_align_with_ground_truth(demo_result):
    assert len(demo_result.truths) == len(demo_result.decisions)
    by_ue = {}
    for seg in demo_result.segments:
        by_ue.setdefault(seg.ue_id, []).append(seg)
    for decision, truth in zip(demo_result.decisions, demo_result.truths):
        seg = next(
            s
            for s in by_ue[decision.ue_id]
            if s.start_ms <= decision.timestamp_ms < s.end_ms
        )
        assert truth is seg.label


def test_closed_loop_latency_trace_identity(demo_result):
    for decision in demo_result.decisions:
        trace = decision.trace
        assert trace.t_d_us == trace.t_n_us + 2 * trace.delta_d_us + trace.delta_i_us
        assert trace.t_d_us == 3620  # the virtual loop's fixed legs
    assert demo_result.latency.count == len(demo_result.decisions)
    assert demo_result.latency.over_budget == 0


def test_closed_loop_released_ue_stops_reporting(demo_result):
    (episode,) = demo_result.episodes
    after = [d for d in demo_result.decisions if d.ue_id == 2]
    last_decision_ms = max(d.timestamp_ms for d in after)
    # one tick may land between command and application; none after that
    assert last_decision_ms <= episode.applied_ms + 100


def test_closed_loop_detection_only_policy_never_releases(dt_model):
    policy = PolicyMap(dict.fromkeys(ATTACK_CLASSES, CommandAction.FORWARD))
    result = pipeline.closed_loop(
        pipeline.attack_demo_scenario(3), dt_model, CLASS_ORDER, policy=policy
    )
    assert result.released_ues == frozenset()
    assert all(c.action is CommandAction.FORWARD for c in result.commands)
    # full coverage: both UEs report for the whole run
    expected = 2 * (result.config.duration_ms // result.config.period_ms)
    assert len(result.decisions) == expected


def test_closed_loop_rejects_real_time_config(dt_model):
    config = replace(pipeline.attack_demo_scenario(0), time_mode=TimeMode.REAL)
    with pytest.raises(ValueError, match="virtual-time"):
        pipeline.closed_loop(config, dt_model, CLASS_ORDER)


def test_closed_loop_rejects_a_model_without_predict_before_the_station(monkeypatch):
    def no_station(config):
        raise AssertionError("the station was built")

    monkeypatch.setattr(pipeline, "build_station", no_station)
    for model in (None, object()):
        with pytest.raises(ValueError, match="predict"):
            pipeline.closed_loop(pipeline.attack_demo_scenario(0), model, CLASS_ORDER)


def test_closed_loop_builds_no_measurement_frame(dt_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the virtual loop went through the bus route")

    monkeypatch.setattr(KpmSample, "to_payload", refuse)
    monkeypatch.setattr(KpmSample, "from_payload", classmethod(refuse))
    monkeypatch.setattr(DatabusFrame, "__post_init__", refuse)  # no frame of any kind, events included
    result = pipeline.closed_loop(pipeline.attack_demo_scenario(3), dt_model, CLASS_ORDER)
    assert result.commands


@pytest.fixture(scope="module")
def tree_models(train_rows):
    options = {"dt": {}, "rf": {"trees": 15}, "ada": {"rounds": 10}}
    return {
        algo: pipeline.train_model(train_rows, pipeline.TrainOptions(algo=algo, max_depth=10, **kw))[0]
        for algo, kw in options.items()
    }


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    algo=st.sampled_from(["dt", "rf", "ada"]),
    window=st.integers(1, 8),
    dwell=st.integers(1, 6),
    actions=st.lists(st.sampled_from(list(CommandAction)), min_size=len(ATTACK_CLASSES), max_size=len(ATTACK_CLASSES)),
)
def test_closed_loop_decides_as_the_frame_route(tree_models, seed, algo, window, dwell, actions):
    config = pipeline.attack_demo_scenario(seed)
    policy = PolicyMap(dict(zip(ATTACK_CLASSES, actions)), window=window, dwell=dwell)
    model = tree_models[algo]
    result = pipeline.closed_loop(config, model, CLASS_ORDER, policy=policy)
    assert list(result.decisions) == frame_route_decisions(config, model, CLASS_ORDER, policy)


def test_attack_spans_merge_adjacent_segments():
    from ranguard.xapp import GroundTruthSegment

    segs = [
        GroundTruthSegment(1, 0, 1000, TrafficClass.WEB),
        GroundTruthSegment(1, 1000, 2000, TrafficClass.DOS_HULK),
        GroundTruthSegment(1, 2000, 3000, TrafficClass.SLOWLORIS),
        GroundTruthSegment(1, 3000, 4000, TrafficClass.VOIP),
        GroundTruthSegment(2, 2000, 3000, TrafficClass.DDOS_RIPPER),
    ]
    spans = pipeline._attack_spans(segs)
    assert [(s.ue_id, s.start_ms, s.end_ms, s.label) for s in spans] == [
        (1, 1000, 3000, TrafficClass.DOS_HULK),
        (2, 2000, 3000, TrafficClass.DDOS_RIPPER),
    ]


# -- reports --


def test_report_files_and_determinism(demo_result, dt_model, tmp_path):
    paths = pipeline.write_closed_loop_report(demo_result, tmp_path / "a")
    with paths["predictions"].open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(demo_result.decisions)
    assert tuple(rows[0]) == pipeline.PREDICTION_LOG_HEADER
    assert {r["true_label"] for r in rows} <= {c.value for c in CLASS_ORDER}
    command_rows = [r for r in rows if r["command"]]
    assert [r["command"] for r in command_rows] == ["rrc_release"]

    with paths["cdf"].open() as fh:
        cdf_rows = list(csv.DictReader(fh))
    fracs = [float(r["fraction"]) for r in cdf_rows]
    assert fracs == sorted(fracs)
    assert all(0 <= f <= 1 for f in fracs)

    with paths["episodes"].open() as fh:
        episode_rows = list(csv.DictReader(fh))
    assert len(episode_rows) == len(demo_result.episodes)
    assert episode_rows[0]["released"] == "1"

    again = pipeline.closed_loop(pipeline.attack_demo_scenario(3), dt_model, CLASS_ORDER)
    paths2 = pipeline.write_closed_loop_report(again, tmp_path / "b")
    for key in paths:
        assert paths[key].read_bytes() == paths2[key].read_bytes()


def test_report_applied_time_matches_command_log(demo_result, tmp_path):
    paths = pipeline.write_closed_loop_report(demo_result, tmp_path)
    with paths["predictions"].open() as fh:
        command_row = next(r for r in csv.DictReader(fh) if r["command"])
    (episode,) = demo_result.episodes
    t_d_ms = int(command_row["T_d_us"]) / 1000
    assert episode.applied_ms == pytest.approx(int(command_row["timestamp_ms"]) + t_d_ms)


# -- latency bench over real TCP --


def test_bench_latency_validates_arguments(dt_model):
    with pytest.raises(ValueError, match="frames"):
        pipeline.bench_latency(dt_model, CLASS_ORDER, frames=0)
    with pytest.raises(ValueError, match="period_ms"):
        pipeline.bench_latency(dt_model, CLASS_ORDER, frames=10, period_ms=0)


def test_bench_latency_measures_real_loopback(dt_model):
    report = pipeline.bench_latency(dt_model, CLASS_ORDER, frames=60, period_ms=3)
    assert report.count == 60
    assert report.t_d.median_us > 0
    assert report.t_d.p99_us >= report.t_d.median_us
    assert report.t_d.p99_us < 1_000_000  # a loopback frame never needs the full second


def test_bench_latency_waits_a_period_longer_than_its_slack(dt_model):
    # a fixed 2 s wait read the gap between two frames as the end of the stream, and timed 1 frame
    report = pipeline.bench_latency(dt_model, CLASS_ORDER, frames=2, period_ms=2100)
    assert report.count == 2


class SlowFirstPredict:
    """A model whose first predict takes 0.3 s, as a cold vote compile can."""

    def __init__(self, model) -> None:
        self.model = model
        self.n_features = model.n_features
        self.cold = True

    def predict(self, x):
        if self.cold:
            self.cold = False
            time.sleep(0.3)
        return self.model.predict(x)


def test_bench_latency_warms_the_model_before_timing(dt_model):
    # a cold first predict holds up the frames queued behind it: without the warm-up, p99 T_d read 577 ms
    report = pipeline.bench_latency(SlowFirstPredict(dt_model), CLASS_ORDER, frames=60, period_ms=10)
    assert report.count == 60
    assert report.t_d.p99_us < 150_000


class FailsOnThirdPredict:
    """A model that raises on its third predict: the warm-up and the first frame pass."""

    def __init__(self, model) -> None:
        self.model = model
        self.n_features = model.n_features
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("model failed")
        return self.model.predict(x)


def test_bench_latency_station_ends_quietly_when_the_bench_stops_early(dt_model, monkeypatch):
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    with pytest.raises(RuntimeError, match="model failed"):
        pipeline.bench_latency(FailsOnThirdPredict(dt_model), CLASS_ORDER, frames=200, period_ms=10)
    for thread in threading.enumerate():
        if thread.name == "bench-station":
            thread.join(timeout=10.0)  # its bus closed under it, mid-scenario
            assert not thread.is_alive()
    assert errors == []


# -- live xApp runner --


def test_run_xapp_classifies_and_commands_over_bus(dt_model, tmp_path):
    config = pipeline.attack_demo_scenario(3, duration_ms=8000)
    bs = build_station(config)
    log_path = tmp_path / "log.csv"
    outcome = {}
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as pub, BusClient.connect(host, port) as watcher:
            ctrl_sub = watcher.subscribe(bs.ctrl_topic)

            def serve():
                outcome["stats"] = pipeline.run_xapp(
                    dt_model,
                    CLASS_ORDER,
                    broker_host=host,
                    broker_port=port,
                    log_path=log_path,
                    idle_timeout_s=1.0,
                )

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            # malformed probes on another station's topic until one is delivered,
            # which proves the kpm.* subscription is registered
            base_out = broker.stats().frames_out
            for attempt in range(250):
                pub.publish(FrameKind.MEASUREMENT, "kpm.9", {"probe": attempt})
                time.sleep(0.02)
                if broker.stats().frames_out > base_out:
                    break
            else:
                pytest.fail("kpm.* subscription never registered")
            for k in range(80):
                for frame in bs.tick(k * 100, t_sent_us=now_us()):
                    pub.publish(frame.kind, frame.topic, frame.payload, frame.t_sent_us)
            pub.publish(FrameKind.MEASUREMENT, bs.kpm_topic, {"nonsense": True})
            server.join(timeout=30)
            command_frame = ctrl_sub.poll(timeout=2.0)
    stats = outcome["stats"]
    assert stats.decisions == 160
    assert stats.commands == 1
    # every non-measurement frame (probes + trailing nonsense) was counted malformed
    assert stats.malformed == stats.frames - stats.decisions
    assert stats.malformed >= 2
    assert command_frame is not None
    assert command_frame.topic == bs.ctrl_topic
    assert command_frame.payload["action"] == "rrc_release"
    assert command_frame.payload["ue_id"] == 2
    with log_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 160
    assert all(r["true_label"] == "" for r in rows)
    assert sum(1 for r in rows if r["command"]) == 1


def test_run_xapp_counts_the_frames_its_full_queue_dropped(monkeypatch):
    class GatedModel:
        """Holds the xApp at its first decision until the gate opens."""

        def __init__(self) -> None:
            self.gate = threading.Event()

        def predict(self, features) -> int:
            self.gate.wait(30.0)
            return 0

    model = GatedModel()
    bs = build_station(pipeline.attack_demo_scenario(3, duration_ms=8000))
    outcome = {}
    monkeypatch.setattr(databus, "QUEUE_FRAMES", 8)
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as pub:

            def serve():
                outcome["stats"] = pipeline.run_xapp(
                    model, CLASS_ORDER, broker_host=host, broker_port=port, idle_timeout_s=1.0
                )

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            for attempt in range(250):  # probes until one is delivered: the subscription is registered
                pub.publish(FrameKind.MEASUREMENT, "kpm.9", {"probe": attempt})
                time.sleep(0.02)
                if broker.stats().frames_out:
                    break
            else:
                pytest.fail("kpm.* subscription never registered")
            pad = "x" * 4096  # a transport key the xApp ignores; it fills the socket buffers sooner
            t = 0
            while broker.stats().dropped == 0 and t < 2_000_000:  # the xApp is held at its first frame
                for frame in bs.tick(t, t_sent_us=now_us()):
                    pub.publish(frame.kind, frame.topic, dict(frame.payload, pad=pad), frame.t_sent_us)
                t += 100
            model.gate.set()
            server.join(timeout=30)
        published = broker.stats()
    stats = outcome["stats"]
    assert published.dropped > 0  # the broker's queue for the xApp overflowed
    assert stats.dropped == published.dropped  # and the xApp reports every frame it lost
    assert stats.frames == published.frames_out  # the only subscriber read every delivery
    assert stats.decisions == stats.frames - 1  # all but the probe


def test_run_xapp_idle_timeout_returns_quickly(dt_model):
    with Broker(port=0) as broker:
        host, port = broker.address
        stats = pipeline.run_xapp(
            dt_model, CLASS_ORDER, broker_host=host, broker_port=port, idle_timeout_s=0.2
        )
    assert stats.frames == 0
    assert stats.decisions == 0
    assert stats.dropped == 0


# sha256 over every file below, in order, each prefixed by its name; taken before the
# KPM field table replaced the hand-written codecs, and unchanged by it (numpy 2.x, CPython 3.11)
GOLDEN_DIGEST = "78e46b334be306da9acd776560d863f1112f2f583942611c155b5925f61feb88"


def test_dataset_models_and_reports_are_byte_identical(tmp_path):
    digest, files = hashlib.sha256(), []
    labels = [c.value for c in CLASS_ORDER]

    def add(path: Path) -> None:
        files.append(path.relative_to(tmp_path).as_posix())
        digest.update(files[-1].encode() + b"\0" + path.read_bytes())

    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=120_000), tmp_path / "train.csv")
    add(tmp_path / "train.csv")
    rows = read_dataset(tmp_path / "train.csv")
    for algo in ("dt", "ada"):
        model, _ = pipeline.train_model(rows, pipeline.TrainOptions(algo=algo))
        save_model(model, tmp_path / f"{algo}.model", labels)
        add(tmp_path / f"{algo}.model")
        for seed in range(3):
            result = pipeline.closed_loop(pipeline.attack_demo_scenario(seed), model, CLASS_ORDER)
            paths = pipeline.write_closed_loop_report(result, tmp_path / f"{algo}-{seed}")
            for key in sorted(paths):
                add(paths[key])
    assert len(files) == 1 + 2 * (1 + 3 * 4)
    assert digest.hexdigest() == GOLDEN_DIGEST, f"digest {digest.hexdigest()} over {files}"


# sha256 of a 10-tree forest's model file on the same 120 s dataset; taken before the split
# search moved to per-column rank codes, and unchanged by it (numpy 2.x, CPython 3.11)
FOREST_DIGEST = "ef76068763f84375e648c42a6db062433d84dcc1cd04213c932b8f5917ed197a"
# the same with min_samples_leaf=3 and min_samples_split=8; taken while each tree still grew
# on all n rows of its bootstrap, duplicates included (numpy 2.x, CPython 3.11)
FOREST_FLOORS_DIGEST = "f65601ec3aa223af2b72978bab944505cc515189dc3bb02e283c8e70bb5147e5"


def forest_file_digest(tmp_path: Path, **options) -> str:
    pipeline.collect(pipeline.one_ue_scenario(0, duration_ms=120_000), tmp_path / "train.csv")
    model, _ = pipeline.train_model(
        read_dataset(tmp_path / "train.csv"), pipeline.TrainOptions(algo="rf", trees=10, **options)
    )
    save_model(model, tmp_path / "rf.model", [c.value for c in CLASS_ORDER])
    return hashlib.sha256((tmp_path / "rf.model").read_bytes()).hexdigest()


def test_forest_model_file_is_byte_identical(tmp_path):
    assert forest_file_digest(tmp_path) == FOREST_DIGEST


def test_forest_model_file_with_leaf_and_split_floors_is_byte_identical(tmp_path):
    # the draw counts, not the distinct bootstrap rows, meet both floors
    digest = forest_file_digest(tmp_path, min_samples_leaf=3, min_samples_split=8)
    assert digest == FOREST_FLOORS_DIGEST
