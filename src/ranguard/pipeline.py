"""Orchestration: dataset collection, training, evaluation, closed-loop runs, latency bench.

Everything here composes the other modules: virtual-time runs for
reproducible datasets and closed-loop experiments, a real TCP loopback for
honest latency numbers, and CSV/plain-text reports for all of it.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .databus import Broker, BusClient, BusDisconnected, FrameKind
from .files import atomic_write, write_csv
from .kpm import (
    ATTACK_CLASSES,
    BENIGN_CLASSES,
    CLASS_ORDER,
    CSV_HEADER,
    FEATURE_COUNT,
    LabeledSample,
    TrafficCategory,
    TrafficClass,
    category_of,
    class_from_label,
    dataset_rows,
    feature_vector,
    read_dataset,
)
from .ml import (
    AdaBoost,
    ConfusionMatrix,
    DecisionTree,
    KnnClassifier,
    RandomForest,
    TreeConfig,
    load_model,
    save_model,
)
from .ransim import (
    CommandAction,
    RicCommand,
    RrcState,
    ScenarioConfig,
    TimeMode,
    UeSpec,
    build_station,
    connect_with_retry,
    labeled_stream,
    run_scenario,
)
from .traffic import ScriptSegment
from .xapp import (
    Decision,
    GroundTruthSegment,
    LatencyReport,
    OnlineClassifier,
    PolicyMap,
    TimeToCorrect,
    ground_truth_segments,
    latency_report,
    time_to_correct,
    virtual_trace,
)

PREDICTION_LOG_HEADER = (
    "timestamp_ms",
    "ue_id",
    "true_label",
    "predicted",
    "smoothed",
    "command",
    "T_d_us",
)


def prediction_log_row(d: Decision, true_label: str) -> list:
    """One PREDICTION_LOG_HEADER row: the decision, with its ground truth if known."""
    command = d.command.action.value if d.command is not None else ""
    return [d.timestamp_ms, d.ue_id, true_label, d.raw.value, d.smoothed.value, command, d.trace.t_d_us]


# -- scenario presets --


def one_ue_scenario(seed: int = 0, *, duration_ms: int = 600_000) -> ScenarioConfig:
    """One UE cycling through all five classes at random: the training shape."""
    return ScenarioConfig(duration_ms=duration_ms, seed=seed, ues=(UeSpec(1, None),))


def two_ue_scenario(seed: int = 1, *, duration_ms: int = 600_000) -> ScenarioConfig:
    """Two UEs with independent random scripts: the held-out testing shape."""
    return ScenarioConfig(
        duration_ms=duration_ms, seed=seed, ues=(UeSpec(1, None), UeSpec(2, None))
    )


def attack_demo_scenario(seed: int = 0, *, duration_ms: int = 12_000) -> ScenarioConfig:
    """One benign UE plus one attacker that turns hostile after a benign lead-in.

    The seed varies the attack class, the lead-in length, and every stream
    draw, so repeated runs exercise different onsets.
    """
    picks = np.random.default_rng(seed)
    lead_ms = int(picks.integers(20, 41)) * 100  # 2..4 s of good behaviour
    if duration_ms < lead_ms + 4000:
        raise ValueError(f"duration_ms must leave >= 4 s of attack, got {duration_ms}")
    benign = BENIGN_CLASSES[int(picks.integers(0, len(BENIGN_CLASSES)))]
    attack = ATTACK_CLASSES[int(picks.integers(0, len(ATTACK_CLASSES)))]
    return ScenarioConfig(
        duration_ms=duration_ms,
        seed=seed,
        ues=(
            UeSpec(1, None, classes=BENIGN_CLASSES),
            UeSpec(
                2,
                (ScriptSegment(benign, lead_ms), ScriptSegment(attack, duration_ms - lead_ms)),
            ),
        ),
    )


PRESETS = {
    "one_ue": one_ue_scenario,
    "two_ue": two_ue_scenario,
    "attack_demo": attack_demo_scenario,
}


# -- dataset collection --


def collect(config: ScenarioConfig, out_path: str | Path) -> int:
    """Labeled dataset CSV from a virtual-time run; returns the row count.

    Rows are written as the run makes them, to a temporary file that replaces
    out_path at the end, so a failed run leaves out_path as it was. A scenario
    lasts at least one period, so the file has at least one row. A real-time
    scenario is refused before any file is opened.
    """
    if config.time_mode is not TimeMode.VIRTUAL:
        raise ValueError("collect is a virtual-time harness; use run_scenario for real time")
    return write_csv(out_path, CSV_HEADER, dataset_rows(labeled_stream(config)))


# -- training --


ALGO_CHOICES = ("dt", "rf", "knn", "ada")


@dataclass(frozen=True)
class TrainOptions:
    algo: str = "rf"
    trees: int = 100
    max_depth: int = 15
    min_samples_split: int = 5
    min_samples_leaf: int = 1
    k: int = 5
    rounds: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algo not in ALGO_CHOICES:
            raise ValueError(f"algo must be one of {ALGO_CHOICES}, got {self.algo!r}")


@dataclass(frozen=True)
class TrainSummary:
    algo: str
    n_samples: int
    n_features: int
    train_seconds: float


def dataset_matrix(rows: Sequence[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and class-index vector in CLASS_ORDER."""
    if not rows:
        raise ValueError("dataset has no rows")
    # fromiter fills the arrays row by row: no list of row lists is built first
    X = np.fromiter(
        (feature_vector(r.sample) for r in rows), dtype=(np.float64, FEATURE_COUNT), count=len(rows)
    )
    y = np.fromiter((CLASS_ORDER.index(r.label) for r in rows), dtype=np.int64, count=len(rows))
    return X, y


def train_model(rows: Sequence[LabeledSample], options: TrainOptions = TrainOptions()):
    """Train one classifier on labeled samples: (model, summary)."""
    X, y = dataset_matrix(rows)
    n_classes = len(CLASS_ORDER)
    tree_cfg = TreeConfig(options.max_depth, options.min_samples_split, options.min_samples_leaf)
    t0 = time.perf_counter()
    if options.algo == "dt":
        model = DecisionTree.train(X, y, n_classes, tree_cfg)
    elif options.algo == "rf":
        model = RandomForest.train(X, y, n_classes, tree_cfg, options.trees, seed=options.seed)
    elif options.algo == "knn":
        model = KnnClassifier(options.k).fit(X, y, n_classes)
    else:
        model = AdaBoost.train(X, y, n_classes, options.rounds)
    elapsed = time.perf_counter() - t0
    return model, TrainSummary(options.algo, len(rows), X.shape[1], elapsed)


def train(dataset_path: str | Path, model_path: str | Path, options: TrainOptions = TrainOptions()) -> TrainSummary:
    """Dataset CSV in, model file out."""
    rows = read_dataset(dataset_path)
    model, summary = train_model(rows, options)
    save_model(model, model_path, [c.value for c in CLASS_ORDER])
    return summary


def load_online_model(model_path: str | Path):
    """(model, class list) from a model file, labels mapped back to traffic classes."""
    loaded = load_model(model_path)
    _warm_model(loaded.model)
    return loaded.model, tuple(class_from_label(s) for s in loaded.class_labels)


def _warm_model(model) -> None:
    """Make the first predict, on an all-zero row, before any frame is timed.

    It builds the tree models' compiled vote, about 60 ms for the served forest.
    """
    model.predict(np.zeros(model.n_features))


# -- evaluation --


BINARY_GROUPING = {cls.value: category_of(cls).value for cls in TrafficClass}


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    five_class: ConfusionMatrix
    binary: ConfusionMatrix
    accuracy: float
    binary_f1: float
    delta_i_median_us: float
    delta_i_p99_us: float

    def summary_lines(self) -> list[str]:
        lines = [
            f"samples: {self.n_samples}",
            f"five-class accuracy: {self.accuracy:.4f}",
            f"binary (benign/attack) F1: {self.binary_f1:.4f}",
            f"inference delta_i median: {self.delta_i_median_us / 1000:.3f} ms"
            f"   p99: {self.delta_i_p99_us / 1000:.3f} ms",
            "",
            "five-class confusion:",
            str(self.five_class),
            "",
            "binary confusion:",
            str(self.binary),
        ]
        return lines


def inference_quantiles(model, X: np.ndarray, *, n: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Median and p99 single-sample inference wall time in us over n predictions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.random.default_rng(seed).integers(0, X.shape[0], size=n)
    rows = [np.array(X[i]) for i in idx]  # materialized so the loop times predict alone
    times = np.empty(n, dtype=np.float64)
    for j, x in enumerate(rows):
        t0 = time.perf_counter_ns()
        model.predict(x)
        times[j] = time.perf_counter_ns() - t0
    median, p99 = np.percentile(times, (50, 99))
    return float(median) / 1000.0, float(p99) / 1000.0


def evaluate(
    model,
    class_labels: Sequence[str],
    rows: Sequence[LabeledSample],
    *,
    delta_i_samples: int = 10_000,
    seed: int = 0,
) -> EvalReport:
    """Confusion matrices, headline metrics, and the per-sample inference benchmark."""
    if not rows:
        raise ValueError("evaluation dataset has no rows")
    X, _ = dataset_matrix(rows)
    if model.n_features != X.shape[1]:
        raise ValueError(f"model expects {model.n_features} features, dataset has {X.shape[1]}")
    preds = model.predict_batch(X)
    pairs = [(rows[i].label.value, class_labels[int(preds[i])]) for i in range(len(rows))]
    five = ConfusionMatrix.from_pairs(list(class_labels), pairs)
    binary = five.collapse(BINARY_GROUPING)
    med_us, p99_us = (0.0, 0.0)
    if delta_i_samples > 0:
        med_us, p99_us = inference_quantiles(model, X, n=delta_i_samples, seed=seed)
    return EvalReport(
        n_samples=len(rows),
        five_class=five,
        binary=binary,
        accuracy=five.accuracy(),
        binary_f1=binary.f1(TrafficCategory.ATTACK.value),
        delta_i_median_us=med_us,
        delta_i_p99_us=p99_us,
    )


# -- closed loop --


@dataclass(frozen=True)
class Episode:
    """One contiguous attack span of one UE, and how the loop handled it."""

    ue_id: int
    start_ms: int
    end_ms: int
    label: TrafficClass  # class at onset
    released: bool
    applied_ms: float | None
    detect_ms: float | None


@dataclass(frozen=True)
class ClosedLoopResult:
    config: ScenarioConfig
    decisions: tuple[Decision, ...]
    truths: tuple[TrafficClass, ...]  # aligned with decisions
    segments: tuple[GroundTruthSegment, ...]
    episodes: tuple[Episode, ...]
    commands: tuple[RicCommand, ...]
    released_ues: frozenset[int]
    false_releases: tuple[int, ...]  # release commands issued while the UE was benign
    ttc: TimeToCorrect
    latency: LatencyReport

    def summary_lines(self) -> list[str]:
        released = ", ".join(str(u) for u in sorted(self.released_ues)) or "none"
        lines = [
            f"decisions: {len(self.decisions)}",
            f"commands: {len(self.commands)}",
            f"released UEs: {released}",
            f"false releases: {len(self.false_releases)}",
            f"attack episodes: {len(self.episodes)}"
            f" (mitigated: {sum(1 for e in self.episodes if e.released)})",
        ]
        for e in self.episodes:
            landed = f"released at {e.applied_ms:.3f} ms (+{e.detect_ms:.3f} ms)" if e.released else "NOT released"
            lines.append(f"  ue {e.ue_id} {e.label.value} [{e.start_ms}..{e.end_ms}) -> {landed}")
        lines.append("")
        lines += self.latency.summary_lines()
        return lines


def _attack_spans(segments: Sequence[GroundTruthSegment]) -> list[GroundTruthSegment]:
    """Adjacent attack segments of one UE merge into a single episode span."""
    spans: list[GroundTruthSegment] = []
    for seg in segments:
        if category_of(seg.label) is not TrafficCategory.ATTACK:
            continue
        if spans and spans[-1].ue_id == seg.ue_id and spans[-1].end_ms == seg.start_ms:
            prev = spans[-1]
            spans[-1] = GroundTruthSegment(prev.ue_id, prev.start_ms, seg.end_ms, prev.label)
        else:
            spans.append(seg)
    return spans


def closed_loop(
    config: ScenarioConfig,
    model,
    class_labels: Sequence[TrafficClass],
    *,
    policy: PolicyMap | None = None,
) -> ClosedLoopResult:
    """Station, bus semantics, and classifier composed synchronously in virtual time.

    The loop owns the virtual clock: each tick gets one `virtual_trace`, as
    if its samples had crossed the bus, and each sample goes straight to
    OnlineClassifier.on_sample with it. Any command is applied T_d after the
    send, so the released UE disappears from the next tick exactly as it
    would on a live bus.
    """
    if config.time_mode is not TimeMode.VIRTUAL:
        raise ValueError("closed_loop is a virtual-time harness; use run_scenario for real time")
    if not hasattr(model, "predict"):
        raise ValueError("closed_loop needs a model with predict(features) -> class index")
    bs = build_station(config)
    segments = tuple(ground_truth_segments(bs, config.duration_ms))
    xapp = OnlineClassifier(model, class_labels, policy)

    decisions: list[Decision] = []
    truths: list[TrafficClass] = []
    commands: list[RicCommand] = []
    false_releases: list[int] = []
    release_ms: dict[int, float] = {}  # each UE's first release, applied t_d_us after its send
    for t in range(0, config.duration_ms, config.period_ms):
        trace = virtual_trace(t * 1000)
        for labeled in bs.tick_samples(t):
            decision = xapp.on_sample(labeled.sample, trace)
            decisions.append(decision)
            truths.append(labeled.label)
            cmd = decision.command
            if cmd is not None:
                commands.append(cmd)
                applied_us = trace.t_bs_send_us + trace.t_d_us
                bs.apply_command(cmd, applied_at_us=applied_us)
                if cmd.action is CommandAction.RRC_RELEASE:
                    release_ms.setdefault(cmd.ue_id, applied_us / 1000.0)
                    if category_of(labeled.label) is TrafficCategory.BENIGN:
                        false_releases.append(cmd.ue_id)

    released = frozenset(ue.ue_id for ue in bs.ues if ue.rrc_state is RrcState.IDLE)
    episodes = []
    for span in _attack_spans(segments):
        hit = release_ms.get(span.ue_id)
        landed = hit is not None and span.start_ms <= hit < span.end_ms
        applied_ms = hit if landed else None
        episodes.append(
            Episode(
                ue_id=span.ue_id,
                start_ms=span.start_ms,
                end_ms=span.end_ms,
                label=span.label,
                released=landed,
                applied_ms=applied_ms,
                detect_ms=None if applied_ms is None else applied_ms - span.start_ms,
            )
        )

    return ClosedLoopResult(
        config=config,
        decisions=tuple(decisions),
        truths=tuple(truths),
        segments=segments,
        episodes=tuple(episodes),
        commands=tuple(commands),
        released_ues=released,
        false_releases=tuple(false_releases),
        ttc=time_to_correct(decisions, segments, period_ms=config.period_ms),
        latency=latency_report([d.trace for d in decisions]),
    )


def write_closed_loop_report(result: ClosedLoopResult, out_dir: str | Path) -> dict[str, Path]:
    """predictions.csv, cdf.csv, episodes.csv, and a plain-text summary.

    Each file is written through atomic_write, so a failed write leaves an
    earlier report's file as it was.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "predictions": out_dir / "predictions.csv",
        "cdf": out_dir / "cdf.csv",
        "episodes": out_dir / "episodes.csv",
        "summary": out_dir / "summary.txt",
    }
    write_csv(
        paths["predictions"],
        PREDICTION_LOG_HEADER,
        (prediction_log_row(d, truth.value) for d, truth in zip(result.decisions, result.truths)),
    )
    write_csv(paths["cdf"], ("time_ms", "fraction"), ((repr(float(t)), repr(frac)) for t, frac in result.ttc.cdf()))
    write_csv(
        paths["episodes"],
        ("ue_id", "start_ms", "end_ms", "label", "released", "applied_ms", "detect_ms"),
        (
            (
                e.ue_id,
                e.start_ms,
                e.end_ms,
                e.label.value,
                int(e.released),
                "" if e.applied_ms is None else repr(e.applied_ms),
                "" if e.detect_ms is None else repr(e.detect_ms),
            )
            for e in result.episodes
        ),
    )
    with atomic_write(paths["summary"]) as fh:
        fh.write("\n".join(result.summary_lines()) + "\n")
    return paths


# -- real-TCP latency benchmark --


def bench_latency(
    model,
    class_labels: Sequence[TrafficClass],
    *,
    frames: int = 300,
    period_ms: int = 10,
    seed: int = 0,
) -> LatencyReport:
    """Loopback deployment: a live station and the classifier on a real broker, every hop timed.

    The station plays one random UE in real time, a frame every period_ms,
    through run_scenario on its own connection. Measurement frames carry
    wall-clock stamps, the broker adds its ingress and egress times, and
    inference is timed around the real model, so the resulting traces are
    honest end-to-end delay measurements.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    config = replace(
        one_ue_scenario(seed), duration_ms=frames * period_ms, period_ms=period_ms, time_mode=TimeMode.REAL
    )
    _warm_model(model)
    xapp = OnlineClassifier(model, class_labels)  # wall-clock stamps
    traces = []
    wait_s = period_ms / 1000 + 2.0  # one period, plus slack: a longer gap ends the stream
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as station, BusClient.connect(host, port) as ric:
            ric.subscribe("kpm.*")

            def play() -> None:
                try:
                    run_scenario(config, station)
                except BusDisconnected:
                    pass  # the bench is over and closed the bus

            player = threading.Thread(target=play, name="bench-station", daemon=True)
            player.start()
            while len(traces) < frames:
                frame = ric.poll(timeout=wait_s)
                if frame is None:
                    break  # stream over (or frames dropped under overload)
                decision = xapp.on_measurement(frame)
                if decision is not None:
                    traces.append(decision.trace)
            player.join(timeout=10.0)
    return latency_report(traces)


# -- live xApp runner --


@dataclass(frozen=True)
class XappRunStats:
    frames: int
    decisions: int
    commands: int
    malformed: int
    dropped: int  # frames lost before the xApp read them, as the broker reports for its connection


def run_xapp(
    model,
    class_labels: Sequence[TrafficClass],
    *,
    broker_host: str,
    broker_port: int,
    policy: PolicyMap | None = None,
    log_path: str | Path | None = None,
    idle_timeout_s: float = 5.0,
) -> XappRunStats:
    """Attach to a live broker: classify kpm.* frames, publish commands, log decisions.

    Returns once the stream stays quiet for idle_timeout_s or the broker goes away.
    """
    xapp = OnlineClassifier(model, class_labels, policy)
    client = connect_with_retry(broker_host, broker_port)
    frames = n_decisions = n_commands = 0
    log_fh = None
    writer = None
    try:
        client.subscribe("kpm.*")
        if log_path is not None:
            log_fh = Path(log_path).open("w", newline="")
            writer = csv.writer(log_fh)
            writer.writerow(PREDICTION_LOG_HEADER)
        while True:
            try:
                frame = client.poll(timeout=idle_timeout_s)
            except BusDisconnected:
                break
            if frame is None:
                break
            frames += 1
            decision = xapp.on_measurement(frame)
            if decision is None:
                continue
            n_decisions += 1
            if decision.command is not None:
                bs_id = frame.topic.rpartition(".")[2]
                try:
                    client.publish(
                        FrameKind.COMMAND, f"ctrl.{bs_id}", decision.command.to_payload()
                    )
                    n_commands += 1
                except BusDisconnected:
                    break
            if writer is not None:  # ground truth is not observable online
                writer.writerow(prediction_log_row(decision, ""))
        return XappRunStats(frames, n_decisions, n_commands, xapp.malformed, client.dropped)
    finally:
        if log_fh is not None:
            log_fh.close()
        client.close()
