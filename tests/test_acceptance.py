"""Acceptance gate: one test per release criterion, each printing a pass/fail line.

Run order matters only for readability; every criterion is independent.
Shared fixtures build the seed-fixed datasets and the four classifiers once.
"""

from __future__ import annotations

import time

import pytest

from ranguard import pipeline
from ranguard.kpm import ATTACK_CLASSES, CLASS_ORDER, read_dataset
from ranguard.ransim import CommandAction
from ranguard.xapp import PolicyMap
from xapp_oracle import fraction_within

TRAIN_SEED = 0
TEST_SEED = 1
TIMINGS: dict[str, float] = {}


def _report(capsys, criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    train_path = root / "train.csv"
    test_path = root / "test.csv"
    pipeline.collect(pipeline.one_ue_scenario(TRAIN_SEED, duration_ms=600_000), train_path)
    pipeline.collect(pipeline.two_ue_scenario(TEST_SEED, duration_ms=600_000), test_path)
    TIMINGS["data_s"] = time.perf_counter() - t0
    return read_dataset(train_path), read_dataset(test_path)


@pytest.fixture(scope="module")
def models(datasets):
    train_rows, _ = datasets
    out = {}
    for algo in ("rf", "dt", "knn", "ada"):
        t0 = time.perf_counter()
        model, _ = pipeline.train_model(train_rows, pipeline.TrainOptions(algo=algo))
        TIMINGS[f"train_{algo}_s"] = time.perf_counter() - t0
        out[algo] = model
    return out


@pytest.fixture(scope="module")
def accuracies(models, datasets):
    _, test_rows = datasets
    labels = [c.value for c in CLASS_ORDER]
    out = {}
    for algo, model in models.items():
        t0 = time.perf_counter()
        out[algo] = pipeline.evaluate(model, labels, test_rows, delta_i_samples=0)
        TIMINGS[f"eval_{algo}_s"] = time.perf_counter() - t0
    return out


def test_criterion_1_classifier_quality(accuracies, datasets, capsys):
    train_rows, test_rows = datasets
    report = accuracies["rf"]
    runtime = TIMINGS["data_s"] + TIMINGS["train_rf_s"] + TIMINGS["eval_rf_s"]
    ok = (
        len(train_rows) >= 6000
        and report.accuracy >= 0.90
        and report.binary_f1 >= 0.93
        and runtime < 120.0
    )
    _report(
        capsys,
        1,
        "classifier quality",
        ok,
        f"train {len(train_rows)} samples (>= 6000), test {len(test_rows)};"
        f" 5-class accuracy {report.accuracy:.4f} (>= 0.90),"
        f" binary F1 {report.binary_f1:.4f} (>= 0.93),"
        f" runtime {runtime:.1f} s (< 120 s)",
    )


def test_criterion_2_model_ranking(accuracies, capsys):
    acc = {algo: accuracies[algo].accuracy for algo in ("rf", "dt", "knn", "ada")}
    tol = 0.05
    ok = (
        acc["rf"] + tol >= acc["dt"]
        and acc["dt"] + tol >= acc["knn"]
        and acc["dt"] + tol >= acc["ada"]
    )
    _report(
        capsys,
        2,
        "model ranking",
        ok,
        f"accuracy rf {acc['rf']:.4f} >= dt {acc['dt']:.4f}"
        f" >= knn {acc['knn']:.4f} / ada {acc['ada']:.4f}"
        f" (each within {tol} absolute)",
    )


def test_criterion_3_inference_latency(models, datasets, capsys):
    train_rows, _ = datasets
    X, _ = pipeline.dataset_matrix(train_rows)
    t0 = time.perf_counter()
    rf_med_us, _ = pipeline.inference_quantiles(models["rf"], X, n=10_000)
    dt_med_us, _ = pipeline.inference_quantiles(models["dt"], X, n=10_000)
    runtime = time.perf_counter() - t0
    ok = rf_med_us <= 10_000 and dt_med_us <= 3_000 and runtime < 60.0
    _report(
        capsys,
        3,
        "inference latency",
        ok,
        f"median over 10^4 single predictions: rf {rf_med_us / 1000:.3f} ms (<= 10 ms),"
        f" dt {dt_med_us / 1000:.3f} ms (<= 3 ms), runtime {runtime:.1f} s (< 60 s)",
    )


def test_criterion_4_latency_budget_identity(models, capsys):
    result = pipeline.closed_loop(
        pipeline.attack_demo_scenario(3), models["rf"], CLASS_ORDER
    )
    held = sum(
        d.trace.t_d_us == d.trace.t_n_us + 2 * d.trace.delta_d_us + d.trace.delta_i_us
        for d in result.decisions
    )
    exact = held == len(result.decisions)
    bench = pipeline.bench_latency(models["rf"], CLASS_ORDER, frames=300, period_ms=10)
    p99_ms = bench.t_d.p99_us / 1000
    ok = exact and bench.count == 300 and p99_ms < 50.0
    _report(
        capsys,
        4,
        "latency budget identity",
        ok,
        f"T_d == t_n + 2*delta_d + delta_i held for {held}/"
        f"{len(result.decisions)} logged decisions;"
        f" loopback p99 T_d {p99_ms:.3f} ms (< 50 ms) over {bench.count} frames,"
        f" margin {(1000 - p99_ms):.1f} ms under the 1 s bound;"
        f" loopback p99 t_n {bench.t_n.p99_us / 1000:.3f} ms, delta_d {bench.delta_d.p99_us / 1000:.3f} ms,"
        f" delta_i {bench.delta_i.p99_us / 1000:.3f} ms, worst T_d {bench.worst_t_d_us / 1000:.3f} ms",
    )


def test_criterion_5_time_to_correct_cdf(models, capsys):
    detection_only = PolicyMap(dict.fromkeys(ATTACK_CLASSES, CommandAction.FORWARD))
    result = pipeline.closed_loop(
        pipeline.two_ue_scenario(TEST_SEED, duration_ms=400_000),
        models["rf"],
        CLASS_ORDER,
        policy=detection_only,
    )
    ttc = result.ttc
    frac = fraction_within(ttc, 500.0)
    ok = ttc.total >= 100 and frac >= 0.90
    _report(
        capsys,
        5,
        "time-to-correct CDF",
        ok,
        f"{frac:.4f} of {ttc.total} segments correct within 500 ms (>= 0.90 of >= 100;"
        f" unresolved: {ttc.unresolved})",
    )


def test_criterion_6_closed_loop_mitigation(models, capsys):
    runs = 20
    failures = []
    for seed in range(runs):
        result = pipeline.closed_loop(
            pipeline.attack_demo_scenario(seed), models["rf"], CLASS_ORDER
        )
        releases = [c for c in result.commands if c.action is CommandAction.RRC_RELEASE]
        attacker_released = result.released_ues == frozenset({2})
        episodes_ok = all(e.released for e in result.episodes) and len(result.episodes) == 1
        if not (
            len(releases) == 1
            and releases[0].ue_id == 2
            and attacker_released
            and episodes_ok
            and result.false_releases == ()
        ):
            failures.append(seed)
    ok = not failures
    _report(
        capsys,
        6,
        "closed-loop mitigation",
        ok,
        f"{runs - len(failures)}/{runs} seeded runs: exactly one RrcRelease per attack"
        f" episode, attacker Connected->Idle, benign UE never released"
        + (f"; failing seeds {failures}" if failures else ""),
    )


def test_criterion_7_property_suites_and_determinism(models, tmp_path, capsys):
    config = pipeline.attack_demo_scenario(3)
    first = pipeline.closed_loop(config, models["dt"], CLASS_ORDER)
    second = pipeline.closed_loop(config, models["dt"], CLASS_ORDER)
    paths_a = pipeline.write_closed_loop_report(first, tmp_path / "a")
    paths_b = pipeline.write_closed_loop_report(second, tmp_path / "b")
    identical = all(paths_a[k].read_bytes() == paths_b[k].read_bytes() for k in paths_a)
    ok = identical
    _report(
        capsys,
        7,
        "oracle/property suites",
        ok,
        "virtual-time determinism: two identical-seed runs produced byte-identical"
        " reports; the oracle and property suites run alongside this gate"
        " (test_ml_tree, test_ml_models, test_ml_metrics, test_ml_store, test_kpm,"
        " test_traffic, test_databus, test_ransim, test_xapp)",
    )
