"""CLI tests: every subcommand end to end, assertion gates, and error paths."""

from __future__ import annotations

import csv
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from ranguard import cli, pipeline
from ranguard.databus import Broker, BusClient, FrameKind, now_us
from ranguard.kpm import ATTACK_CLASSES, CLASS_ORDER, read_dataset
from ranguard.ransim import build_station
from config_oracle import format_scenario


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset and a decision-tree model the subcommand tests share."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "train.csv"
    model = root / "model.json"
    assert cli.main(["collect", "--duration-ms", "30000", "--out", str(dataset)]) == 0
    assert cli.main(["train", "--dataset", str(dataset), "--out", str(model), "--algo", "dt"]) == 0
    return dataset, model


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "collect" in capsys.readouterr().out


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_algo_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--dataset", "x.csv", "--out", "m.json", "--algo", "svm"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trees", "0"], "n_trees must be >= 1, got 0"),
        (["--algo", "ada", "--rounds", "0"], "rounds must be >= 1, got 0"),
        (["--max-depth", "0"], "max_depth must be >= 1, got 0"),
        (["--algo", "knn", "--k", "0"], "k must be >= 1, got 0"),
    ],
    ids=["trees", "rounds", "max_depth", "k"],
)
def test_train_refuses_a_zero_size(trained, tmp_path, capsys, flags, message):
    dataset, _ = trained
    out = tmp_path / "m.json"
    assert cli.main(["train", "--dataset", str(dataset), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_collect_reports_row_count(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    assert cli.main(["collect", "--duration-ms", "5000", "--out", str(out)]) == 0
    assert "wrote 50 rows" in capsys.readouterr().out
    assert len(read_dataset(out)) == 50


def test_collect_seed_changes_data(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    cli.main(["--seed", "5", "collect", "--duration-ms", "3000", "--out", str(a)])
    cli.main(["--seed", "6", "collect", "--duration-ms", "3000", "--out", str(b)])
    cli.main(["--seed", "5", "collect", "--duration-ms", "3000", "--out", str(c)])
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_collect_from_scenario_file(tmp_path, capsys):
    config = pipeline.two_ue_scenario(2, duration_ms=4000)
    scenario = tmp_path / "scene.cfg"
    scenario.write_text(format_scenario(config))
    out = tmp_path / "ds.csv"
    assert cli.main(["collect", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert "wrote 80 rows" in capsys.readouterr().out
    assert {r.sample.ue_id for r in read_dataset(out)} == {1, 2}


@pytest.mark.parametrize(
    "source", [["--preset", "one_ue"], ["--scenario", "scene.cfg"]], ids=["preset", "scenario"]
)
def test_collect_refuses_a_zero_duration_and_keeps_the_old_file(tmp_path, monkeypatch, capsys, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.cfg").write_text(format_scenario(pipeline.one_ue_scenario(0, duration_ms=1000)))
    out = tmp_path / "ds.csv"
    out.write_bytes(b"an earlier dataset\n")
    assert cli.main(["collect", *source, "--duration-ms", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: duration_ms must be a positive multiple of period_ms, got 0\n"
    assert out.read_bytes() == b"an earlier dataset\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "scene.cfg"]


def test_collect_refuses_a_random_script_at_a_period_past_its_longest_segment(tmp_path, capsys):
    scenario = tmp_path / "scene.cfg"
    scenario.write_text("duration_ms = 18000\nperiod_ms = 9000\nue.1.script = random\n")
    out = tmp_path / "ds.csv"
    out.write_bytes(b"an earlier dataset\n")
    assert cli.main(["collect", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 2: period_ms must be at most 8000 with a random script, got 9000\n"
    assert out.read_bytes() == b"an earlier dataset\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "scene.cfg"]


def test_collect_refuses_a_real_time_scenario_and_keeps_the_old_file(tmp_path, capsys):
    scenario = tmp_path / "scene.cfg"
    scenario.write_text("duration_ms = 1000\ntime_mode = real\nue.1.script = web:1000\n")
    out = tmp_path / "ds.csv"
    out.write_bytes(b"an earlier dataset\n")
    assert cli.main(["collect", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: collect is a virtual-time harness; use run_scenario for real time\n"
    assert out.read_bytes() == b"an earlier dataset\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "scene.cfg"]


def test_collect_preset_and_scenario_conflict(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["collect", "--preset", "one_ue", "--scenario", "f.cfg", "--out", "x.csv"])
    assert exc.value.code == 2


def test_evaluate_prints_metrics_and_passes(trained, capsys):
    dataset, model = trained
    code = cli.main(
        [
            "evaluate",
            "--model", str(model),
            "--dataset", str(dataset),
            "--delta-i-samples", "50",
            "--assert",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "five-class accuracy:" in out
    assert "binary (benign/attack) F1:" in out
    assert out.rstrip().endswith("PASS")


def test_evaluate_assert_fails_on_impossible_threshold(trained, capsys):
    dataset, model = trained
    code = cli.main(
        [
            "evaluate",
            "--model", str(model),
            "--dataset", str(dataset),
            "--delta-i-samples", "0",
            "--assert",
            "--min-accuracy", "1.01",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: accuracy" in out


def test_evaluate_missing_model_is_error(tmp_path, capsys):
    code = cli.main(["evaluate", "--model", str(tmp_path / "nope.json"), "--dataset", "x.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_deeply_nested_model_is_one_error_line(trained, tmp_path, capsys):
    dataset, _ = trained
    deep = tmp_path / "deep.model"
    deep.write_text("[" * 200_000)
    code = cli.main(["evaluate", "--model", str(deep), "--dataset", str(dataset)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_closed_loop_assert_passes_and_writes_report(trained, tmp_path, capsys):
    _, model = trained
    report_dir = tmp_path / "report"
    code = cli.main(
        [
            "--seed", "3",
            "closed-loop",
            "--model", str(model),
            "--out", str(report_dir),
            "--assert",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("PASS")
    assert "released UEs: 2" in out
    with (report_dir / "predictions.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and tuple(rows[0]) == pipeline.PREDICTION_LOG_HEADER


def test_closed_loop_detection_only_policy_fails_assert(trained, tmp_path, capsys):
    _, model = trained
    policy_path = tmp_path / "forward.policy"
    policy_path.write_text("\n".join(f"{cls.value} = forward" for cls in ATTACK_CLASSES))
    code = cli.main(
        [
            "--seed", "3",
            "closed-loop",
            "--model", str(model),
            "--policy", str(policy_path),
            "--assert",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "was not mitigated" in out


def test_closed_loop_duration_override(trained, capsys):
    _, model = trained
    code = cli.main(
        ["--seed", "3", "closed-loop", "--model", str(model), "--duration-ms", "8000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "decisions:" in out


def test_duration_override_goes_through_the_preset_checks(trained, capsys):
    # seed 3's attacker turns hostile after its lead-in, so 1 s leaves no attack to detect
    with pytest.raises(ValueError, match="must leave >= 4 s of attack") as preset_error:
        pipeline.attack_demo_scenario(3, duration_ms=1000)
    _, model = trained
    code = cli.main(
        ["--seed", "3", "closed-loop", "--model", str(model), "--duration-ms", "1000", "--assert"]
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: {preset_error.value}\n"
    assert "PASS" not in out


def test_closed_loop_refuses_a_zero_duration_with_the_scenarios_message(trained, capsys):
    _, model = trained
    code = cli.main(["closed-loop", "--model", str(model), "--preset", "one_ue", "--duration-ms", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: duration_ms must be a positive multiple of period_ms, got 0\n"


def test_bench_latency_gate(trained, capsys):
    _, model = trained
    code = cli.main(
        [
            "bench-latency",
            "--model", str(model),
            "--frames", "40",
            "--period-ms", "3",
            "--max-p99-ms", "1000",
        ]
    )
    out, err = capsys.readouterr()
    assert code == 0, out + err  # a p99 past the gate is reported on stdout
    assert out.rstrip().endswith("PASS")
    assert "T_d" in out


def test_bench_latency_gate_fails_when_frames_go_untimed(trained, monkeypatch, capsys):
    _, model = trained

    def one_short(*args, **kwargs):
        report = pipeline.bench_latency(*args, **kwargs)
        return replace(report, count=report.count - 1)  # as if the stream had ended a frame early

    monkeypatch.setattr(cli, "bench_latency", one_short)
    code = cli.main(
        ["bench-latency", "--model", str(model), "--frames", "40", "--period-ms", "3", "--max-p99-ms", "1000"]
    )
    out, err = capsys.readouterr()
    assert code == 1, out + err
    assert "FAIL: 39 of 40 frames timed\n" in out


def test_bad_policy_file_is_error(trained, tmp_path, capsys):
    _, model = trained
    policy_path = tmp_path / "bad.policy"
    policy_path.write_text("ddos_ripper = nuke\n")
    code = cli.main(["closed-loop", "--model", str(model), "--policy", str(policy_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_policy_file_with_a_benign_class_is_error(trained, tmp_path, capsys):
    _, model = trained
    policy_path = tmp_path / "five.policy"
    policy_path.write_text("\n".join(f"{cls.value} = forward" for cls in CLASS_ORDER) + "\n")
    code = cli.main(["closed-loop", "--model", str(model), "--policy", str(policy_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: line 1: unknown key 'web'\n"


def test_xapp_serves_from_live_broker(trained, tmp_path, capsys):
    _, model = trained
    config = pipeline.attack_demo_scenario(3, duration_ms=8000)
    bs = build_station(config)
    log_path = tmp_path / "live.csv"
    with Broker(port=0) as broker:
        host, port = broker.address
        with BusClient.connect(host, port) as pub:

            def feed():
                base_out = broker.stats().frames_out
                for attempt in range(250):
                    pub.publish(FrameKind.MEASUREMENT, "kpm.9", {"probe": attempt})
                    time.sleep(0.02)
                    if broker.stats().frames_out > base_out:
                        break
                for k in range(60):
                    for frame in bs.tick(k * 100, t_sent_us=now_us()):
                        pub.publish(frame.kind, frame.topic, frame.payload, frame.t_sent_us)

            feeder = threading.Thread(target=feed, daemon=True)
            feeder.start()
            code = cli.main(
                [
                    "xapp",
                    "--model", str(model),
                    "--host", host,
                    "--port", str(port),
                    "--log", str(log_path),
                    "--idle-timeout-s", "1.0",
                ]
            )
            feeder.join(timeout=10)
    out = capsys.readouterr().out
    assert code == 0
    assert "decisions: 120" in out
    assert "commands: 1" in out
    assert "dropped: 0" in out
    with log_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ranguard", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ranguard")
