"""Command-line front end: collect, train, evaluate, closed-loop, bench-latency, xapp.

Every subcommand is a thin wrapper over the pipeline module. Commands with
an --assert flag exit 1 when their thresholds are missed, so they slot
directly into scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .kpm import read_dataset
from .pipeline import (
    ALGO_CHOICES,
    PRESETS,
    TrainOptions,
    bench_latency,
    closed_loop,
    collect,
    evaluate,
    load_online_model,
    run_xapp,
    train,
    write_closed_loop_report,
)
from .ransim import ScenarioConfig, load_scenario
from .xapp import PolicyMap, parse_policy


def _scenario_from_args(args: argparse.Namespace, *, default_preset: str) -> ScenarioConfig:
    overrides = {k: v for k, v in (("seed", args.seed), ("duration_ms", args.duration_ms)) if v is not None}
    if args.scenario is not None:
        return replace(load_scenario(args.scenario), **overrides)
    # the preset builds with the overrides, so its own checks of the duration apply
    return PRESETS[args.preset or default_preset](**overrides)


def _policy_from_args(args: argparse.Namespace) -> PolicyMap | None:
    if getattr(args, "policy", None) is None:
        return None
    return parse_policy(Path(args.policy).read_text())


def _add_scenario_args(sub: argparse.ArgumentParser, *, default_preset: str) -> None:
    src = sub.add_mutually_exclusive_group()
    src.add_argument(
        "--preset", choices=sorted(PRESETS), help=f"built-in scenario (default: {default_preset})"
    )
    src.add_argument("--scenario", help="scenario config file")
    sub.add_argument("--duration-ms", type=int, help="override the scenario duration")


def _verdict(failures: list[str]) -> int:
    """Print each failed check, then the verdict; the exit code."""
    for failure in failures:
        print(f"FAIL: {failure}")
    print("PASS" if not failures else "check failed")
    return 0 if not failures else 1


def _cmd_collect(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args, default_preset="one_ue")
    n = collect(config, args.out)
    print(f"wrote {n} rows to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    options = TrainOptions(
        algo=args.algo,
        trees=args.trees,
        max_depth=args.max_depth,
        min_samples_split=args.min_samples_split,
        min_samples_leaf=args.min_samples_leaf,
        k=args.k,
        rounds=args.rounds,
        seed=args.seed if args.seed is not None else TrainOptions.seed,
    )
    summary = train(args.dataset, args.out, options)
    print(
        f"trained {summary.algo} on {summary.n_samples} samples"
        f" ({summary.n_features} features) in {summary.train_seconds:.2f} s -> {args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model, classes = load_online_model(args.model)
    rows = read_dataset(args.dataset)
    report = evaluate(
        model,
        [c.value for c in classes],
        rows,
        delta_i_samples=args.delta_i_samples,
        seed=args.seed if args.seed is not None else 0,
    )
    for line in report.summary_lines():
        print(line)
    if not args.check:
        return 0
    failures = []
    if report.accuracy < args.min_accuracy:
        failures.append(f"accuracy {report.accuracy:.4f} < {args.min_accuracy}")
    if report.binary_f1 < args.min_f1:
        failures.append(f"binary F1 {report.binary_f1:.4f} < {args.min_f1}")
    return _verdict(failures)


def _cmd_closed_loop(args: argparse.Namespace) -> int:
    model, classes = load_online_model(args.model)
    config = _scenario_from_args(args, default_preset="attack_demo")
    result = closed_loop(config, model, classes, policy=_policy_from_args(args))
    for line in result.summary_lines():
        print(line)
    if args.out is not None:
        paths = write_closed_loop_report(result, args.out)
        print(f"report written to {Path(args.out)}: " + ", ".join(p.name for p in paths.values()))
    if not args.check:
        return 0
    failures = [
        f"ue {episode.ue_id} attack at {episode.start_ms} ms was not mitigated"
        for episode in result.episodes
        if not episode.released
    ]
    if result.false_releases:
        failures.append(f"{len(result.false_releases)} release(s) hit benign traffic")
    return _verdict(failures)


def _cmd_bench_latency(args: argparse.Namespace) -> int:
    model, classes = load_online_model(args.model)
    report = bench_latency(
        model,
        classes,
        frames=args.frames,
        period_ms=args.period_ms,
        seed=args.seed if args.seed is not None else 0,
    )
    for line in report.summary_lines():
        print(line)
    if args.max_p99_ms is None:
        return 0
    p99_ms = report.t_d.p99_us / 1000
    failures = []
    if report.count < args.frames:
        failures.append(f"{report.count} of {args.frames} frames timed")
    if p99_ms > args.max_p99_ms:
        failures.append(f"T_d p99 {p99_ms:.3f} ms > {args.max_p99_ms} ms")
    return _verdict(failures)


def _cmd_xapp(args: argparse.Namespace) -> int:
    model, classes = load_online_model(args.model)
    stats = run_xapp(
        model,
        classes,
        broker_host=args.host,
        broker_port=args.port,
        policy=_policy_from_args(args),
        log_path=args.log,
        idle_timeout_s=args.idle_timeout_s,
    )
    print(
        f"frames: {stats.frames}  decisions: {stats.decisions}"
        f"  commands: {stats.commands}  malformed: {stats.malformed}  dropped: {stats.dropped}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranguard",
        description="Early attack detection for a simulated RAN: data, models, closed loop.",
    )
    parser.add_argument("--seed", type=int, help="seed for scenario generation and training")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("collect", help="run a scenario and write a labeled dataset CSV")
    _add_scenario_args(sub, default_preset="one_ue")
    sub.add_argument("--out", required=True, help="output dataset path")
    sub.set_defaults(func=_cmd_collect)

    sub = commands.add_parser("train", help="train a classifier on a dataset CSV")
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True, help="output model path")
    sub.add_argument("--algo", choices=ALGO_CHOICES, default=TrainOptions.algo)
    sub.add_argument("--trees", type=int, default=TrainOptions.trees)
    sub.add_argument("--max-depth", type=int, default=TrainOptions.max_depth)
    sub.add_argument("--min-samples-split", type=int, default=TrainOptions.min_samples_split)
    sub.add_argument("--min-samples-leaf", type=int, default=TrainOptions.min_samples_leaf)
    sub.add_argument("--k", type=int, default=TrainOptions.k)
    sub.add_argument("--rounds", type=int, default=TrainOptions.rounds)
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("evaluate", help="score a model against a dataset CSV")
    sub.add_argument("--model", required=True)
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--delta-i-samples", type=int, default=10_000)
    sub.add_argument(
        "--assert", dest="check", action="store_true", help="exit 1 unless thresholds are met"
    )
    sub.add_argument("--min-accuracy", type=float, default=0.90)
    sub.add_argument("--min-f1", type=float, default=0.93)
    sub.set_defaults(func=_cmd_evaluate)

    sub = commands.add_parser("closed-loop", help="virtual-time detection and mitigation run")
    sub.add_argument("--model", required=True)
    _add_scenario_args(sub, default_preset="attack_demo")
    sub.add_argument("--policy", help="policy config file")
    sub.add_argument("--out", help="directory for predictions/cdf/episodes/summary")
    sub.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="exit 1 unless every attack is mitigated exactly once with no false releases",
    )
    sub.set_defaults(func=_cmd_closed_loop)

    sub = commands.add_parser("bench-latency", help="end-to-end delay over a real loopback bus")
    sub.add_argument("--model", required=True)
    sub.add_argument("--frames", type=int, default=300)
    sub.add_argument("--period-ms", type=int, default=10, help="station measurement period")
    sub.add_argument("--max-p99-ms", type=float, help="exit 1 if T_d p99 exceeds this")
    sub.set_defaults(func=_cmd_bench_latency)

    sub = commands.add_parser("xapp", help="attach to a live bus, classify, and send commands")
    sub.add_argument("--model", required=True)
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, required=True)
    sub.add_argument("--policy", help="policy config file")
    sub.add_argument("--log", help="prediction log CSV path")
    sub.add_argument("--idle-timeout-s", type=float, default=5.0)
    sub.set_defaults(func=_cmd_xapp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a ScenarioError or a PolicyError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
