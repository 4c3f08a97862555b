"""ranguard benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ranguard from ./src. With
--trace 0 it prints every end-to-end metric; with --trace 1 it measures the
workload once untraced and once traced, and prints every per-layer metric.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it record the environment and per-run details. A full report
(and, traced, every span) goes to perfbench/.work/. The exit code is 0 only
when every correctness check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path

from perftrace import BUS_SPANS, FRAME_SPANS, ML_SPANS, Tracer, layer_metrics, self_total_ns, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_frame": "ms",
    "frames_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

# Above this share of a CPU's time taken by other guests, wall-clock figures
# read slow, and cell_loopback may have too few quiet periods to measure on.
STEAL_WARN_PCT = 2.0

PER_LAYER = {
    "ml.predict.us_p50": "us",
    "ml.predict.us_p99": "us",
    "ml.predict.calls": "count",
    "ml.predict_batch.rows": "count",
    "ml.predict_batch.us_per_row": "us",
    "ml.train.s": "s",
    "ml.load.s": "s",
    "pipeline.collect.s": "s",
    "kpm.to_payload.us": "us",
    "kpm.from_payload.us": "us",
    "kpm.feature_vector.us": "us",
    "traffic.next_sample.us": "us",
    "traffic.next_sample.calls": "count",
    "ransim.tick.self_us": "us",
    "ransim.apply_command.us": "us",
    "ransim.commands_applied": "count",
    "ransim.generator_late_ms_p50": "ms",
    "ransim.generator_late_ms_p99": "ms",
    "databus.encode.us": "us",
    "databus.decode.us": "us",
    "databus.delta_d.us_p50": "us",
    "databus.delta_d.us_p99": "us",
    "databus.delta_dr.us_p50": "us",
    "databus.delta_dr.us_p99": "us",
    "databus.delta_bd.us_p50": "us",
    "databus.delta_bd.us_p99": "us",
    "databus.dropped": "count",
    "databus.frames_out": "count",
    "xapp.on_measurement.self_us": "us",
    "xapp.decisions": "count",
    "xapp.commands": "count",
    "xapp.malformed": "count",
    "xapp.cold_start_releases": "count",
    "pipeline.closed_loop.self_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.self_coverage_pct": "%",
} | {f"self_share_pct.{name}": "%" for name in FRAME_SPANS}

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() or "unknown"


def src_digest() -> str:
    """SHA-256 over every source file, so results stay attributable outside git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace, placement: dict) -> dict:
    import numpy
    import workloads

    loopback = [name for _, name in socket.if_nameindex() if name.startswith("lo")]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": workloads.USABLE_CPUS,
        "cpu_model": cpu_model(),
        "loopback": {"interface": loopback[0] if loopback else "unknown", "address": "127.0.0.1"},
        "placement": placement,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def steal_pct(before: dict, after: dict) -> dict[str, float]:
    """Share of each CPU's time the hypervisor gave to other guests during the run."""
    out = {}
    for cpu, (total, steal) in after.items():
        if cpu in before and total > before[cpu][0]:
            out[cpu] = round(100.0 * (steal - before[cpu][1]) / (total - before[cpu][0]), 1)
    return out


def separation_problems(workload: str, summary: dict) -> list[str]:
    """Layer separation: no bus work in virtual time, bus and ml work in the live cell."""
    bus = sum(len(summary[n]["dur"]) for n in BUS_SPANS if n in summary)
    ml = sum(len(summary[n]["dur"]) for n in ML_SPANS if n in summary)
    ok = {
        "attack_demo_virtual": bus == 0,
        "cell_loopback": bus > 0 and ml > 0,
    }[workload]
    return [] if ok else [f"layer separation broken: {bus} databus spans, {ml} ml spans"]


def per_layer(workload: str, base, traced) -> tuple[dict, list[str]]:
    summary = summarize(traced.dumps, *traced.window_ns)
    counts: Counter = Counter()
    for dump in traced.dumps:
        counts.update(dump["counts"])
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(layer_metrics(summary, counts))
    layer.update(traced.layer)
    overhead = traced.metrics["latency_p50_ms"] - base.metrics["latency_p50_ms"]
    layer["trace.overhead_ms"] = overhead
    layer["trace.overhead_pct"] = 100.0 * overhead / base.metrics["latency_p50_ms"]
    # per frame, so that a traced pass of another length compares fairly
    self_per_frame_s = self_total_ns(summary) / 1e9 / traced.measured_frames
    layer["trace.self_coverage_pct"] = 100.0 * self_per_frame_s / (base.measured_s / base.measured_frames)
    return layer, separation_problems(workload, summary)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ranguard benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=("attack_demo_virtual", "cell_loopback"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "ranguard" / "__init__.py").is_file():
        print(f"perfbench: no ranguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    report_dir = HERE / ".work"
    work = report_dir / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Ctx(args.seed, args.seconds, work)
    os.sched_setaffinity(0, {workloads.BENCH_CPU})
    measure = workloads.WORKLOADS[args.workload]
    ticks = workloads.cpu_ticks()
    try:
        if args.trace:
            base = measure(ctx, None, 1)
            traced = measure(ctx, Tracer("bench"), 1)
            outcomes = [base, traced]
            values, separation = per_layer(args.workload, base, traced)
            units = PER_LAYER
        else:
            outcomes = [measure(ctx, None, workloads.SETUP_REPS)]
            values, separation = outcomes[0].metrics, []
            units = END_TO_END
    finally:
        for child in ctx.children:
            child.kill()
        shutil.rmtree(work, ignore_errors=True)

    problems = separation + [p for o in outcomes for p in o.problems]
    failed = len(separation) + sum(o.failed for o in outcomes)
    env = environment(args, outcomes[-1].info.pop("placement"))
    # Time stolen by other guests slows every wall-clock figure; it explains
    # most of the run-to-run spread on a shared virtual machine.
    env["host_steal_pct"] = steal_pct(ticks, workloads.cpu_ticks())
    report = {
        "env": env,
        "info": [o.info for o in outcomes],
        "end_to_end": [o.metrics for o in outcomes],
        "problems": problems,
    }
    if args.trace:
        report["per_layer"] = values
        report["spans"] = [
            {"proc": d["proc"], "fields": ["id", "name", "start_ns", "end_ns", "parent", "frame"], "spans": d["spans"]}
            for d in outcomes[-1].dumps
        ]
    report_path = report_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    steal = max(env["host_steal_pct"].values(), default=0.0)
    if steal > STEAL_WARN_PCT:
        print(f"perfbench: warning: the host took {steal}% of a CPU's time; wall-clock figures read slow", file=sys.stderr)
    if any(o.info.get("generator_fell_behind") for o in outcomes):
        print("perfbench: warning: the load generator fell a whole period behind", file=sys.stderr)
    print("env " + json.dumps(env))
    for outcome in outcomes:
        print("info " + json.dumps(outcome.info))
    print(f"report {report_path.relative_to(ROOT)}")
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
