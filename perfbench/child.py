"""Benchmark child processes: the broker and the xApp, each in a process of its own.

    python3 perfbench/child.py broker --result OUT.json --cpu N [--trace]
        Serves a Broker on an ephemeral 127.0.0.1 port, prints the port on
        stdout, and stops when stdin closes.
    python3 perfbench/child.py xapp --result OUT.json --cpu N --model M --port P --log L [--trace]
        Loads the model and runs the deployment entry `run_xapp` (the path
        `ranguard xapp` runs) until the stream stays idle for --idle seconds.

Each pins itself to CPU N. Both write OUT.json on the way out: CPU seconds spent serving, peak RSS, the
layer's own counters and, with --trace, every span recorded in the process.
The parent sets PYTHONPATH so that `ranguard` imports from the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from perftrace import TracedModel, Tracer, install


def serve_broker(tracer: Tracer | None) -> dict:
    from ranguard.databus import Broker

    broker = Broker(host="127.0.0.1", port=0)
    broker.start()
    cpu0 = time.process_time()
    try:
        print(broker.address[1], flush=True)
        sys.stdin.read()
        cpu = time.process_time() - cpu0
        stats = broker.stats()
    finally:
        broker.stop()
    return {
        "cpu_s": cpu,
        "frames_in": stats.frames_in,
        "frames_out": stats.frames_out,
        "dropped": stats.dropped,
    }


def serve_xapp(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    from ranguard.pipeline import load_online_model, run_xapp

    with tracer.span("ml.load") if tracer else nullcontext():
        model, labels = load_online_model(args.model)
    if tracer:
        model = TracedModel(model, tracer)
    cpu0 = time.process_time()
    stats = run_xapp(
        model,
        labels,
        broker_host="127.0.0.1",
        broker_port=args.port,
        log_path=args.log,
        idle_timeout_s=args.idle,
    )
    return {
        "cpu_s": time.process_time() - cpu0,
        "frames": stats.frames,
        "decisions": stats.decisions,
        "commands": stats.commands,
        "malformed": stats.malformed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("broker", "xapp"))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, required=True, help="the one CPU to run on")
    parser.add_argument("--model", type=Path)
    parser.add_argument("--port", type=int)
    parser.add_argument("--log", type=Path)
    parser.add_argument("--idle", type=float, default=1.0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    tracer = Tracer(args.role) if args.trace else None
    uninstall = install(tracer) if tracer else None
    try:
        result = serve_broker(tracer) if args.role == "broker" else serve_xapp(args, tracer)
    finally:
        if uninstall:
            uninstall()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.dump()
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
