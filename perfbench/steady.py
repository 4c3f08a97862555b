"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--save SET.json] [--against EARLIER.json]

Runs perfbench/run.py once per seed with BENCHMARK.json's run_seconds and
prints, per metric, the median and the distance between the first and third
quartile as a share of the median, next to a third of the metric's bound.
--save keeps this set's values; --against compares this set's medians with a
saved set's and prints the drift: max(r, 1/r) - 1 for the ratio r of the two
medians, that is, how much worse one set reads than the other whichever of
them runs first. A drift above the metric's bound would gate the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfstats import iqr_share

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write this set's values here as JSON")
    parser.add_argument("--against", type=Path, help="a --save file to compare this set's medians with")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else None
        if result is None or not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed\n{out.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        env = next(json.loads(line[4:]) for line in out.stdout.splitlines() if line.startswith("env "))
        figures = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
        print(f"seed {seed}: {figures} host_steal_pct={env['host_steal_pct']}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        share = iqr_share(vals)
        flag = "ok" if share < bounds[name] / 3 else "WIDE"
        print(f"{name:18s} median {statistics.median(vals):12.5g}  spread {share:6.3f}  third of bound {bounds[name] / 3:.3f}  {flag}")
    if args.save:
        args.save.write_text(json.dumps(values))
    if args.against:
        earlier = json.loads(args.against.read_text())
        for name, vals in values.items():
            ratio = statistics.median(vals) / statistics.median(earlier[name])
            drift = max(ratio, 1 / ratio) - 1
            flag = "ok" if drift <= bounds[name] else "OUT"
            print(f"{name:18s} median ratio {ratio:6.3f}  drift {drift:6.3f}  bound {bounds[name]:.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
