"""The benchmark's workloads: set-up, the measured run, and the correctness checks.

Each workload function takes a `Ctx` and returns an `Outcome`. It drives
ranguard only through public functions and classes, times the calls from
outside, and when given a tracer wraps those calls in spans (see perftrace).
The checks are plain functions over recorded outputs, so the self-tests can
plant faults in those outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import uuid
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import NOMINAL_S, ReferenceKernel, at_nominal, smoothed
from perfstats import late_values, percentile, quiet_periods, tail
from perftrace import TracedModel, Tracer, install

from ranguard import pipeline
from ranguard.databus import BusClient, now_us
from ranguard.kpm import CLASS_ORDER, TrafficCategory, category_of, feature_vector, read_dataset
from ranguard.ml import save_model
from ranguard.ransim import (
    CommandAction,
    RicCommand,
    ScenarioConfig,
    TimeMode,
    UeSpec,
    build_station,
    handle_command_frame,
)
from ranguard.traffic import ScriptSegment
from ranguard.xapp import DEFAULT_WINDOW

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
# Fixed placement, so that every run compares like with like: the benchmark
# process (load generator) and the broker on the first usable CPU, the xApp,
# the heavier part of the system under test, on the second.
USABLE_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPU = USABLE_CPUS[0]
SUT_CPU = USABLE_CPUS[1] if len(USABLE_CPUS) > 1 else USABLE_CPUS[0]
TRAIN_SEED = 0  # the seed-fixed 6000-sample one_ue dataset of acceptance criterion 1
SETUP_REPS = 3
SETUP_KERNEL_RUNS = 5  # reference kernel runs on each side of a set-up

DEMO_LIST = 1000  # attack_demo scenarios in the fixed list; a run cycles through them
# closed-loop runs whose raw labels are checked together; checking all at the
# end would make peak memory grow with the number of runs the host fits in
CHECK_EVERY = 20
# attack_demo_virtual's wall-clock figures are taken over the closed loops in
# which the host took no CPU time; with fewer quiet loops than this, over all.
MIN_QUIET_LOOPS = 100

# 25 UEs: at 50 the xApp ran near saturation whenever the host stole CPU
# time, and T_d swung with the host's load far more than with the code.
CELL_BENIGN = 20
CELL_ATTACKERS = 5
CELL_LEAD_US = 20_000  # first tick is due this long after set-up ends
KERNEL_LEAD_US = 15_000  # the reference kernel runs this long before a tick is due
XAPP_IDLE_S = 1.0  # the xApp exits once the stream has been quiet this long
# cell_loopback measures T_d over the periods in which the host took no CPU
# time; with fewer quiet periods than this, over every period.
MIN_QUIET_PERIODS = 20

# Cold-start releases (see check_closed_loop): the code this benchmark was
# written against releases about 0.25% of UEs this way. A run may release six
# times that share, and at least two UEs; more fails the run, so a change that
# makes UEs release early fails a check instead of only raising a counter.
COLD_START_SHARE = 0.015
COLD_START_FLOOR = 2


@dataclass
class Ctx:
    seed: int
    seconds: int
    work: Path  # scratch directory inside the checkout
    children: list = field(default_factory=list)  # every Child started, for clean-up


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]  # end-to-end
    layer: dict[str, float]  # per-layer figures the spans cannot give
    window_ns: tuple[int, int]  # measured window on the monotonic clock
    measured_s: float  # time under measurement within that window
    measured_frames: int  # frames handled in that time
    dumps: list[dict] = field(default_factory=list)  # traces of every process
    info: dict = field(default_factory=dict)


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def cpu_ticks() -> dict[str, tuple[int, int]]:
    """Per-CPU (total, steal) clock ticks from /proc/stat; empty where it is unreadable."""
    try:
        with open("/proc/stat") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and line[3].isdigit()]
    except OSError:
        return {}
    return {row[0]: (sum(int(v) for v in row[1:9]), int(row[8])) for row in rows}


def steal_ticks(cpus: tuple[int, ...]) -> tuple[int, ...]:
    """Steal clock ticks of the given CPUs so far (zeros where unreadable)."""
    ticks = cpu_ticks()
    return tuple(ticks.get(f"cpu{cpu}", (0, 0))[1] for cpu in cpus)


def rss_mb(maxrss_kb: int) -> float:
    return maxrss_kb / 1024.0


def own_maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_setup(make, discard, reps: int, kernel: ReferenceKernel):
    """Median seconds of `reps` complete set-ups, at the kernel's nominal speed
    and as measured; keeps the last one alive.

    Each set-up is read against the median time of the kernel runs just
    before and just after it.
    """
    nominal, measured, live = [], [], None
    for _ in range(reps):
        if live is not None:
            discard(live)
        around = [kernel.seconds()[0] for _ in range(SETUP_KERNEL_RUNS)]
        t0 = time.perf_counter()
        live = make()
        measured.append(time.perf_counter() - t0)
        around += [kernel.seconds()[0] for _ in range(SETUP_KERNEL_RUNS)]
        nominal.append(at_nominal(measured[-1], statistics.median(around)))
    return statistics.median(nominal), statistics.median(measured), live


def train_serving_model(work: Path, tracer: Tracer | None) -> Path:
    """RF (100 trees, depth 15) on the seed-fixed one_ue dataset, saved to a model file."""
    data, path = work / "train.csv", work / "model.json"
    with maybe_span(tracer, "pipeline.collect"):
        pipeline.collect(pipeline.one_ue_scenario(TRAIN_SEED), data)
    rows = read_dataset(data)
    with maybe_span(tracer, "ml.train"):
        model, _ = pipeline.train_model(rows, pipeline.TrainOptions(algo="rf", trees=100, max_depth=15))
    save_model(model, path, [c.value for c in CLASS_ORDER])
    return path


def latency_figures(values: list[float], scale: float) -> tuple[float, float, dict]:
    """(p50, whole-run tail, details for the info line), values times scale."""
    pct, value = tail(values)
    details = {"samples": len(values), f"whole_run_p{pct}": value * scale}
    return percentile(values, 50) * scale, value * scale, details


def cold_start_problems(cold: int, ues: int) -> list[str]:
    """A failure when more UEs released on a cold start than the known defect explains."""
    cap = max(COLD_START_FLOOR, math.ceil(COLD_START_SHARE * ues))
    return [f"{cold} of {ues} UEs released on a cold start; at most {cap} allowed"] if cold > cap else []


def is_attack(cls) -> bool:
    return category_of(cls) is TrafficCategory.ATTACK


# -- child processes --


class Child:
    """A perfbench/child.py process; its result file appears when it exits."""

    def __init__(self, ctx: Ctx, role: str, args: list[str], trace: bool, cpu: int) -> None:
        self.role = role
        self.result_path = ctx.work / f"{role}-{uuid.uuid4().hex}.json"
        src = str(HERE.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(HERE / "child.py"), role, "--result", str(self.result_path)]
        cmd += ["--cpu", str(cpu), *args]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE if role == "broker" else subprocess.DEVNULL,
            stdout=subprocess.PIPE if role == "broker" else subprocess.DEVNULL,
            text=True,
            env=env,
        )
        ctx.children.append(self)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError(f"{self.role} process did not report within {timeout} s")
        return line.strip()

    def wait(self, timeout: float) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{self.role} process did not finish within {timeout} s") from None

    def stop(self) -> dict:
        """Close stdin (the broker's stop signal), wait, and read the result file."""
        if self.proc.stdin:
            self.proc.stdin.close()
        self.wait(30.0)
        return self.result()

    def result(self) -> dict:
        if self.proc.returncode != 0:
            raise RuntimeError(f"{self.role} process exited with code {self.proc.returncode}")
        out = json.loads(self.result_path.read_text())
        self.result_path.unlink()
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe:
                pipe.close()
        self.result_path.unlink(missing_ok=True)


def start_broker(ctx: Ctx, trace: bool, cpu: int) -> tuple[Child, int]:
    broker = Child(ctx, "broker", [], trace, cpu)
    return broker, int(broker.read_line(60.0))


def placement(**pids: int) -> dict:
    return {role: {"pid": pid, "cpus": sorted(os.sched_getaffinity(pid))} for role, pid in pids.items()}


# -- attack_demo_virtual --


def check_closed_loop(result, window: int) -> tuple[list[str], int]:
    """Every attack episode released exactly once, no benign UE released.

    A release decided before the UE's smoothing window has filled is the
    known cold-start defect (a fresh flow's ramp reads as slowloris). It is
    counted and returned, and it pre-empts that UE's episodes; the caller
    fails the run when there are more than cold_start_problems allows.
    Returns (problems, cold-start releases).
    """
    problems: list[str] = []
    seen: Counter = Counter()
    releases: dict[int, list[tuple[int, bool]]] = {}
    for d in result.decisions:
        seen[d.ue_id] += 1
        if d.command is not None and d.command.action is CommandAction.RRC_RELEASE:
            releases.setdefault(d.ue_id, []).append((d.timestamp_ms, seen[d.ue_id] < window))
    onset = {}
    for seg in result.segments:
        if is_attack(seg.label):
            onset.setdefault(seg.ue_id, seg.start_ms)
    cold_ues = set()
    for ue, rel in releases.items():
        if len(rel) != 1:
            problems.append(f"ue {ue} released {len(rel)} times")
        ts, cold = rel[0]
        if cold:
            cold_ues.add(ue)
        elif ue not in onset or ts < onset[ue]:
            problems.append(f"benign ue {ue} released at {ts} ms")
    for e in result.episodes:
        if not e.released and e.ue_id not in cold_ues:
            problems.append(f"attack episode of ue {e.ue_id} from {e.start_ms} ms never released")
    return problems, len(cold_ues)


def replay_rows(config: ScenarioConfig, result) -> tuple[list[list[float]], list[str]]:
    """Feature rows behind each decision, from a fresh station replaying the commands."""
    bs = build_station(config)
    decisions = iter(result.decisions)
    rows: list[list[float]] = []
    for t in range(0, config.duration_ms, config.period_ms):
        for labeled in bs.tick_samples(t):
            s = labeled.sample
            d = next(decisions, None)
            if d is None or (d.ue_id, d.timestamp_ms) != (s.ue_id, s.timestamp_ms):
                return rows, [f"decisions diverge from the station at ue {s.ue_id}, {t} ms"]
            rows.append(feature_vector(s))
            if d.command is not None:
                bs.apply_command(d.command)
    if next(decisions, None) is not None:
        return rows, ["more decisions than station samples"]
    return rows, []


def check_raw_labels(model, rows: list[np.ndarray], raw: list[np.ndarray]) -> list[str]:
    """Each decision's raw label equals model.predict_batch over the same feature rows."""
    if not rows:
        return []
    expected = model.predict_batch(np.concatenate(rows))
    wrong = int(np.count_nonzero(expected != np.concatenate(raw)))
    return [f"{wrong} raw labels differ from predict_batch on the same rows"] if wrong else []


def attack_demo_virtual(ctx: Ctx, tracer: Tracer | None, reps: int) -> Outcome:
    """Seeded attack_demo closed loops back to back in virtual time, one thread.

    Each run is checked as soon as it ends, outside the timed calls and
    untraced, and its raw labels with those of the next few runs, so memory
    stays flat however many runs fit in --seconds. The
    reference kernel is timed right after each run, and each run is read
    against those kernel times, smoothed, at the kernel's nominal speed (see
    hostspeed); the figures as measured are on the info line.
    """
    rng = np.random.default_rng(ctx.seed)
    configs = [pipeline.attack_demo_scenario(int(s)) for s in rng.integers(0, 2**31 - 1, DEMO_LIST)]
    kernel = ReferenceKernel()

    def make():
        path = train_serving_model(ctx.work, tracer)
        with maybe_span(tracer, "ml.load"):
            return pipeline.load_online_model(path)

    setup_s, setup_measured, (model, labels) = timed_setup(make, lambda _: None, reps, kernel)
    served = TracedModel(model, tracer) if tracer else model
    walls: list[float] = []
    cpus: list[float] = []
    counts: list[int] = []  # decisions per closed loop
    steal_marks: list[tuple[int, ...]] = []
    kernel_walls: list[float] = []
    kernel_cpus: list[float] = []
    rows: list[np.ndarray] = []
    raw: list[np.ndarray] = []
    problems: list[str] = []
    decisions = cold = ues = 0
    lo = time.monotonic_ns()
    while sum(walls) < ctx.seconds:
        config = configs[len(walls) % len(configs)]
        steal_marks.append(steal_ticks((BENCH_CPU,)))
        uninstall = install(tracer) if tracer else None
        try:
            cpu0 = time.process_time()
            start = time.perf_counter()
            with maybe_span(tracer, "pipeline.closed_loop"):
                result = pipeline.closed_loop(config, served, labels)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu0)
        finally:
            if uninstall:
                uninstall()
        kernel_wall, kernel_cpu = kernel.seconds()
        kernel_walls.append(kernel_wall)
        kernel_cpus.append(kernel_cpu)
        counts.append(len(result.decisions))
        decisions += counts[-1]
        ues += len({d.ue_id for d in result.decisions})
        found, n_cold = check_closed_loop(result, DEFAULT_WINDOW)
        run_rows, diverged = replay_rows(config, result)
        problems += found + diverged
        cold += n_cold
        if not diverged:
            rows.append(np.asarray(run_rows, dtype=np.float64))
            raw.append(np.asarray([labels.index(d.raw) for d in result.decisions]))
        if len(rows) == CHECK_EVERY:
            problems += check_raw_labels(model, rows, raw)
            rows.clear()
            raw.clear()
    steal_marks.append(steal_ticks((BENCH_CPU,)))
    hi = time.monotonic_ns()
    problems += cold_start_problems(cold, ues)
    problems += check_raw_labels(model, rows, raw)
    nominal = [at_nominal(w, k) for w, k in zip(walls, smoothed(kernel_walls))]
    nominal_cpu = sum(at_nominal(c, k) for c, k in zip(cpus, smoothed(kernel_cpus)))
    # Time the host gives other guests stretches a loop's wall time but
    # rarely lands in the short kernel run next to it.
    quiet = quiet_periods(steal_marks)
    quiet_loops = sum(quiet)
    if quiet_loops < MIN_QUIET_LOOPS:
        quiet = [True] * len(walls)
    measured = [n for n, ok in zip(nominal, quiet) if ok]
    measured_decisions = sum(c for c, ok in zip(counts, quiet) if ok)
    p50, tail_v, latency = latency_figures(measured, 1e3)
    latency["tail"] = "the whole-run tail above"
    latency |= {"loops": len(measured), "quiet_loops": quiet_loops}
    measured_p50, measured_tail, _ = latency_figures(walls, 1e3)
    return Outcome(
        attempted=decisions,
        failed=len(problems),
        problems=problems,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb(own_maxrss_kb()),
            "cpu_ms_per_frame": nominal_cpu * 1e3 / decisions,
            "frames_per_s": measured_decisions / sum(measured),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail_v,
        },
        layer={"xapp.cold_start_releases": cold},
        window_ns=(lo, hi),
        measured_s=sum(walls),
        measured_frames=decisions,
        dumps=[tracer.dump()] if tracer else [],
        info={
            "closed_loop_runs": len(walls),
            "decisions": decisions,
            "latency_ms": {"of": "wall time of one closed_loop run over the quiet loops, at the kernel's nominal speed"} | latency,
            "as_measured": {
                "setup_s": setup_measured,
                "cpu_ms_per_frame": sum(cpus) * 1e3 / decisions,
                "frames_per_s": decisions / sum(walls),
                "latency_p50_ms": measured_p50,
                "latency_tail_ms": measured_tail,
            },
            "kernel_ms": {"nominal": NOMINAL_S * 1e3}
            | {f"p{q}": percentile(kernel_walls, q) * 1e3 for q in (25, 50, 75)},
            "cold_start_releases": cold,
            "placement": placement(bench=os.getpid()),
        },
    )


# -- cell_loopback --


def cell_scenario(seed: int, duration_ms: int) -> tuple[ScenarioConfig, dict[int, int]]:
    """Random-benign UEs and attackers with staggered onsets; returns (config, onsets)."""
    if duration_ms < 6000:
        raise ValueError("cell_loopback needs at least 6 s to fit its staggered attack onsets")
    rng = np.random.default_rng(seed)
    benign = pipeline.BENIGN_CLASSES
    attack = pipeline.ATTACK_CLASSES
    ues = [UeSpec(ue, None, classes=benign) for ue in range(1, CELL_BENIGN + 1)]
    first, last = 1000, duration_ms - 4000  # every attack runs >= 4 s, as in attack_demo
    step = (last - first) / (CELL_ATTACKERS - 1)
    onsets = {}
    for j in range(CELL_ATTACKERS):
        jitter = rng.uniform(-step / 4, step / 4) if 0 < j < CELL_ATTACKERS - 1 else 0.0
        lead = int((first + j * step + jitter) // 100) * 100
        ue = CELL_BENIGN + 1 + j
        legs = (
            ScriptSegment(benign[int(rng.integers(len(benign)))], lead),
            ScriptSegment(attack[int(rng.integers(len(attack)))], duration_ms - lead),
        )
        ues.append(UeSpec(ue, legs))
        onsets[ue] = lead
    config = ScenarioConfig(
        duration_ms=duration_ms,
        ues=tuple(ues),
        seed=int(rng.integers(0, 2**31 - 1)),
        time_mode=TimeMode.REAL,
    )
    return config, onsets


def read_decision_log(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [
            {
                "ue_id": int(row["ue_id"]),
                "timestamp_ms": int(row["timestamp_ms"]),
                "command": row["command"],
                "t_d_us": int(row["T_d_us"]),
            }
            for row in csv.DictReader(fh)
        ]


def check_cell(
    sent: dict[tuple[int, int], int],
    log: list[dict],
    applied: list[RicCommand],
    onsets: dict[int, int],
    window: int,
) -> tuple[list[str], dict[tuple[int, int], int], int]:
    """Accounting and release checks; returns (problems, decided T_d by frame, cold starts).

    Every sent frame is decided once or counted lost, and nothing unsent is
    decided. Every attacker is released exactly once, at or after its onset,
    and no benign UE is released, except for cold-start releases (see
    check_closed_loop), which are counted and capped by cold_start_problems.
    """
    problems: list[str] = []
    decided: dict[tuple[int, int], int] = {}
    rank: Counter = Counter()
    released_at: dict[int, tuple[int, bool]] = {}
    for row in sorted(log, key=lambda r: r["timestamp_ms"]):
        key = (row["ue_id"], row["timestamp_ms"])
        if key not in sent:
            problems.append(f"decision for a frame never sent: ue {key[0]}, {key[1]} ms")
        elif key in decided:
            problems.append(f"frame decided twice: ue {key[0]}, {key[1]} ms")
        decided[key] = row["t_d_us"]
        rank[row["ue_id"]] += 1
        if row["command"] == CommandAction.RRC_RELEASE.value:
            released_at.setdefault(row["ue_id"], (row["timestamp_ms"], rank[row["ue_id"]] < window))
    issued = sum(1 for row in log if row["command"])
    if issued != len(applied):
        problems.append(f"xApp issued {issued} commands, station applied {len(applied)}")
    releases = Counter(c.ue_id for c in applied if c.action is CommandAction.RRC_RELEASE)
    cold = 0
    for ue in sorted(set(releases) | set(onsets)):
        count = releases.get(ue, 0)
        ts, is_cold = released_at.get(ue, (None, False))
        if is_cold and count == 1:
            cold += 1
        elif ue in onsets and count != 1:
            problems.append(f"attacker ue {ue} released {count} times")
        elif ue in onsets and (ts is None or ts < onsets[ue]):
            problems.append(f"attacker ue {ue} released at {ts} ms, before its onset {onsets[ue]} ms")
        elif ue not in onsets:
            problems.append(f"benign ue {ue} released {count} times")
    problems += cold_start_problems(cold, len({key[0] for key in sent}))
    return problems, {k: v for k, v in decided.items() if k in sent}, cold


def check_t_d_identity(stamps: list[list[int]], decided: dict[tuple[int, int], int]) -> list[str]:
    """T_d = t_n + 2*delta_d + delta_i, recomputed from each decision's raw stamps."""
    if len(stamps) != len(decided):
        return [f"{len(stamps)} stamp traces for {len(decided)} decisions"]
    wrong = 0
    for ue, ts, send, bus_in, bus_out, recv, infer_start, infer_end in stamps:
        t_n = 2 * ((bus_in - send) + (recv - bus_out))
        t_d = t_n + 2 * (bus_out - bus_in) + (infer_end - infer_start)
        wrong += decided.get((ue, ts)) != t_d
    return [f"{wrong} decisions whose T_d does not recompute from their stamps"] if wrong else []


def period_tail(sent: dict[tuple[int, int], int], decided: dict[tuple[int, int], int]) -> float:
    """Median over periods of the T_d of each period's last decision (lost: infinite).

    It is the time by which a typical period's whole burst is decided. As a
    median over some 300 periods it moves with the code, not with the odd
    period in which the host stole the CPU.
    """
    slowest: dict[int, float] = {}
    for key, value in zip(sent, late_values(sent, decided)):
        slowest[key[1]] = max(slowest.get(key[1], 0.0), value)
    return statistics.median(slowest.values())


def delta_figures(prefix: str, values: list[int]) -> dict[str, float]:
    if not values:
        return {f"{prefix}.us_p50": 0.0, f"{prefix}.us_p99": 0.0}
    return {f"{prefix}.us_p50": float(percentile(values, 50)), f"{prefix}.us_p99": float(percentile(values, 99))}


@dataclass
class Cell:
    broker: Child
    client: BusClient
    ctrl: object  # the station's ctrl.<bs_id> subscription
    xapp: Child
    log: Path


def cell_loopback(ctx: Ctx, tracer: Tracer | None, reps: int) -> Outcome:
    """One station, 25 UEs on the real 100 ms period, an xApp process closing the loop.

    Shortly before each tick is due, when the previous burst has long been
    decided, the generator times the reference kernel once. Every time
    figure is read against the median of those kernel times (see hostspeed);
    the figures as measured are on the info line.
    """
    config, onsets = cell_scenario(ctx.seed, ctx.seconds * 1000)
    bs = build_station(config)
    trace = tracer is not None
    kernel = ReferenceKernel()

    def make() -> Cell:
        model_path = train_serving_model(ctx.work, tracer)
        broker, port = start_broker(ctx, trace, BENCH_CPU)
        client = BusClient.connect(HOST, port)
        ctrl = client.subscribe(bs.ctrl_topic)
        log = ctx.work / f"decisions-{uuid.uuid4().hex}.csv"
        args = ["--model", str(model_path), "--port", str(port), "--log", str(log), "--idle", str(XAPP_IDLE_S)]
        xapp = Child(ctx, "xapp", args, trace, SUT_CPU)
        deadline = time.monotonic() + 60.0
        while not log.exists():  # run_xapp opens its log once the broker acks kpm.*
            if xapp.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("xApp process did not subscribe")
            time.sleep(0.002)
        return Cell(broker, client, ctrl, xapp, log)

    def discard(cell: Cell) -> None:
        cell.client.close()
        cell.xapp.kill()
        cell.broker.kill()
        cell.log.unlink(missing_ok=True)

    setup_s, setup_measured, cell = timed_setup(make, discard, reps, kernel)
    where = placement(generator=os.getpid(), broker=cell.broker.pid, xapp=cell.xapp.pid)
    uninstall = install(tracer) if tracer else None
    try:
        applied: list[RicCommand] = []

        def apply_commands(timeout: float) -> None:
            while (frame := cell.ctrl.poll(timeout=timeout)) is not None:
                event, ok = handle_command_frame(bs, frame, applied_at_us=now_us())
                if ok:
                    applied.append(RicCommand.from_payload(frame.payload))
                if event is not None:
                    cell.client.publish(event.kind, event.topic, event.payload, event.t_sent_us)

        sent: dict[tuple[int, int], int] = {}
        late_us: list[int] = []
        cpus = (BENCH_CPU, SUT_CPU)
        steal_marks: list[tuple[int, ...]] = []
        kernel_walls: list[float] = []
        kernel_cpu = 0.0  # taken off the generator's CPU time
        lo = time.monotonic_ns()
        cpu0 = time.process_time()
        t0 = now_us() + CELL_LEAD_US
        for t in range(0, config.duration_ms, config.period_ms):
            due = t0 + t * 1000
            if t and (idle := due - KERNEL_LEAD_US - now_us()) > 0:
                time.sleep(idle / 1e6)
                wall, kcpu = kernel.seconds()
                kernel_walls.append(wall)
                kernel_cpu += kcpu
            wait = due - now_us()
            if wait > 0:
                time.sleep(wait / 1e6)
            late_us.append(now_us() - due)
            steal_marks.append(steal_ticks(cpus))
            apply_commands(0)
            for frame in bs.tick(t, t_sent_us=due):
                cell.client.publish(frame.kind, frame.topic, frame.payload, frame.t_sent_us)
                sent[(frame.payload["ue_id"], t)] = due
        send_window_s = (now_us() - t0) / 1e6
        cell.xapp.wait(XAPP_IDLE_S + 60.0)
        steal_marks.append(steal_ticks(cpus))
        apply_commands(0.2)
        cpu = time.process_time() - cpu0 - kernel_cpu
        hi = time.monotonic_ns()
    finally:
        if uninstall:
            uninstall()
        cell.client.close()
    xapp_out = cell.xapp.result()
    broker_out = cell.broker.stop()
    log = read_decision_log(cell.log)
    cell.log.unlink()

    problems, decided, cold = check_cell(sent, log, applied, onsets, DEFAULT_WINDOW)
    if xapp_out["malformed"]:
        problems.append(f"xApp skipped {xapp_out['malformed']} malformed frames")
    dumps = [tracer.dump(), xapp_out.get("trace"), broker_out.get("trace")] if trace else []
    stamps = xapp_out["trace"]["stamps"] if trace else []
    if trace:
        problems += check_t_d_identity(stamps, decided)
    lost = len(sent) - len(decided)
    # Time the host gives other guests lands on the xApp's busy time and
    # delays a whole burst, so T_d is measured over the quiet periods.
    quiet = {t for t, ok in zip(range(0, config.duration_ms, config.period_ms), quiet_periods(steal_marks)) if ok}
    measured = sent if len(quiet) < MIN_QUIET_PERIODS else {k: v for k, v in sent.items() if k[1] in quiet}
    p50, _, latency = latency_figures(late_values(measured, decided), 1e-3)
    tail_v = period_tail(measured, decided) / 1e3
    whole_p50, _, whole = latency_figures(late_values(sent, decided), 1e-3)
    latency |= {
        "tail": "median over periods of the period's slowest frame",
        "periods": len({k[1] for k in measured}),
        "quiet_periods": len(quiet),
        "every_period": {"p50": whole_p50, "tail": period_tail(sent, decided) / 1e3} | whole,
    }
    late_ms = [v / 1e3 for v in late_us]
    behind = max(late_us) >= config.period_ms * 1000
    total_cpu = cpu + xapp_out["cpu_s"] + broker_out["cpu_s"]
    kernel_s = percentile(kernel_walls, 50)
    layer = {
        "ransim.generator_late_ms_p50": percentile(late_ms, 50),
        "ransim.generator_late_ms_p99": percentile(late_ms, 99),
        "databus.dropped": broker_out["dropped"],
        "databus.frames_out": broker_out["frames_out"],
        "xapp.cold_start_releases": cold,
    }
    layer.update(delta_figures("databus.delta_bd", [s[3] - s[2] for s in stamps]))
    layer.update(delta_figures("databus.delta_d", [s[4] - s[3] for s in stamps]))
    layer.update(delta_figures("databus.delta_dr", [s[5] - s[4] for s in stamps]))
    return Outcome(
        attempted=len(sent),
        failed=len(problems) + lost,
        problems=problems,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb(own_maxrss_kb() + xapp_out["maxrss_kb"] + broker_out["maxrss_kb"]),
            "cpu_ms_per_frame": at_nominal(total_cpu, kernel_s) * 1e3 / len(sent),
            "frames_per_s": xapp_out["decisions"] / at_nominal(xapp_out["cpu_s"], kernel_s),
            "latency_p50_ms": at_nominal(p50, kernel_s),
            "latency_tail_ms": at_nominal(tail_v, kernel_s),
        },
        layer=layer,
        window_ns=(lo, hi),
        measured_s=send_window_s,
        measured_frames=len(sent),
        dumps=[d for d in dumps if d],
        info={
            "frames_sent": len(sent),
            "frames_lost": lost,
            "loss_ratio": lost / len(sent),
            "latency_ms": {"of": "T_d from each frame's due time over the quiet periods; lost frames infinitely late; as measured"} | latency,
            "as_measured": {
                "setup_s": setup_measured,
                "cpu_ms_per_frame": total_cpu * 1e3 / len(sent),
                "frames_per_s": xapp_out["decisions"] / xapp_out["cpu_s"],
                "latency_p50_ms": p50,
                "latency_tail_ms": tail_v,
            },
            "kernel_ms": {"nominal": NOMINAL_S * 1e3, "runs": len(kernel_walls)}
            | {f"p{q}": percentile(kernel_walls, q) * 1e3 for q in (25, 50, 75)},
            "generator_late_ms": {"p50": percentile(late_ms, 50), "p99": percentile(late_ms, 99), "max": max(late_ms)},
            "generator_fell_behind": behind,
            "commands_applied": len(applied),
            "cold_start_releases": cold,
            "placement": where,
        },
    )


WORKLOADS = {
    "attack_demo_virtual": attack_demo_virtual,
    "cell_loopback": cell_loopback,
}
