"""cml-kit benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 10 --trace 0

Workloads (README.md lists the layers each one loads and bypasses):

* ``queries``: single-model calls (eval/sat/valid, bisimulation, search);
* ``orders``: two-model order, essential-order and distance calls;
* ``verify``: the 14 property suites at the default budget;
* ``cli``: every documented ``cml`` command plus a few more, one process each.

A run takes the workload's fixed operation mix and runs it in passes, each in
a fresh order drawn from the seed, until the workload's least number of passes
(one to four) are done and ``--seconds`` have passed. Between operations the run
interleaves the documented examples, for the operation kinds the workload does
not load itself (so every workload reports every per-kind median), and
further set-ups. A set-up is a fresh interpreter importing the library, input
generation and a warm-up.

Every timed execution is bracketed by a fixed calibration loop, and the
reported times are calibrated: measured seconds scaled by 0.5 ms over the
mean calibration time beside them. On a shared two-vCPU virtual machine the
interpreter's speed switched between two levels about 1.5x apart, often for
minutes at a time; calibrated times cancel that and stay comparable between
runs. The report line also carries
every metric as measured.

Each answer is compared with the reference recorded in ``reference.json``; a
wrong answer or an exception is a failed operation.

With ``--trace 1`` the operations run once untraced and once under the
per-layer wrappers of ``tracing.py``; the run prints per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is a
JSON report with the stamp (Python version, CPU count, load average before and
after, seed), ``failed_ratio``, the tail percentile and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "reference.json")

KINDS = ("eval", "bisim", "search", "order", "essential", "distance")
SETUPS = 9
PROBE_SAMPLES = 16
REFERENCE_CALIBRATION_S = 0.0005
CALIBRATION_INTERVAL_S = 0.05
PROBE_BATCH_S = 0.005


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "cml_kit", "__init__.py")):
        fail(f"no library source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import cml_kit

    if not os.path.abspath(cml_kit.__file__).startswith(SRC + os.sep):
        fail(f"imported cml_kit from {cml_kit.__file__}, not from {SRC}")


# --- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    build: Callable[[], list]  # the pool: every item a run can draw
    native: tuple  # operation kinds the mix itself runs
    passes: int  # least passes; an operation's latency is its median over them
    in_process: bool = True


def _verify_pool() -> list:
    import pools
    from cml_kit.harness.suites import SUITES

    return pools.verify_pool(list(SUITES))


def _cli_pool() -> list:
    import ops

    return ops.cli_items()


def workloads() -> dict:
    import pools

    return {
        "queries": Workload("queries", pools.queries_pool, ("eval", "bisim", "search"), 2),
        "orders": Workload("orders", pools.orders_pool, ("order", "essential", "distance"), 4),
        "verify": Workload("verify", _verify_pool, (), 1),
        "cli": Workload("cli", _cli_pool, KINDS, 4, in_process=False),
    }


# --- measuring -------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    missing: int = 0
    errors: list = field(default_factory=list)


def execute(item, references: dict, tally: Tally, runner=None) -> tuple[float, list]:
    """Run one item and check its answer.

    Returns its latency in seconds and, for a ``cml`` process, the fastest
    runs of the calibrations the child measured. The child's calibrating is
    already taken off the latency.
    """
    import ops

    tally.attempted += 1
    child: list = []
    start = time.perf_counter()
    try:
        if runner is None and item.op == "cli":
            answer, child = ops.run_process(item)
        else:
            answer = (runner or ops.run)(item)
    except Exception as exc:  # a raising operation is a failed operation
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{item.op} {item.key}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, []
    elapsed = time.perf_counter() - start - sum(spent for _, spent in child)
    expected = references.get(item.key)
    if expected is None:
        tally.missing += 1
    if ops.fingerprint(answer) != expected:
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{item.op} {item.key}: wrong answer")
    return elapsed, [fastest for fastest, _ in child]


def import_probe() -> float:
    """Seconds a fresh interpreter spends importing ``cml_kit.cli``."""
    import ops

    code = (
        "import time; t = time.perf_counter(); import cml_kit.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=ROOT, env=ops.child_env(), timeout=120, check=True,
    )
    return float(proc.stdout.strip())


class Setup:
    """Set-ups of one workload: a fresh import, input generation, warm-up."""

    def __init__(self, workload: Workload, references: dict):
        self.workload = workload
        self.references = references
        self.import_seconds: list[float] = []
        self.pool: list = []
        self.probes: list = []
        self.warm: dict = {}  # probe key -> seconds of its first warm-up run

    def __call__(self) -> tuple[float, list]:
        import ops

        start = time.perf_counter()
        self.import_seconds.append(import_probe())
        self.pool = self.workload.build()
        self.probes = ops.probe_items() if self.workload.in_process else []
        for item in self.probes or self.pool[:1]:
            self.warm.setdefault(item.key, execute(item, self.references, Tally())[0])
        return time.perf_counter() - start, []


class Samples:
    """Timed executions of one thing, each calibrated by the speed around it.

    The calibration runs just before and just after each execution and, for
    work done in this process, from a timer signal every
    CALIBRATION_INTERVAL_S during it, so a long execution is calibrated by the
    speed it actually ran at. The time spent calibrating inside the execution
    is taken off its measured seconds. A calibrated value is seconds at the
    speed where ``calibrate`` takes REFERENCE_CALIBRATION_S, scaled by the
    mean of the calibrations: the speed changes within an execution, and the
    mean follows it better than the median. A preempted calibration run does
    not count, since each calibration is the fastest of three runs.

    A ``cml`` child calibrates itself, as this process would, and its whole
    latency is scaled by its calibrations. Calibrating beside it would
    compete with it.

    A full collection before each execution, outside its time, makes it start
    from the same collector state whatever ran before it: it pays for the
    collections its own allocations trigger, not those earlier ones left due.
    """

    def __init__(self, in_process: bool = True):
        self.interval = CALIBRATION_INTERVAL_S if in_process else 0
        self.measured: list[float] = []
        self.calibrated: list[float] = []

    def add(self, timed: Callable[[], tuple[float, list]]) -> None:
        """Time ``timed``, which returns its seconds and any child's calibrations."""
        inside: list[tuple[float, float]] = []

        def tick(signum, frame):
            inside.append(calibration.seconds())

        gc.collect()
        before, _ = calibration.seconds()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            seconds, child = timed()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after, _ = calibration.seconds()
        seconds -= sum(spent for _, spent in inside)
        self.measured.append(seconds)
        speeds = child or [before, after, *(fastest for fastest, _ in inside)]
        self.calibrated.append(seconds * REFERENCE_CALIBRATION_S / statistics.mean(speeds))


def measure(wl, mix, extras, rng, seconds, references, tally) -> tuple[list, float]:
    """Passes over ``mix`` until ``wl.passes`` are done and ``seconds`` passed.

    ``extras`` are callables spread evenly between the operations of the
    first ``wl.passes`` passes. Returns one Samples per item and the wall time.
    """
    samples = [Samples(wl.in_process) for _ in mix]
    per_slot = math.ceil(len(extras) / (len(mix) * wl.passes))
    done = 0
    start = time.perf_counter()
    while True:
        order = list(range(len(mix)))
        rng.shuffle(order)
        for i in order:
            for _ in range(mix[i].repeats):
                samples[i].add(lambda: execute(mix[i], references, tally))
            for _ in range(per_slot):
                if extras:
                    extras.pop()()
        done += 1
        if done >= wl.passes and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    while extras:
        extras.pop()()
    return samples, wall


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- the run ---------------------------------------------------------------------


def run(args) -> dict:
    load_before = os.getloadavg()
    wl = workloads()[args.workload]
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)["answers"]

    setup = Setup(wl, references)
    setups = Samples(in_process=False)
    setups.add(setup)
    rng = random.Random(args.seed)
    mix = list(setup.pool)
    if args.max_ops:
        mix = [item for i, item in enumerate(mix)
               if sum(x.kind == item.kind for x in mix[:i]) < args.max_ops]
    probes = [p for p in setup.probes if p.kind not in wl.native]
    tally = Tally()
    report: dict = {"workload": wl.name, "seed": args.seed}

    if not args.trace:
        probe_samples = [Samples() for _ in probes]

        def probe(i):
            # a tiny example runs in a batch of PROBE_BATCH_S, timed as a whole
            batch = max(1, math.ceil(PROBE_BATCH_S / setup.warm[probes[i].key]))

            def timed():
                runs = [execute(probes[i], references, tally)[0] for _ in range(batch)]
                return sum(runs) / batch, []

            return lambda: probe_samples[i].add(timed)

        repeats = 1 if args.max_ops else PROBE_SAMPLES
        extras = [lambda: setups.add(setup)] * (SETUPS - 1)
        extras += [probe(i) for i in range(len(probes)) for _ in range(repeats)]
        rng.shuffle(extras)
        samples, wall = measure(wl, mix, extras, rng, args.seconds, references, tally)
        metrics = {}
        for view in ("calibrated", "measured"):
            setup_values = getattr(setups, view)
            item_values = [statistics.median(getattr(s, view)) for s in samples]
            probe_values = [statistics.median(getattr(s, view)) for s in probe_samples]
            every = [v for s in samples for v in getattr(s, view)]
            value, pct, beyond = tail(every)
            values = {
                "setup_s": (statistics.median(setup_values), "s"),
                "ops_per_s": (len(mix) / sum(item_values), "1/s"),
                "latency_p50_ms": (statistics.median(item_values) * 1000, "ms"),
                "latency_tail_ms": (value * 1000, "ms"),
                "peak_rss_mb": (peak_rss_mb(children=not wl.in_process), "MB"),
            }
            by_kind: dict[str, list] = {k: [] for k in KINDS}
            for item, latency in zip(mix + probes, item_values + probe_values):
                if item.kind in by_kind:
                    by_kind[item.kind].append(latency)
            for kind in KINDS:
                values[f"{kind}_p50_ms"] = (statistics.median(by_kind[kind]) * 1000, "ms")
            metrics[view] = values
        report.update(
            mix=len(mix), executions=sum(len(s.measured) for s in samples), wall_s=wall,
            tail_percentile=pct, tail_samples_beyond=beyond, tail_samples=len(every),
            kind_items={k: len(v) for k, v in by_kind.items()},
            setups=len(setups.measured),
            measured={k: v for k, (v, _) in metrics["measured"].items()},
        )
        metrics = metrics["calibrated"]
    else:
        metrics = traced(wl, mix, probes, args, references, tally, report)
        metrics["cli.import_ms"] = (statistics.median(setup.import_seconds) * 1000, "ms")

    report["failed_ratio"] = tally.failed / tally.attempted
    report["missing_references"] = tally.missing
    report["errors"] = tally.errors
    report["stamp"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seed": args.seed,
    }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report, default=str))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }


def traced(wl, mix, probes, args, references, tally, report) -> dict:
    """The mix and probes once untraced, then once under the wrappers."""
    import ops
    from tracing import Tracer
    from cml_kit.harness.suites import SUITES

    metrics: dict = {}
    items = mix + probes
    runner = ops.run
    if not wl.in_process:
        # processes measure start-up; the per-layer replay runs in process
        walls = [execute(item, references, tally)[0] for item in items]
        metrics["cli.process_ms"] = (statistics.median(walls) * 1000, "ms")
        runner = ops.cli_in_process
    start = time.perf_counter()
    for item in items:
        execute(item, references, tally, runner)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for item in items:
            execute(item, references, tally, runner)
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}-{args.seed}.jsonl")
    spans = tracer.write_spans(path)
    metrics.update(tracer.metrics(list(SUITES)))
    metrics.setdefault("cli.process_ms", (0.0, "ms"))
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000, "ms")
    metrics["trace.spans"] = (spans, "count")
    report.update(
        traced_items=len(items), untraced_s=untraced_s, traced_s=traced_s,
        spans_file=os.path.relpath(path, ROOT),
    )
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("queries", "orders", "verify", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="keep this many operations of each kind (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    if not os.path.isfile(REFERENCES):
        fail(f"no reference answers at {REFERENCES}")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
