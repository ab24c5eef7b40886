"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run builds the workload's items from the seed, then makes whole passes
over the items until the timed item time reaches --seconds, scoring every
item between items.  Every timing is scaled to a nominal host speed, read
off a reference job timed between items (see host.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, and set-up is sampled
between items through the run; with --trace 1 each item runs untraced and
traced back to back, and the metrics are the per-layer ones.  --out
appends a fuller record of the run to a JSON-lines file, which --compare
reads.

The package is imported from src/ next to this directory; without it the run
exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:  # run as a script: import the benchmark as a package
    sys.path[0] = str(ROOT)

from perfbench import host, metrics, report, stats  # noqa: E402
from perfbench.spans import NullTracer, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Problem  # noqa: E402

#: Set-up is sampled this many times per untraced run, spread evenly over
#: its timed item time; the median is reported.
SETUP_SAMPLES = 15
#: Outcomes that mean the program answered wrongly, as opposed to raising an
#: exception the README contract does not allow.
WRONG_OUTPUT = ("wrong", "exit", "nondeterministic")


class Measurement:
    """Item latencies of whole passes, all under one tracer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        # (seconds as measured, host.Clock segment) per item, in run order.
        self.timed: list[tuple[float, int]] = []
        self.latencies: list[float] = []
        self.passes = 0

    @property
    def busy(self) -> float:
        return sum(t for t, _ in self.timed)

    def finish(self, clock: host.Clock) -> None:
        """Scale every timing by the host's speed around it."""
        self.latencies = [t * clock.scale(segment) for t, segment in self.timed]

    def per_item(self, count: int) -> list[float]:
        """Each of the `count` items' median latency over the passes: the
        samples of the latency metrics, so that a jolt of the host during
        one pass does not decide the tail."""
        return [median(self.latencies[i::count]) for i in range(count)]


class Outcomes:
    """Failures by category, one example of each, and every item's first
    output fingerprint, against which its repeats are checked."""

    def __init__(self) -> None:
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.fingerprints: dict[int, str] = {}

    def fail(self, category: str, message: str) -> None:
        self.failures[category] += 1
        self.examples.setdefault(category, message[:300])

    def score(self, workload, index: int, item, out, raised) -> None:
        if raised is not None:
            self.fail("exception", f"item {index}: {type(raised).__name__}: {raised}")
            return
        try:
            mark = workload.score(item, out)
        except Problem as problem:
            self.fail(problem.category, f"item {index}: {problem}")
            return
        if self.fingerprints.setdefault(index, mark) != mark:
            self.fail("nondeterministic", f"item {index}: output changed on a repeat")


class SetupSamples:
    """Set-up time, sampled between items at even steps of timed item time,
    so that the samples see the host as the whole run does rather than as it
    was in one moment.  The first is taken before the first item.  For the
    in-process workloads a sample is a fresh interpreter importing the
    package and making one warm-up call per item kind; for cli, one warm-up
    child.  Input generation is not in it."""

    def __init__(self, workload, count: int, seconds: float) -> None:
        self.workload, self.count, self.step = workload, count, seconds / count
        self.samples: list[float] = []

    def due(self, busy: float) -> None:
        while len(self.samples) < self.count and busy >= len(self.samples) * self.step:
            self.take()

    def finish(self) -> float:
        while len(self.samples) < self.count:
            self.take()
        return median(self.samples)

    def take(self) -> None:
        before = host.sample()
        if self.workload.in_process:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 self.workload.name], capture_output=True, text=True, timeout=120, check=True)
            elapsed = float(done.stdout.strip().splitlines()[-1])
        else:
            start = perf_counter()
            for item in self.workload.warm_items():
                self.workload.run(item, None, NullTracer())
            elapsed = perf_counter() - start
        self.samples.append(elapsed * host.scale(before, host.sample()))


def measure(workload, items, pkg, modes: list[Measurement], seconds: float,
            setup: SetupSamples | None = None) -> tuple[Outcomes, host.Clock]:
    """Closed loop over whole passes of `items` until `seconds` of timed item
    time.  Each item runs once per mode, back to back, with the order of the
    modes turning each pass, so that an item's traced and untraced times are
    taken a moment apart.  Every output is scored as soon as it returns,
    outside the timed region, and the host's speed is sampled after that,
    when the output is gone.

    Before each pass, everything alive is collected and then frozen out of
    the garbage collector: the benchmark's items and reference answers,
    the imported modules.  The package's collections inside an item then
    scan only what it has allocated since, instead of paying, in whichever
    item the collector's counters happen to trip, for a full scan of data
    that is not the package's.  The freeze is undone when the run ends."""
    outcomes = Outcomes()
    clock = host.Clock()
    busy = 0.0
    while True:
        gc.collect()
        gc.freeze()
        for index, item in enumerate(items):
            for k in range(len(modes)):
                m = modes[(k + modes[0].passes) % len(modes)]
                if setup:
                    setup.due(busy)
                m.tracer.begin(index)
                start = perf_counter()
                try:
                    out, raised = workload.run(item, pkg, m.tracer), None
                except Exception as exc:  # an item's exception is its outcome, scored below
                    out, raised = None, exc
                elapsed = perf_counter() - start
                m.tracer.end()
                m.timed.append((elapsed, clock.segment))
                busy += elapsed
                outcomes.score(workload, index, item, out, raised)
                del out
                clock.tick(elapsed)
        for m in modes:
            m.passes += 1
        if busy >= seconds:
            gc.unfreeze()
            clock.close()
            for m in modes:
                m.finish(clock)
            return outcomes, clock


def setup_probe(name: str) -> None:
    """In a fresh interpreter: import the package and make the warm-up calls."""
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    from perfbench.workloads import load_package
    pkg = load_package()
    for item in workload.warm_items():
        workload.run(item, pkg, NullTracer())
    print(perf_counter() - start)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run(args) -> int:
    if not (SRC / "illation" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'illation'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    items = workload.build(args.seed)
    pkg = None
    if workload.in_process:
        from perfbench.workloads import load_package
        pkg = load_package()
        for item in workload.warm_items():
            workload.run(item, pkg, NullTracer())

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "platform": platform.platform()}
    if not args.trace:
        m = Measurement(NullTracer())
        runs = [m]
        setup = SetupSamples(workload, SETUP_SAMPLES, args.seconds)
        outcomes, clock = measure(workload, items, pkg, runs, args.seconds, setup)
        per_item = m.per_item(len(items))
        q, tail_value, beyond = stats.tail(per_item)
        values = {
            "setup_s": setup.finish(),
            "items_per_s": len(m.latencies) / sum(m.latencies),
            "latency_p50_ms": median(per_item) * 1000,
            "latency_tail_ms": tail_value * 1000,
            "peak_rss_mb": peak_rss_mb(workload),
        }
        record.update(tail_percentile=q, tail_beyond=beyond, setup_samples=setup.samples)
    else:
        plain, traced = Measurement(NullTracer()), Measurement(Tracer())
        runs = [plain, traced]
        outcomes, clock = measure(workload, items, pkg, runs, args.seconds)
        # Each item's traced time over its untraced time, as measured a
        # moment apart; the median resists a jolt of the host during one pair.
        overhead_pct = (median(t / u for (u, _), (t, _) in zip(plain.timed, traced.timed))
                        - 1) * 100
        tracer = traced.tracer
        values = metrics.per_layer(tracer.spans, tracer.counts, traced.passes, overhead_pct,
                                   workload.layer_extras())
        if args.spans:
            tracer.dump(args.spans)

    attempted = sum(len(m.latencies) for m in runs)
    failures, examples = outcomes.failures, outcomes.examples
    failed = sum(failures.values())
    correct = not any(failures[c] for c in WRONG_OUTPUT)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=dict(failures), examples=examples,
                  passes=[m.passes for m in runs], busy_s=[m.busy for m in runs],
                  host_reference_s=median(clock.samples), metrics=values)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} items in {'+'.join(str(m.passes) for m in runs)} passes, "
          f"{sum(m.busy for m in runs):.2f} s timed; reference job "
          f"{record['host_reference_s'] * 1000:.3f} ms (median of "
          f"{len(clock.samples)}), scaled to {host.NOMINAL_S * 1000:g} ms")
    for name, value in values.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{record['tail_percentile']:g}, {record['tail_beyond']} items "
                    f"beyond, of {len(items)} items' medians over {runs[0].passes} passes)")
        print(f"  {name:<26} {value:>14.6g} {metrics.UNITS[name]}{note}")
    print(f"  {'fail_ratio':<26} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} failed{': ' if failures else ''}"
          f"{', '.join(f'{c} {n}' for c, n in sorted(failures.items()))})")
    for category, message in sorted(examples.items()):
        print(f"    {category}: {message}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two JSON-lines result files and exit")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.compare:
        print(report.compare(report.load(args.compare[0]), report.load(args.compare[1])))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
