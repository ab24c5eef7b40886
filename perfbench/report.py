"""Summaries of result files: the spread of a set of runs, and the compare
mode, which sets two sets of runs side by side."""

from __future__ import annotations

import json

from . import stats
from .metrics import END_TO_END, UNITS

#: End-to-end metrics plus the failure ratio, which is reported beside them
#: but kept out of BENCHMARK.json because it is 0 on most workloads.
REPORTED = END_TO_END + ("fail_ratio",)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(records: list[dict], workload: str, name: str, trace: int = 0) -> list[float]:
    chosen = [r for r in records if r["workload"] == workload and r["trace"] == trace]
    if name == "fail_ratio":
        return [r["fail_ratio"] for r in chosen]
    return [r["metrics"][name] for r in chosen if name in r["metrics"]]


def workloads_of(*record_sets: list[dict]) -> list[str]:
    seen: dict[str, None] = {}
    for records in record_sets:
        for r in records:
            seen.setdefault(r["workload"], None)
    return list(seen)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def summary(records: list[dict], bounds: dict[str, float] | None = None) -> str:
    """Median, quartiles and spread (interquartile distance over the median)
    per workload and metric; with bounds, whether the spread is under a third
    of its bound."""
    lines = []
    for trace in (0, 1):
        for workload in workloads_of([r for r in records if r["trace"] == trace]):
            names = REPORTED if trace == 0 else tuple(
                next(r for r in records if r["workload"] == workload
                     and r["trace"] == 1)["metrics"])
            lines.append(f"{workload} (trace {trace}):")
            for name in names:
                vals = values(records, workload, name, trace)
                if not vals:
                    continue
                q1, q2, q3 = stats.quartiles(vals)
                unit = UNITS.get(name, "ratio")
                line = (f"  {name:<26} median {_fmt(q2):>12} {unit:<7} "
                        f"q1 {_fmt(q1):>12} q3 {_fmt(q3):>12} n {len(vals)}")
                if trace == 0 and q2:
                    share = stats.spread(vals)
                    line += f"  spread {share:.4f}"
                    if bounds and name in bounds:
                        ok = share < bounds[name] / 3
                        line += f" / bound {bounds[name]} {'ok' if ok else 'WIDE'}"
                lines.append(line)
    return "\n".join(lines)


def compare(before: list[dict], after: list[dict]) -> str:
    """For each workload and end-to-end metric: both sides' median and
    quartiles, and the ratio of the medians (after / before)."""
    lines = [f"{'workload':<8} {'metric':<16} {'before median [q1, q3]':>36}   "
             f"{'after median [q1, q3]':>36}   after/before"]
    for workload in workloads_of(before, after):
        for name in REPORTED:
            a, b = values(before, workload, name), values(after, workload, name)
            if not a or not b:
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            lines.append(
                f"{workload:<8} {name:<16} "
                f"{_fmt(qa[1]):>12} [{_fmt(qa[0])}, {_fmt(qa[2])}]".ljust(63)
                + f"   {_fmt(qb[1]):>12} [{_fmt(qb[0])}, {_fmt(qb[2])}]".ljust(39)
                + f"   {ratio:.4f}")
    return "\n".join(lines)
