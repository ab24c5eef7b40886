"""Run the benchmark over several workloads, seeds and trace modes, and
print every metric by name with its unit, its median, quartiles and spread.

    python3 perfbench/sweep.py                       # every workload, seed 1, both modes
    python3 perfbench/sweep.py --workloads wide --seeds 1-5 --trace 0
    python3 perfbench/run.py --compare perfbench/results/a.jsonl perfbench/results/b.jsonl

Each run is a child `run.py` process, one at a time; its record is appended
to --out.  The spread of a metric is its interquartile distance over its
median; beside it stands the metric's bound from BENCHMARK.json, and "ok"
when the spread is under a third of it.  Exits 1 when a run fails or finds
a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0] = str(ROOT)

from perfbench import report  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=[1])
    parser.add_argument("--trace", default="0,1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "results" / "sweep.jsonl"))
    args = parser.parse_args()

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    first = len(report.load(args.out)) if Path(args.out).exists() else 0
    status = 0
    for trace in (int(t) for t in args.trace.split(",")):
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                done = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", args.out], capture_output=True, text=True, timeout=600)
                lines = done.stdout.splitlines()
                print("\n".join(lines[:1] + [ln for ln in lines[1:-1]
                                             if ln.startswith(("  fail", "    "))]))
                result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    print(f"run failed or found wrong output (exit {done.returncode})\n"
                          f"{done.stderr[-2000:]}")
                    status = 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print()
    print(report.summary(report.load(args.out)[first:], bounds))
    return status


if __name__ == "__main__":
    sys.exit(main())
