"""The metrics the benchmark prints, with their units, and how the traced
run's spans and counts turn into per-layer numbers.

Names, units and directions are read from BENCHMARK.json beside this
directory, the one place they are written down.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

from .spans import ITEM, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
#: End-to-end metrics, measured with tracing off, in BENCHMARK.json's order.
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
#: Per-layer metrics from the traced run.  Times and counts are per pass
#: over the workload's items; a layer the workload does not call reads 0.
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Spans the workloads record; each gives a "<span>_s" self-time metric.
LAYER_SPANS = (
    "notation.parse", "notation.render",
    "bivalent.classify", "bivalent.entails", "bivalent.truth_table",
    "bivalent.format_table",
    "indirect.check", "indirect.render_trace",
    "atlas.enumerate",
    "trivalent.tautology3", "trivalent.table3",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[list], counts, passes: int, overhead_pct: float,
              extras: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from one traced measurement of `passes` passes."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1

    def per(value: float) -> float:
        return value / passes

    m = {f"{name}_s": per(own.get(name, 0.0)) for name in LAYER_SPANS}
    m["bench.glue_s"] = per(own.get(ITEM, 0.0))
    m["notation.parse_calls"] = per(calls.get("notation.parse", 0))
    m["notation.render_calls"] = per(calls.get("notation.render", 0))
    m["notation.chars_per_s"] = _ratio(counts["notation.chars"], own.get("notation.parse", 0))
    m["notation.parse_errors"] = per(counts["notation.parse_errors"])
    m["bivalent.rows"] = per(counts["bivalent.rows"])
    m["bivalent.rows_per_s"] = _ratio(
        counts["bivalent.rows"],
        sum(own.get(f"bivalent.{k}", 0.0) for k in ("classify", "entails", "truth_table")))
    m["indirect.steps"] = per(counts["indirect.steps"])
    m["indirect.forced"] = per(counts["indirect.note.forced"])
    m["indirect.branches_opened"] = per(counts["indirect.note.branch-open"])
    m["indirect.branches_closed"] = per(counts["indirect.note.branch-closed"])
    m["indirect.closed_ratio"] = _ratio(counts["indirect.note.branch-closed"],
                                        counts["indirect.note.branch-open"])
    m["indirect.trace_cells"] = per(counts["indirect.trace_cells"])
    m["atlas.generated"] = per(counts["atlas.generated"])
    m["atlas.tautologies"] = per(counts["atlas.tautologies"])
    m["atlas.hit_ratio"] = _ratio(counts["atlas.tautologies"], counts["atlas.generated"])
    m["trivalent.rows3"] = per(counts["trivalent.rows3"])
    processes = [end - start for name, start, end, _, _ in spans if name == "cli.process"]
    m["cli.process_ms"] = median(processes) * 1000 if processes else 0.0
    m["cli.stdout_bytes"] = per(counts["cli.stdout_bytes"])
    for name in ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms"):
        m[name] = extras.get(name, 0.0)
    m["trace.overhead_pct"] = overhead_pct
    return {name: m[name] for name in PER_LAYER}
