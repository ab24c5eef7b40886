"""The host's speed, read off a fixed pure-Python reference job.

On a shared host the speed of pure-Python work drifts by a third or more
within seconds to minutes as the neighbours' load comes and goes, and the
process's CPU time drifts with it.  Ten runs of the same code then spread
past the benchmark's bounds whatever the run length, because a slow spell
can last a whole run.  So the runner times the reference job between items,
never inside one, and scales each timing by NOMINAL_S over the job's time
around it: a timing is reported as it would read on a host where the job
takes NOMINAL_S.

The job runs with the garbage collector off and builds no object that
outlives it, so state the package leaves in the process (live objects, gc
thresholds, the recursion limit) does not change its time.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: About the reference job's time, in seconds, in the fastest spells of the
#: host the baseline in README.md was recorded on (two shared vCPUs of a
#: 2 GHz Xeon); scaled timings read in that host's seconds at full speed.
NOMINAL_S = 0.0035
#: The job is timed again once this much item time has passed since it was
#: last timed, and always between two items.
EVERY_S = 0.1


def _job() -> int:
    # Dict probes and string building, then plain integer arithmetic: the
    # staples of the package's inner loops.  On the host of the baseline the
    # two slow down by different amounts in a slow spell, and their sum
    # tracks the package's items more closely than either alone.
    counts: dict[int, int] = {}
    total = 0
    for i in range(6000):
        key = i & 511
        counts[key] = counts.get(key, 0) + i * i % 7
        total ^= len(str(i) + "x")
    for i in range(20000):
        total += i * i % 7
    return total + len(counts)


def sample() -> float:
    """One timing of the reference job, in seconds, after one untimed run
    that brings its code and data back into the caches an item or a child
    process may have emptied."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _job()
        start = perf_counter()
        _job()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference samples taken through a run, and the scale of the timings
    between each two of them."""

    def __init__(self) -> None:
        self.samples = [sample()]
        self.since = 0.0

    def tick(self, elapsed: float) -> None:
        """Count `elapsed` seconds of item time; sample again when due."""
        self.since += elapsed
        if self.since >= EVERY_S:
            self.close()

    def close(self) -> None:
        """Sample now, ending the current segment."""
        self.samples.append(sample())
        self.since = 0.0

    @property
    def segment(self) -> int:
        """Index of the segment that timings taken now fall in."""
        return len(self.samples) - 1

    def scale(self, segment: int) -> float:
        return scale(self.samples[segment], self.samples[segment + 1])


def scale(before: float, after: float) -> float:
    """The factor for a timing between two reference samples: NOMINAL_S
    over their mean."""
    return NOMINAL_S / ((before + after) / 2)
