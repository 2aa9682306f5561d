"""Time scaled to a fixed CPU speed, for runs on shared machines.

On a shared 2-core VM the speed of one core moves between fast and slow
phases that differ by up to 40% and last from a fraction of a second to
several seconds, which moves a 20-second pass by as much. So the timed phase is cut into segments of about
SEGMENT_NS. Between segments, never inside a tuple, the clock times a fixed
reference kernel (best of REF_REPEATS). A segment's factor is REF_NS over the
mean of the reference times at its two ends, and every reported time is
its raw duration times the factor of the segment it lies in. A time in these
units reads as it would on a core that runs the reference in REF_NS.

The calibration time itself is excluded from all reported times.
"""

from __future__ import annotations

import bisect
from time import perf_counter_ns

# Phases can change within a few hundred ms; 25 ms segments follow them
# (200 ms segments left a 12% spread in the median latency of one build).
SEGMENT_NS = 25_000_000
REF_REPEATS = 2
REF_ITEMS = 500
# Best-of-2 time of `reference()` on the 2-core VM the baseline was recorded
# on, in its slower phase. Changing it rescales every reported time.
REF_NS = 500_000


class _Row:
    __slots__ = ("order", "mult", "pair")

    def __init__(self, order: int, mult: int, pair: tuple[int, int]) -> None:
        self.order = order
        self.mult = mult
        self.pair = pair


def reference() -> int:
    """Fixed interpreter work of the kind the engine does: small objects and
    tuples, a sort, dict grouping and string formatting."""
    rows = []
    for i in range(REF_ITEMS):
        row = _Row(i * 7 % 13, i, (i, i % 5))
        rows.append((row.order, row.mult, row.pair))
    rows.sort()
    groups: dict[int, list[int]] = {}
    for order, mult, pair in rows:
        groups.setdefault(order, []).append(mult + pair[1])
    return len("".join(f"order={o} n={len(v)} sum={sum(v)}" for o, v in groups.items()))


def time_reference() -> int:
    best = None
    for _ in range(REF_REPEATS):
        start = perf_counter_ns()
        reference()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class ScaledClock:
    """Segments of the timed phase with their speed factors."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.factors: list[float] = []
        self._ref = time_reference()
        self._start = perf_counter_ns()

    def due(self) -> bool:
        """Whether the current segment is long enough to close."""
        return perf_counter_ns() - self._start >= SEGMENT_NS

    def close(self) -> None:
        """End the current segment, calibrate, and start the next one. Call
        it once more at the end of the timed phase."""
        end = perf_counter_ns()
        ref = time_reference()
        self.starts.append(self._start)
        self.ends.append(end)
        self.factors.append(2 * REF_NS / (self._ref + ref))
        self._ref = ref
        self._start = perf_counter_ns()

    def factor_at(self, t_ns: int) -> float:
        """Factor of the segment that contains time t_ns (the nearest one if
        t_ns falls in a calibration gap)."""
        i = bisect.bisect_right(self.starts, t_ns) - 1
        return self.factors[max(0, i)]

    def scale(self, start_ns: int, duration_ns: int) -> float:
        return duration_ns * self.factor_at(start_ns)

    def scaled_between(self, a_ns: int, b_ns: int) -> float:
        """Scaled length of [a, b), calibration gaps excluded."""
        total = 0.0
        for start, end, factor in zip(self.starts, self.ends, self.factors):
            lo, hi = max(start, a_ns), min(end, b_ns)
            if hi > lo:
                total += (hi - lo) * factor
        return total
