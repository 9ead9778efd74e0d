"""Timing corrected for the speed the host gives this process.

On a shared virtual machine the CPU share a process gets swings with the
other tenants' load, and the guest cannot see it: CPU time tracks wall time,
and the steal counter stays flat. On the host where this benchmark was
written, identical rounds of work differed by up to 1.8x within one run. A
fixed pure-Python reference loop, shaped like the radio model's inner loop
(heap pushes and pops of tuples holding small slotted objects, dict
updates), slows down in step with adpsim: over 90 s the log-log slope
was 0.95 for the radio model and 1.05 for the byte-cost model.

The meter runs that loop between operations, at least every `period_s`,
and at the start and end of each round. Each stretch of work between two
samples is scaled by REFERENCE_S over the mean of those two samples. The
result is the time the work would take on a host where the loop takes
REFERENCE_S. On the host where this benchmark was written, the loop takes
5.1-5.3 ms when the machine is quiet, so corrected times there read about
5 % below quiet wall times. The loop is benchmark code, so no change to
adpsim can move it.
"""
from __future__ import annotations

import gc
import heapq
from time import perf_counter

REFERENCE_S = 0.005
_LOOP_ITERATIONS = 5000


class _Event:
    __slots__ = ("time", "kind")

    def __init__(self, time: float, kind: int) -> None:
        self.time = time
        self.kind = kind


def reference_loop() -> int:
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(_LOOP_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, _Event(i * 0.5, i & 7)))
        table[i & 1023] = table.get(i & 1023, 0.0) + 0.5
        if len(heap) > 256:
            total += heapq.heappop(heap)[2].kind
    return total


def sample_speed(loop=reference_loop) -> float:
    """Seconds of one reference loop, with the collector paused so the
    program's garbage does not land in the sample."""
    gc.disable()
    try:
        start = perf_counter()
        loop()
        return perf_counter() - start
    finally:
        gc.enable()


class Meter:
    """Times one round's operations and samples host speed between them."""

    def __init__(self, period_s: float = 0.25, loop=reference_loop) -> None:
        self.period_s = period_s
        self.loop = loop

    def start_round(self) -> None:
        self.samples: list[float] = []
        self.stretches: list[float] = []  # work time between samples i and i + 1
        self.ops: list[tuple[float, int]] = []  # (raw seconds, index of the sample before)
        self._last = 0.0
        self._sample()

    def _sample(self) -> None:
        now = perf_counter()
        if self.samples:
            self.stretches.append(now - self._last)
        self.samples.append(sample_speed(self.loop))
        self._last = perf_counter()

    def op(self, seconds: float) -> None:
        """Record one operation that just ended; sample if one is due."""
        self.ops.append((seconds, len(self.samples) - 1))
        if perf_counter() - self._last >= self.period_s:
            self._sample()

    def end_round(self) -> None:
        self._sample()

    def _factor(self, i: int) -> float:
        return 2.0 * REFERENCE_S / (self.samples[i] + self.samples[i + 1])

    def raw_wall(self) -> float:
        return sum(self.stretches)

    def wall(self) -> float:
        return sum(s * self._factor(i) for i, s in enumerate(self.stretches))

    def op_seconds(self) -> list[float]:
        return [s * self._factor(i) for s, i in self.ops]
