"""Host-speed calibration: the scale from wall seconds to reference seconds.

Time metrics are reported in reference seconds: the wall seconds of a lap
multiplied by ``CALIBRATION_REFERENCE_S / t_cal``, where ``t_cal`` is the
mean wall time of :func:`calibration_seconds` (a fixed pure-Python Dijkstra
over a fixed random graph) run right before and right after the lap.  Laps
are short — one library call, or a few service jobs — because the host this
benchmark was tuned on (2 vCPUs shared with other tenants) changes speed by
up to 1.7x, sometimes within seconds; the kernel slows with it, so scaled
figures from runs made at different times stay comparable where raw wall
figures do not.  A reference second is a wall second on a core where the
kernel takes ``CALIBRATION_REFERENCE_S``.  The raw wall figures and the
measured slowdown are printed with every run.

The kernel does the kind of work the library's searches do (``heapq``,
adjacency lists of tuples, dict lookups) over a working set of a few MB,
but shares no code with the library, so a change to the library never
moves it.  Stdlib only, so a set-up probe can calibrate before importing
the library.
"""

from __future__ import annotations

import functools
import heapq
import random
import time

CALIBRATION_VERTICES = 6_000
CALIBRATION_DEGREE = 6
CALIBRATION_REFERENCE_S = 0.025


@functools.lru_cache(maxsize=1)
def _graph() -> tuple[list[list[tuple[int, float]]], ...]:
    rng = random.Random(20160725)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(CALIBRATION_VERTICES)]
    for u in range(CALIBRATION_VERTICES):
        for _ in range(CALIBRATION_DEGREE // 2):
            v = rng.randrange(CALIBRATION_VERTICES)
            weight = rng.random()
            adjacency[u].append((v, weight))
            adjacency[v].append((u, weight))
    return tuple(adjacency)


def calibration_seconds() -> float:
    """Wall time of one full lazy-deletion Dijkstra over the fixed graph."""
    adjacency = _graph()
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    distances = {0: 0.0}
    settled = set()
    heap = [(0.0, 0)]
    while heap:
        distance, u = pop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, weight in adjacency[u]:
            candidate = distance + weight
            if candidate < distances.get(v, float("inf")):
                distances[v] = candidate
                push(heap, (candidate, v))
    return time.perf_counter() - started


class LapClock:
    """Times laps of measured work and scales each to reference seconds.

    Calibration runs in :meth:`begin` and after every lap, never inside one.
    """

    def __init__(self) -> None:
        self.calibrations: list[float] = []
        self._started = 0.0

    def begin(self) -> None:
        """Calibrate, then start the first lap."""
        self.calibrations.append(calibration_seconds())
        self._started = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """End the current lap and start the next: ``(wall seconds, scale)``."""
        wall = time.perf_counter() - self._started
        self.calibrations.append(calibration_seconds())
        scale = CALIBRATION_REFERENCE_S / ((self.calibrations[-2] + self.calibrations[-1]) / 2.0)
        self._started = time.perf_counter()
        return wall, scale
