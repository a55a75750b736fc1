"""The machine's speed while the program runs, read from a fixed reference task.

On a shared 2-vCPU Xeon virtual machine the speed of one CPU changes by up
to a half for seconds at a time, and it changes for any Python code alike
(there is no steal time: the CPU itself runs slower).  A raw timing of a
12 s instance therefore varies by about 25% from one run to the next.

Sampler runs a small pure-Python reference task every INTERVAL seconds from
a SIGALRM handler, in the same thread, and keeps (time, speed) samples with
speed = NOMINAL_S / (task time).  The benchmark scales each timing by the
mean speed sampled during it, so a timing reads as seconds at the nominal
speed, and it subtracts the time the samples took.

The task keeps a small working set, like the solver.  A task over a graph
four times larger sped up and slowed down more than the solver did, so it
over-corrected: on member-rev(3) at bound 5, ten runs spread by 9% scaled
with it and by 3% with this one, against 13-26% raw.  The task imports
nothing from regmod: no change to the program can move it.
"""

import gc
import signal
import time
from typing import List, Tuple

# Reference task time at nominal speed: about its median on the 2-vCPU Xeon
# VM where the first baseline (README.md) was recorded.  Changing it
# rescales every recorded timing, so it is fixed with the benchmark.
NOMINAL_S = 0.0045
INTERVAL = 0.25
# A timed region shorter than MIN_SAMPLES * INTERVAL is scaled by the
# samples nearest to it, so that its scale does not rest on one sample.
MIN_SAMPLES = 8


def _walks(succ, path, depth):
    """Every walk of the given length from the path's end, as a generator
    of tuples, in the style of the solver's body joins."""
    if depth == 0:
        yield path
        return
    for nxt in succ[path[-1]]:
        yield from _walks(succ, path + (nxt,), depth - 1)


def reference_task() -> int:
    """Transitive closure and a walk enumeration over a fixed small graph.
    The working set stays small, like the solver's."""
    n = 23
    edges = {(i, (i * 7 + 3) % n) for i in range(n)} | {(i, (i * 11 + 5) % n) for i in range(n)}
    succ = {}
    for a, b in sorted(edges):
        succ.setdefault(a, []).append(b)
    reach = set(edges)
    frontier = sorted(edges)
    while frontier:
        grown = []
        for a, b in frontier:
            for c in succ[b]:
                if (a, c) not in reach:
                    reach.add((a, c))
                    grown.append((a, c))
        frontier = grown
    walks = sum(1 for start in range(n) for _ in _walks(succ, (start,), 7))
    return len(reach) + walks


class Sampler:
    """Samples the machine's speed every INTERVAL seconds while active.

    Use as a context manager around everything that is timed, and time with
    now(), which leaves out the time the samples took."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, speed)
        self.stolen = 0.0
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        # A collection of the program's heap is not the machine being slow.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            a = time.perf_counter()
            reference_task()
            b = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(((a + b) / 2, NOMINAL_S / (b - a)))
        self.stolen += time.perf_counter() - t0

    def now(self) -> float:
        """perf_counter() minus the time spent sampling so far."""
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:  # no sample ran in between
                return t - stolen

    def scale(self, start: float, end: float) -> float:
        """Mean speed of the samples taken between start and end
        (perf_counter times); a region with fewer than MIN_SAMPLES inside
        takes the MIN_SAMPLES samples nearest to it instead."""

        def distance(sample: Tuple[float, float]) -> float:
            return max(start - sample[0], sample[0] - end, 0.0)

        ranked = sorted(self.samples, key=distance)
        inside = sum(1 for sample in ranked if distance(sample) == 0.0)
        window = [speed for _, speed in ranked[: max(inside, MIN_SAMPLES)]]
        return sum(window) / len(window)
