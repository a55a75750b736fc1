"""Spans recorded around regmod's public entry points, from outside the library.

Tracer.installed() replaces module attributes with timing wrappers and puts
the originals back when it exits.  A wrapper is installed in the namespace
that calls the function (driver.search_model, not native.search_model),
because regmod's modules import each other's functions by name.

Spans live in memory as (name, start, end, parent, count) and are written
out once, after the run.  Self times are computed from them afterwards.
"""

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# (module, attribute, span name, count taken from the result or None)
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable[[object], int]]], ...] = (
    ("regmod.frontend", "parse_problem", "frontend.parse", None),
    ("regmod.driver", "solve", "driver.solve", None),
    ("regmod.driver", "validate", "core.validate", None),
    ("regmod.driver", "ClausePlans", "interpretation.plans", None),
    ("regmod.driver", "find_counterexample", "native.counterexample", None),
    ("regmod.driver", "search_model", "native.search", None),
    ("regmod.native", "ground_least_model", "core.ground_model", lambda r: len(r[0])),
    ("regmod.native", "goal_violated", "core.goal_check", None),
    # The count is 1 when the goal check found a violation, i.e. pruned.
    ("regmod.native", "violated_goal", "interpretation.goal_check", lambda r: int(r is not None)),
    ("regmod.driver", "render_outcome", "driver.render", None),
    ("regmod.driver", "outcome_to_json", "driver.render", None),
)

Span = List  # [name, start, end, parent index or -1, count or None]


class Tracer:
    """Spans of one run, timed by `clock`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record: Span = [name, self.clock(), 0.0, parent, None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable[[object], int]]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[4] = count(result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        originals = []
        try:
            for module_name, attr, name, count in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, count."""
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def layer_totals(spans: List[Span], self_times: List[float], lo: int, hi: int) -> Dict[str, float]:
    """Per-layer sums over spans[lo:hi]: '<name>' is the inclusive time,
    '<name>#self' the self time, '<name>#n' the span count and '<name>#count'
    the sum of the recorded counts."""
    totals: Dict[str, float] = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, _, count = spans[i]
        totals[name] += end - start
        totals[name + "#self"] += self_times[i]
        totals[name + "#n"] += 1
        if count is not None:
            totals[name + "#count"] += count
    return totals
