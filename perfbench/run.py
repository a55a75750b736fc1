#!/usr/bin/env python3
"""regmod benchmark: time to a certified verdict.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One process and no threads, as a closed loop: one instance at a time, each
started when the previous one has been answered and certified.  An instance
is parsed, solved with the native backend and rendered with render_outcome
and outcome_to_json; that span is its time to a verdict.  Certification
follows, outside the timed span.  Every timing is scaled to a nominal
machine speed, sampled while it runs by a fixed reference task (speed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones and reports the per-layer metrics, read from spans
recorded around regmod's entry points (see spans.py).  The last line of
output is one JSON object with the keys correct, attempted, failed and
metrics.  --workload all runs every workload in turn, each in a process of
its own, and prints each one's report.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "frontend.parse_s": "s",
    "core.validate_s": "s",
    "interpretation.plans_s": "s",
    "native.search_s": "s",
    "interpretation.goal_checks": "count",
    "interpretation.goal_check_s": "s",
    "interpretation.prune_ratio": "ratio",
    "native.extend_s": "s",
    "native.checks_per_s": "1/s",
    "native.counterexample_s": "s",
    "core.ground_model_s": "s",
    "core.goal_check_s": "s",
    "core.ground_atoms": "count",
    "driver.self_s": "s",
    "driver.render_s": "s",
    "driver.bounds": "count",
    "automaton.check_s": "s",
    "interpretation.check_model_s": "s",
    "core.replay_s": "s",
    "core.oracle_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark, e.g. regmod is missing."""


def import_regmod():
    """A fresh import of regmod from the checkout's src/, dropping any
    earlier import so that set-up can be timed more than once."""
    for name in [m for m in sys.modules if m == "regmod" or m.startswith("regmod.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import regmod
    except ImportError as e:
        raise SetupError("cannot import regmod from %s: %s" % (src, e))
    if Path(regmod.__file__).resolve().parent != src / "regmod":
        raise SetupError("regmod was imported from %s, not from %s" % (regmod.__file__, src))
    return regmod


def set_up(name: str, seed: int, sampler: speed.Sampler) -> Tuple[workloads.Workload, List[Tuple[float, float, float]]]:
    """Imports regmod and builds the workload SETUP_REPEATS times; returns
    the last workload and each set-up's (start, end, seconds)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start, t0 = time.perf_counter(), sampler.now()
        import_regmod()
        try:
            workload = workloads.BY_NAME[name](ROOT, seed)
        except OSError as e:
            raise SetupError("cannot build workload %s: %s" % (name, e))
        setups.append((start, time.perf_counter(), sampler.now() - t0))
    return workload, setups


@dataclass
class Pass:
    """One answer to every instance of the workload."""

    traced: bool
    start: float = 0.0  # perf_counter() at the start and end of the pass
    end: float = 0.0
    times: List[float] = field(default_factory=list)  # unscaled seconds per instance
    decided: int = 0
    failed: int = 0  # answers with at least one fault
    faults: List[str] = field(default_factory=list)
    bounds: int = 0  # bounds the driver reached, summed over instances
    # Per instance, the range of tracer spans it recorded (traced passes).
    span_ranges: List[Tuple[int, int]] = field(default_factory=list)
    scale: float = 1.0  # mean machine speed sampled around the pass

    def wall(self) -> float:
        return sum(self.times) * self.scale


def run_pass(workload: workloads.Workload, options: List[object], sampler: speed.Sampler,
             tracer: Optional[spans.Tracer]) -> Pass:
    frontend = sys.modules["regmod.frontend"]
    driver = sys.modules["regmod.driver"]
    span = tracer.span if tracer is not None else certify.no_span
    result = Pass(traced=tracer is not None, start=time.perf_counter())
    for inst, opts in zip(workload.instances, options):
        lo = len(tracer.spans) if tracer is not None else 0
        t0 = sampler.now()
        try:
            with span("bench.instance"):
                problem = frontend.parse_problem(inst.text)
                outcome, log = driver.solve(problem, opts)
                driver.render_outcome(outcome, log)
                doc = driver.outcome_to_json(outcome, log)
        except Exception:
            result.times.append(sampler.now() - t0)
            found = ["raised:\n" + traceback.format_exc()]
        else:
            result.times.append(sampler.now() - t0)
            with span("bench.certify"):
                found = certify.faults(inst, problem, outcome, doc, span)
            result.decided += certify.verdict_of(outcome) != "unknown"
            result.bounds += sum(1 for e in log if e.phase == "counterexample")
        result.failed += bool(found)
        result.faults += ["%s: %s" % (inst.name, f) for f in found]
        if tracer is not None:
            result.span_ranges.append((lo, len(tracer.spans)))
    result.end = time.perf_counter()
    return result


def measure(workload: workloads.Workload, seconds: float, sampler: speed.Sampler,
            tracer: Optional[spans.Tracer]) -> List[Pass]:
    """Passes over the workload until the next one would end after
    `seconds`.  With a tracer, odd passes are traced and there are at least
    two passes, so that every run has a traced and an untraced one."""
    driver = sys.modules["regmod.driver"]
    options = [
        driver.SolveOptions(backend="native", max_states=i.max_states, max_depth=i.max_depth)
        for i in workload.instances
    ]
    start = time.perf_counter()
    passes: List[Pass] = []
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(workload, options, sampler, tracer))
        else:
            passes.append(run_pass(workload, options, sampler, None))
        last = passes[-1]
        next_end = last.end + (last.end - last.start)  # if the next pass is as long
        if len(passes) >= (2 if tracer else 1) and next_end - start > seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set-up and measurement under one speed sampler; returns the workload,
    the scaled set-up times, the passes with their scales, and the tracer."""
    with speed.Sampler() as sampler:
        workload, setups = set_up(name, seed, sampler)
        tracer = spans.Tracer(sampler.now) if trace else None
        passes = measure(workload, seconds, sampler, tracer)
    for p in passes:
        p.scale = sampler.scale(p.start, p.end)
    setup_times = [net * sampler.scale(a, b) for a, b, net in setups]
    return workload, setup_times, passes, tracer


def percentile(values: List[float], p: int) -> float:
    """The p-th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(passes: List[Pass], setup_times: List[float]) -> Dict[str, float]:
    """The p90 is taken over every answer.  The p50 is the median over
    passes of each pass's median answer: a pass answers every instance
    once, so with fixtures the pooled median would fall in the gap between
    the third and fourth fastest instance and move with both one's tails."""
    plain = [p for p in passes if not p.traced]
    latencies = [t * p.scale for p in plain for t in p.times]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall() for p in plain),
        "verdict_p50_s": statistics.median(statistics.median(p.times) * p.scale for p in plain),
        "verdict_p90_s": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_row(p: Pass, tracer: spans.Tracer, self_times: List[float]) -> Dict[str, float]:
    lo, hi = p.span_ranges[0][0], p.span_ranges[-1][1]
    tot = spans.layer_totals(tracer.spans, self_times, lo, hi)
    s = p.scale
    search = tot["native.search"] * s
    checks = tot["interpretation.goal_check#n"]
    atoms = 0
    for a, b in p.span_ranges:
        grounds = [r for r in tracer.spans[a:b] if r[0] == "core.ground_model"]
        if grounds:
            atoms += grounds[-1][4]
    return {
        "frontend.parse_s": tot["frontend.parse"] * s,
        "core.validate_s": tot["core.validate"] * s,
        "interpretation.plans_s": tot["interpretation.plans"] * s,
        "native.search_s": search,
        "interpretation.goal_checks": checks,
        "interpretation.goal_check_s": tot["interpretation.goal_check"] * s,
        "interpretation.prune_ratio": tot["interpretation.goal_check#count"] / checks if checks else 0.0,
        "native.extend_s": tot["native.search#self"] * s,
        "native.checks_per_s": checks / search if search else 0.0,
        "native.counterexample_s": tot["native.counterexample"] * s,
        "core.ground_model_s": tot["core.ground_model"] * s,
        "core.goal_check_s": tot["core.goal_check"] * s,
        "core.ground_atoms": atoms,
        "driver.self_s": tot["driver.solve#self"] * s,
        "driver.render_s": tot["driver.render"] * s,
        "driver.bounds": p.bounds,
        "automaton.check_s": tot["automaton.check"] * s,
        "interpretation.check_model_s": tot["interpretation.check_model"] * s,
        "core.replay_s": tot["core.replay"] * s,
        "core.oracle_s": tot["core.oracle"] * s,
        "trace.wall_s": p.wall(),
    }


def per_layer(passes: List[Pass], tracer: spans.Tracer) -> Dict[str, float]:
    """Medians over the traced passes; the tracing overhead is the traced
    median wall time minus the untraced one."""
    self_times = tracer.self_times()
    rows = [layer_row(p, tracer, self_times) for p in passes if p.traced and p.span_ranges]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    untraced = statistics.median(p.wall() for p in passes if not p.traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    return out


def report(args, workload: workloads.Workload, passes: List[Pass], metrics: Dict[str, float],
           units: Dict[str, str]) -> dict:
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if not p.traced]
    answered = sum(len(p.times) for p in plain)
    decided = sum(p.decided for p in plain)
    print("regmod benchmark: workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    print("  %d instances per pass, %d passes (%d traced), %d answers"
          % (len(workload.instances), len(passes), sum(p.traced for p in passes), attempted))
    for key, value in workload.notes.items():
        print("  %s: %s" % (key, value))
    print("  machine speed median %.3f of nominal (timings below are scaled to nominal)"
          % statistics.median(p.scale for p in passes))
    for name, unit in units.items():
        print("  %-30s %12.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        print("  %-30s %12.6g ratio" % ("decided_frac", decided / answered))
        print("  %-30s %12.6g ratio" % ("failed_frac", failed / attempted))
        print("  samples: setup_s %d set-ups, wall_s and verdict_p50_s %d passes, verdict_p90_s %d answers"
              % (SETUP_REPEATS, len(plain), answered))
        print("  unscaled wall_s %.6g s" % statistics.median(sum(p.times) for p in plain))
    for f in [f for p in passes for f in p.faults][:20]:
        print("fault: " + f, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    status = 0
    for name in workloads.BY_NAME:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(cmd).returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        workload, setup_times, passes, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SetupError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if tracer is None:
        result = report(args, workload, passes, end_to_end(passes, setup_times), END_TO_END)
    else:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        result = report(args, workload, passes, per_layer(passes, tracer), PER_LAYER)
        print("  spans written to %s" % path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
