#!/usr/bin/env python3
"""Alternating before/after runs of perfbench, written out as a BENCH file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_5.json

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own perfbench/
and src/.  For every workload of BENCHMARK.json the script runs
`perfbench/run.py --trace 0` in both, one after the other, PAIRS times,
alternating which side runs first, and then one `--trace 1` run per side
for the per-layer metrics.  run.py's own seed and run length apply.  Every
run is a process of its own.  The output holds, per end-to-end
metric, both sides' runs with their quartiles, how many pairs the change
was lower in, whether that shows a gain, and the bound BENCHMARK.json
gives it; for each side that is the top of a git tree, its HEAD commit
and whether it was dirty.  A gain is shown when the change is lower in at
least GAIN_PAIRS of the pairs and its median is below the parent's by
more than the parent's interquartile range.  One line per workload on
stderr names the metrics with a gain shown.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
GAIN_PAIRS = 9


def run_once(checkout: Path, workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s in %s failed (exit %d): %s"
                         % (" ".join(argv[1:]), checkout, proc.returncode, proc.stderr[-2000:]))
    doc = json.loads(lines[-1])
    return {"correct": doc["correct"], "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def quartiles(runs: List[float]) -> Dict[str, object]:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def gain_shown(parent: List[float], change: List[float]) -> bool:
    """Whether paired runs of a lower-is-better metric show the change's
    gain: lower in at least GAIN_PAIRS pairs, and the medians further apart
    than the parent's q3 - q1."""
    p, c = quartiles(parent), quartiles(change)
    lower = sum(c_run < p_run for p_run, c_run in zip(parent, change))
    return lower >= GAIN_PAIRS and p["median"] - c["median"] > p["q3"] - p["q1"]


def summary_line(workload: str, metrics: Dict[str, Dict[str, object]]) -> str:
    shown = [name for name, m in metrics.items() if m["gain_shown"]]
    return "%s: gain shown in %s" % (workload, ", ".join(shown) or "no metric")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_state(checkout: Path) -> Optional[Dict[str, object]]:
    """The HEAD commit of a checkout that is the top of a git tree, and
    whether its files differ from that commit; None for any other
    directory."""
    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        except FileNotFoundError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout:
        return None
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    end_to_end: Dict[str, object] = {}
    per_layer: Dict[str, object] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, 0))
            print("%s pair %d: wall_s parent %.4g change %.4g" % (
                workload, i + 1, runs["parent"][-1]["metrics"]["wall_s"],
                runs["change"][-1]["metrics"]["wall_s"]), file=sys.stderr)
        metrics = {}
        for name, bound in bounds.items():
            parent = [r["metrics"][name] for r in runs["parent"]]
            change = [r["metrics"][name] for r in runs["change"]]
            metrics[name] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
                "gain_shown": gain_shown(parent, change),
                "median_ratio_change_over_parent": statistics.median(change) / statistics.median(parent),
                "bound": bound,
            }
        print(summary_line(workload, metrics), file=sys.stderr)
        all_runs = runs["parent"] + runs["change"]
        end_to_end[workload] = {
            "pairs": PAIRS,
            "runs_correct": all(r["correct"] for r in all_runs),
            "failed": sum(r["failed"] for r in all_runs),
            "metrics": metrics,
        }
        per_layer[workload] = {
            side: run_once(path, workload, 1)["metrics"]
            for side, path in sides.items()
        }

    doc = {
        "machine": {"cpu": cpu_model(), "vcpus": os.cpu_count(),
                    "python": platform.python_version(), "os": "%s %s" % (platform.system(), platform.release())},
        "checkouts": {side: git_state(path) for side, path in sides.items()},
        "command": "python3 perfbench/run.py --workload <w> --trace <0|1>",
        "method": "Each run in its own checkout (parent, change), one after the other, alternating "
                  "which side runs first from pair to pair. Timings are perfbench's, scaled to nominal "
                  "machine speed. Quartiles are inclusive. per_layer is one traced run (--trace 1) per "
                  "side and workload. checkouts gives each side's git commit and whether its files "
                  "differed from it, or null when the side is not a git tree.",
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
