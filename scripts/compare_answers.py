#!/usr/bin/env python3
"""Compare two checkouts' answers and logs, timings left out.

    python3 scripts/compare_answers.py PARENT_DIR CHANGE_DIR [--slow]

For each configuration below the script runs `solve` in each checkout, in a
process of its own with that checkout's src/ and perfbench/ on the path,
and compares the JSON text of `outcome_to_json` with "seconds" dropped from
each log entry: the answer and, per entry, its phase, bound, verdict and
work.  work counts what a phase did, such as the facts the model engine
derived, so a change to the work a phase does shows there.
It prints one line per configuration and exits 1 when any differ.  The
configurations: every problems/*.smt2 fixture at the state caps 1, 2, 3
and 8; member-rev(1..3) at the default cap; mr3-unsat seeds 0-9 and the
mr3-model input, as perfbench builds them.  --slow adds member-rev(4) at
16 states.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Runs inside a checkout, argv[1] "slow" or "fast"; prints {name: JSON text
# of the answer}.
CHILD = r"""
import json, sys
from pathlib import Path
from regmod.benchmarks import gen_member_rev
from regmod.driver import SolveOptions, outcome_to_json, solve
from regmod.frontend import parse_problem
import workloads

def problems(slow):
    for path in sorted(Path("problems").glob("*.smt2")):
        for cap in (1, 2, 3, 8):
            yield "%s@%d" % (path.name, cap), parse_problem(path.read_text()), cap, None
    for k in (1, 2, 3):
        yield "member-rev(%d)" % k, gen_member_rev(k), 8, None
    for seed in range(10):
        inst = workloads.mr3_unsat(Path("."), seed).instances[0]
        yield "mr3-unsat seed %d" % seed, parse_problem(inst.text), inst.max_states, inst.max_depth
    inst = workloads.mr3_model(Path("."), 0).instances[0]
    yield "mr3-model", parse_problem(inst.text), inst.max_states, inst.max_depth
    if slow:
        yield "member-rev(4)@16", gen_member_rev(4), 16, None

answers = {}
for name, problem, cap, depth in problems(sys.argv[1] == "slow"):
    doc = outcome_to_json(*solve(problem, SolveOptions(max_states=cap, max_depth=depth)))
    for entry in doc["log"]:
        del entry["seconds"]
    answers[name] = json.dumps(doc, sort_keys=True)
print(json.dumps(answers))
"""


def answers(checkout: Path, slow: bool) -> dict:
    path = "%s:%s" % (checkout / "src", checkout / "perfbench")
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "slow" if slow else "fast"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("%s failed: %s" % (checkout, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--slow", action="store_true")
    args = ap.parse_args()
    before = answers(args.parent.resolve(), args.slow)
    after = answers(args.change.resolve(), args.slow)
    differ = 0
    for name in before:
        same = before[name] == after.get(name)
        differ += not same
        print("%-28s %s" % (name, "identical" if same else "DIFFERS"))
    print("%d of %d identical" % (len(before) - differ, len(before)))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
