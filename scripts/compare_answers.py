#!/usr/bin/env python3
"""Compare two checkouts' answers and logs, timings left out.

    python3 scripts/compare_answers.py PARENT_DIR CHANGE_DIR [--slow]

For each configuration below the script runs `solve` in each checkout, in a
process of its own with that checkout's src/ and perfbench/ on the path,
and compares the JSON text of `outcome_to_json` with "seconds" dropped from
each log entry: the answer and, per entry, its phase, bound, verdict and
work.  work counts what a phase did, such as the facts the model engine
derived, so a change to the work a phase does shows there.  An Unsat
answer's derivation is compared as printed, its numbered "steps" and
"premises" included, so a renumbered step shows too.
A configuration whose solve raises is recorded as {"error": the exception
type}, so one crash does not end the comparison.  It prints one line per
configuration, with each side's verdict or error where they differ, and
exits 1 when any differ.  The configurations: every problems/*.smt2
fixture at the state caps 1, 2, 3 and 8; member-rev(1..3) at the default
cap; mr3-unsat seeds 0-9 and the mr3-model input, as perfbench builds them.
--slow adds member-rev(4) at 16 states, two inputs with deep answers (a
counterexample with terms 350 levels deep at 400 states, and a goal on an
atom nested 254 deep at 260 states) and two Sat inputs with long clauses
at 8 states, S being s^200(z): a goal with five p(S) atoms, and the fact
p(S, S, S, S, S).  Their text is built here, so that a checkout without
them in problems/ runs them too.
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

def chain(n, base="z"):
    return "(s " * n + base + ")" * n

def nat_problem(*lines):
    return parse_problem("(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))\n" + "\n".join(lines))

DEEP_COUNTEREXAMPLE = nat_problem(
    "(declare-fun d (nat nat) Bool)", "(declare-fun e (nat) Bool)",
    "(assert (d z %s))" % chain(200),
    "(assert (forall ((x nat) (y nat)) (=> (d x y) (d (s x) (s y)))))",
    "(assert (e %s))" % chain(150),
    "(assert (forall ((x nat) (y nat)) (=> (and (d x y) (e x)) false)))")
DEEP_INPUT = nat_problem(
    "(declare-fun p (nat) Bool)", "(assert (p %s))" % chain(254),
    "(assert (forall ((x nat)) (=> (p %s) false)))" % chain(250, "x"))
LONG_GOAL = nat_problem(
    "(declare-fun p (nat) Bool)", "(declare-fun q (nat) Bool)", "(assert (p z))",
    "(assert (forall ((x nat)) (=> (p x) (p (s (s x))))))",
    "(assert (=> (and %s (q z)) false))" % " ".join(["(p %s)" % chain(200)] * 5))
LONG_FACT = nat_problem(
    "(declare-fun p (nat nat nat nat nat) Bool)", "(declare-fun q (nat) Bool)",
    "(assert (p %s))" % " ".join([chain(200)] * 5), "(assert (q z))",
    "(assert (forall ((x nat)) (=> (q (s x)) false)))")

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
        yield "deep counterexample@400", DEEP_COUNTEREXAMPLE, 400, None
        yield "deep input@260", DEEP_INPUT, 260, None
        yield "long goal@8", LONG_GOAL, 8, None
        yield "long fact@8", LONG_FACT, 8, None

answers = {}
for name, problem, cap, depth in problems(sys.argv[1] == "slow"):
    try:
        doc = outcome_to_json(*solve(problem, SolveOptions(max_states=cap, max_depth=depth)))
    except Exception as e:
        doc = {"error": type(e).__name__}
    for entry in doc.get("log", ()):
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


def outcome(text) -> str:
    """The verdict or the error a configuration's JSON text records."""
    if text is None:
        return "missing"
    doc = json.loads(text)
    return doc.get("verdict") or "error " + doc["error"]


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
        print("%-28s %s" % (name, "identical" if same else "DIFFERS: %s -> %s" % (
            outcome(before[name]), outcome(after.get(name)))))
    print("%d of %d identical" % (len(before) - differ, len(before)))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
