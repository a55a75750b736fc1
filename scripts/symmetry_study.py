#!/usr/bin/env python3
"""Measure how much canonical ordering shrinks the search space.

With an external ASP solver on PATH this counts answer sets of the model
search program at a given state bound, with and without the ordering
constraints.  Without one it counts the automata the native walk enumerates
(reachable, at most n states per sort, one per isomorphism class) against
all complete deterministic automata with n states per sort, which are
counted, not enumerated.
"""

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from regmod import asp, driver
from regmod.automaton import state_ranges_for, transition_grid
from regmod.benchmarks import GENERATORS
from regmod.frontend import parse_problem
from regmod.native import enumerate_automata


def load(spec: str):
    if ":" in spec and not Path(spec).exists():
        name, k = spec.split(":", 1)
        return GENERATORS[name](int(k))
    return parse_problem(Path(spec).read_text())


def native_counts(problem, n):
    # Counts automata only; answer sets additionally carry predicate
    # tables, so solver counts are larger by the table multiplicity.
    sym = sum(1 for _ in enumerate_automata(problem, n))
    # Every slot of the grid takes any of the n states of its sort.
    raw = n ** len(transition_grid(problem, state_ranges_for(problem, n)))
    return sym, raw, True, True, "automata"


def solver_counts(problem, n, path, timeout):
    cfg = asp.SolverConfig(path, time_limit=timeout, extra_args=("0", "-q"))
    sym, sym_exact = driver.count_models(problem, n, cfg, True)
    raw, raw_exact = driver.count_models(problem, n, cfg, False)
    return sym, raw, sym_exact, raw_exact, "answer sets"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("problem", help="problem file, or generator spec like member-rev:2")
    ap.add_argument("-n", "--states", type=int, default=2)
    ap.add_argument("--solver-path", default="clingo")
    ap.add_argument("--timeout", type=float, default=None)
    ap.add_argument("--native", action="store_true", help="force native enumeration")
    args = ap.parse_args(argv)

    problem = load(args.problem)
    use_solver = not args.native and shutil.which(args.solver_path)
    if use_solver:
        sym, raw, sym_exact, raw_exact, unit = solver_counts(
            problem, args.states, args.solver_path, args.timeout
        )
    else:
        sym, raw, sym_exact, raw_exact, unit = native_counts(problem, args.states)

    def fmt(v, exact):
        return str(v) + ("" if exact else "+")

    print("bound %d, counting %s" % (args.states, unit))
    print("  with ordering constraints:    %s" % fmt(sym, sym_exact))
    print("  without ordering constraints: %s" % fmt(raw, raw_exact))
    if sym and sym_exact and raw_exact:
        print("  collapse factor:              %.1fx" % (raw / sym))
    return 0


if __name__ == "__main__":
    sys.exit(main())
