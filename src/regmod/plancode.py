"""Clause plans as generated Python code.

A Plan (see interpretation) is a list of steps over state variables.
interpretation._solutions interprets it, one generator frame per step;
compiled() turns the same steps into one generator function of nested
loops, which FixpointEngine runs.  Each state variable is a local, each
pred or enum join one for loop over the engine's live index list, and
each fwd, diseq or gen step the same test _solutions makes, in the same
order, so both find the same solutions in the same order.  A failed test
continues the innermost loop, or returns outside every loop, so only
loops nest and a long chain of tests stays flat.  Each solution is
yielded as the tuple of the variables asked for: the head row of a
definite clause, every variable of a goal.

The code depends only on the steps and those variables, so it is compiled
once per such shape and process, when a plan first fires, and shared by
every plan of that shape.  CPython refuses code that nests more than 20
loops; compiled() then gives None and the plan runs on _solutions.  The
certifier's checks (least_tables, check_model and violated_goal without
an engine) run on _solutions only, so they never share the code they
check.
"""

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .automaton import EMPTY, diff_approx

Runner = Callable[[object, Tuple[int, ...]], Iterator[Tuple[int, ...]]]


def source(steps: Tuple[tuple, ...], out: Tuple[int, ...]) -> str:
    """The text of run(db, fact), a generator yielding, per solution, the
    tuple of the states of the variables out.  db is a FixpointEngine and
    fact the seed of a seeded plan."""
    prologue = ["def run(db, fact):", " a = db.automaton", " delta = a.delta", " inh = db.inh"]
    body: List[str] = []
    pad = " "
    skip = "return"  # how a failed test leaves the current row
    rels: Dict[tuple, str] = {}  # relation -> the local holding its index
    assigned = set()

    def test(cond: str) -> None:
        body.append("%sif not (%s): %s" % (pad, cond, skip))

    for n, step in enumerate(steps):
        kind = step[0]
        if kind == "fwd":
            _, ctor, args, res, res_bound = step
            key = "(%r, (%s))" % (ctor, "".join("v%d, " % v for v in args))
            if res_bound:
                test("delta.get(%s) == v%d" % (key, res))
            else:
                body.append("%sv%d = delta.get(%s)" % (pad, res, key))
                test("v%d is not None" % res)
                assigned.add(res)
        elif kind == "diseq":
            test("diff_approx(a, v%d, v%d, inh)" % (step[1], step[2]))
        elif kind == "gen":
            _, sv, sort = step
            body.append("%sfor v%d in a.states_of(%r):" % (pad, sv, sort))
            pad, skip = pad + " ", "continue"
            test("inh[v%d] != EMPTY" % sv)
            assigned.add(sv)
        else:
            _, rel, key_vars, outs, checks = step
            names = ["_"] * (len(rel[2]) + len(outs) + len(checks))
            for p, v in outs:
                names[p] = "v%d" % v
                assigned.add(v)
            for p, _ in checks:
                names[p] = "c%d_%d" % (n, p)
            target = "".join(name + ", " for name in names)
            if kind == "seed":
                body.append("%s%s = fact" % (pad, target))
            else:
                if rel not in rels:
                    rels[rel] = "x%d" % len(rels)
                    prologue.append(" %s = db.indexes[%r]" % (rels[rel], rel))
                key = "".join("v%d, " % v for v in key_vars)
                body.append("%sfor %s in %s.get((%s), ()):" % (pad, target, rels[rel], key))
                pad, skip = pad + " ", "continue"
            for p, v in checks:
                test("c%d_%d == v%d" % (n, p, v))
    prologue += [" v%d = 0" % v for v in sorted(set(out) - assigned)]
    body.append("%syield (%s)" % (pad, "".join("v%d, " % v for v in out)))
    return "\n".join(prologue + body) + "\n"


@lru_cache(maxsize=512)
def compiled(steps: Tuple[tuple, ...], out: Tuple[int, ...]) -> Optional[Runner]:
    """The generated runner of a plan shape, or None when CPython refuses
    to compile it (too many nested loops, or too deep for the compiler)."""
    namespace = {"EMPTY": EMPTY, "diff_approx": diff_approx}
    try:
        exec(compile(source(steps, out), "<plan>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError):
        return None
    return namespace["run"]
