"""The benchmark's workloads: SMT-LIB texts, solve options and expected answers.

Each workload is built from the seed alone, so the same seed gives the same
texts.  The solver only ever sees text: generated problems go through
print_problem first and the timed loop parses them again.

regmod is imported inside the functions, not at module level, because the
set-up measurement re-imports it several times in one process.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

# The fixture set is pinned by name so that a fixture added later does not
# silently change what the workload measures.
FIXTURES: Tuple[Tuple[str, str], ...] = (
    ("diseq_pair_unsat.smt2", "unsat"),
    ("diseq_unit.smt2", "sat"),
    ("even_odd_plus.smt2", "sat"),
    ("even_ssz_unsat.smt2", "unsat"),
    ("member_rev_2.smt2", "sat"),
)

MR3_BOUND = 5
MR3_MODEL_DEPTH = 3
UNSAT_LIST_LENGTH = 5


@dataclass(frozen=True)
class Instance:
    """One problem of a workload and what a correct answer looks like."""

    name: str
    text: str
    max_states: int = 8
    max_depth: Optional[int] = None
    # Verdicts ("sat", "unsat", "unknown") that count as correct.
    expected: FrozenSet[str] = frozenset({"sat"})
    # For an allowed Unknown: the exact detail it must carry.
    unknown_detail: str = ""
    # For an expected Unsat: the goal clause the derivation must name.
    goal_index: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Tuple[Instance, ...]
    # Seed-drawn facts worth printing with the result, e.g. the drawn list.
    notes: Dict[str, str]


def fixtures(root: Path, seed: int) -> Workload:
    """Every pinned fixture plus member-rev(1), in a seed-shuffled order."""
    from regmod.benchmarks import gen_member_rev
    from regmod.frontend import print_problem

    instances = [
        Instance(name, (root / "problems" / name).read_text(), expected=frozenset({verdict}))
        for name, verdict in FIXTURES
    ]
    instances.append(Instance("member-rev-1", print_problem(gen_member_rev(1))))
    random.Random(seed).shuffle(instances)
    return Workload("fixtures", tuple(instances), {"order": " ".join(i.name for i in instances)})


def mr3_model(root: Path, seed: int) -> Workload:
    """member-rev(3) with the counterexample depth capped, so the model search
    at the last bound does the work.  The seed does not change this input."""
    from regmod.benchmarks import gen_member_rev
    from regmod.frontend import print_problem

    inst = Instance(
        "member-rev-3",
        print_problem(gen_member_rev(3)),
        max_states=MR3_BOUND,
        max_depth=MR3_MODEL_DEPTH,
        expected=frozenset({"sat", "unknown"}),
        unknown_detail="state bound %d exhausted" % MR3_BOUND,
    )
    return Workload("mr3-model", (inst,), {})


def draw_list(seed: int) -> List[str]:
    """The seed's ground list of UNSAT_LIST_LENGTH member-rev(3) constants."""
    rng = random.Random(seed)
    return [rng.choice(("e1", "e2", "e3")) for _ in range(UNSAT_LIST_LENGTH)]


def mr3_unsat_problem(elements: List[str]):
    """member-rev(3) plus the goal rev(L, reverse(L)) => false for the given
    ground list L.  Only the added goal can be violated, and only once the
    depth bound reaches the length of L."""
    from regmod.benchmarks import gen_member_rev
    from regmod.core import App, Atom, Clause, Problem

    def as_list(names):
        term = App("nil")
        for name in reversed(names):
            term = App("cons", (App(name), term))
        return term

    base = gen_member_rev(3)
    goal = Clause(None, (Atom("rev", (as_list(elements), as_list(elements[::-1]))),))
    return Problem(base.sorts, base.predicates, base.clauses + (goal,))


def mr3_unsat(root: Path, seed: int) -> Workload:
    from regmod.frontend import print_problem

    elements = draw_list(seed)
    problem = mr3_unsat_problem(elements)
    inst = Instance(
        "member-rev-3+rev-goal",
        print_problem(problem),
        max_states=MR3_BOUND,
        expected=frozenset({"unsat"}),
        goal_index=len(problem.clauses) - 1,
    )
    return Workload("mr3-unsat", (inst,), {"L": "[%s]" % ", ".join(elements)})


BY_NAME = {"fixtures": fixtures, "mr3-model": mr3_model, "mr3-unsat": mr3_unsat}
