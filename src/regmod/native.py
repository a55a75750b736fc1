"""Built-in combinatorial backend: automaton enumeration and model search.

The search builds an automaton one transition at a time, depth first, and
numbers each sort's states in the order it first reaches them; a state is
reached once a slot targets it.  Slots are taken as they become available:
first those without arguments, then, each time a state is reached, those
whose arguments are all reached and include it, each group in grid order
(constructors in declaration order, argument tuples lexicographic).  A
slot's target is a reached state of its sort or, while the sort has fewer
than n, the next fresh one.  The walk ends when no slot is left: the
automaton is then complete over the reached states, all of them reachable,
and the bound n means at most n states per sort.

  * One walk per isomorphism class.  The next slot depends only on what
    was assigned before, so two walks take the same slots while they take
    the same targets.  An isomorphism between the automata they end in maps
    the target of a slot to the target of the same slot, so it is the
    identity on the states reached before the walks part; where they part,
    one target is the other's image, so both are the one fresh state.  No
    orbit check is needed.  Leaving unreachable states out loses no model:
    ground terms reach only inhabited states, so a model restricted to
    them is a model.

  * Goal pruning.  Least tables, inhabitation counts, and the diff
    over-approximation are all monotone in added transitions, so a goal
    firing on a partial automaton fires on every completion, and the
    whole subtree can be dropped.  A state is reached exactly when it is
    inhabited, so generators, which range over the inhabited states, range
    over the reached ones.

  * Seeded semi-naive fixpoints.  One FixpointEngine carries the tables
    and inhabitation counts along the search path.  Assigning a slot fires
    only the definite clause variants seeded on a transition of its
    constructor, each new row only the variants seeded on a literal of its
    predicate, and a raised count only the definite clauses with a
    disequation or a generator.  Goals derive nothing and are not fired:
    at each fixpoint reached without a goal solution the engine tries
    every goal whole, in clause order; the goal check, violated_goal, once
    per target assigned, reads the goal solution the engine kept.
    Backtracking pops the engine's trail, and a kept solution with it.
    The engine runs each clause plan as generated Python loops (plancode),
    compiled once per plan shape and process and bound once per engine; a
    definite plan files the rows it derives, and the engine's pop undoes
    them in one plain loop.  interpretation._solutions, the one-loop plan
    interpreter that the certifier's model check runs on, is their
    reference.

The walk keeps its own stack rather than recursing, so its depth is not
limited by Python's recursion limit.  It reads no clock: the engine reads
the deadline's once per push and every 512 loop steps of a fire, so the
search stops at the first target tried after it, pruned or not, or inside
the fire that runs past it.  A model is returned with its states
renumbered into contiguous per-sort ranges.  The walk with at most n + 1
states per sort holds the walk with at most n, so one walk at a cap
answers for every bound below it.  search_model can report its work as it
goes: it calls between with the count of facts its engine has derived
after each transition it assigns.  The driver runs the counterexample
depths there, and a depth that ends the run raises its answer through the
walk.

The counterexample side is a thin wrapper over the bounded ground least
model: both clause variables and derivations stay within the depth bound.
core.ground_least_model builds the model semi-naively, each clause firing
only on atoms new since it last fired, through joins over interned term
ids indexed on bound argument positions.  The core.GroundModel it fills
is the store every ground join reads, the goals' included, and
core.goal_violated runs the goals over the model it is given, as plain
nested loops, and the goal it names once more over that goal's buckets,
sorted once by atom text.
Those joins are generated Python loops too, written by the same plancode
emitter as the engine's plans.
Both are called through this module's namespace, where a tracer can wrap
them.  The depths of one solve share a core.GroundPlan: its term table, to
which each depth adds the layer of terms it needs, and its compiled joins.
The atoms are not shared: each depth derives its model afresh, and goals
are checked once the model is complete, so the violation named does not
depend on the order atoms were derived in.  The model passes from one to
the other as term ids, with its provenance a flat list of ints: term
objects, Atoms and derivation steps are built only for what is read, in
the end the derivation that is named and the buckets sorted to name it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Tuple

from .automaton import (
    PredicateTables,
    Transition,
    TreeAutomaton,
    state_ranges_for,
    transition_grid,
)
from .core import (
    Derivation,
    GroundPlan,
    Problem,
    SearchTimeout,
    goal_violated,
    ground_least_model,
)
from .interpretation import ClausePlans, FixpointEngine


class _Search:
    """The discovery-numbered walk for one (problem, bound) pair."""

    def __init__(self, problem: Problem, n_states: int):
        self.problem = problem
        self.ranges = state_ranges_for(problem, n_states)
        self.automaton = TreeAutomaton(self.ranges, {})
        sort_index = {sort: k for k, (sort, _, _) in enumerate(self.ranges)}
        # (name, result sort, argument sorts) per constructor, sorts by index.
        self.ctors = [
            (c.name, sort_index[s.name], tuple(sort_index[a] for a in c.arg_sorts))
            for s in problem.sorts
            for c in s.constructors
        ]
        # The highest reached state of each sort; lo - 1 while none is.
        self.top = [lo - 1 for _, lo, _ in self.ranges]
        self.nodes = 0

    def slots_with(self, q: int, sort: int) -> List[Transition]:
        """The slots whose arguments are all reached and include q, a state
        of the sort, in grid order."""
        slots: List[Transition] = []
        for ctor, _, arg_sorts in self.ctors:
            if sort in arg_sorts:
                pools = [range(self.ranges[k][1], self.top[k] + 1) for k in arg_sorts]
                slots.extend((ctor, args) for args in itertools.product(*pools) if q in args)
        return slots

    def walk(
        self,
        assign: Callable[[Transition, int], Optional[bool]],
        retract: Callable[[Transition], None],
    ) -> Iterator[None]:
        """Depth first over the targets of each slot, on an explicit stack.
        assign(slot, q) gives the slot the target q and returns True to drop
        the subtree below; retract(slot) undoes it.  Yields at every complete
        assignment, which stays in place until the walk resumes."""
        top, ranges = self.top, self.ranges
        result_sort = {ctor: k for ctor, k, _ in self.ctors}
        queue = [(ctor, ()) for ctor, _, arg_sorts in self.ctors if not arg_sorts]
        # Per entered slot: its place in the queue, the targets left, whether
        # its current target is fresh (None while unassigned), and the queue
        # length before that target's slots joined it.
        frames: List[list] = []

        def enter(i: int) -> None:
            self.nodes += 1
            k = result_sort[queue[i][0]]
            targets = range(ranges[k][1], min(ranges[k][2], top[k] + 1) + 1)
            frames.append([i, iter(targets), None, len(queue)])

        if not queue:
            yield
            return
        enter(0)
        while frames:
            frame = frames[-1]
            slot = queue[frame[0]]
            k = result_sort[slot[0]]
            if frame[2] is not None:
                retract(slot)
                if frame[2]:
                    top[k] -= 1
                    del queue[frame[3]:]
                frame[2] = None
            q = next(frame[1], None)
            if q is None:
                frames.pop()
                continue
            frame[2] = q > top[k]
            if frame[2]:
                top[k] = q
                frame[3] = len(queue)
                queue.extend(self.slots_with(q, k))
            if not assign(slot, q):
                if frame[0] + 1 < len(queue):
                    enter(frame[0] + 1)
                else:
                    yield

    def compacted(self, tables: PredicateTables) -> Tuple[TreeAutomaton, PredicateTables]:
        """The automaton and tables over the reached states alone, each sort
        renumbered into its own contiguous range, transitions in grid
        order."""
        counts = {sort: top - lo + 1 for (sort, lo, _), top in zip(self.ranges, self.top)}
        ranges = state_ranges_for(self.problem, counts)
        shift = {
            old + i: lo + i
            for (_, old, _), (_, lo, hi) in zip(self.ranges, ranges)
            for i in range(hi - lo + 1)
        }
        moved = {
            (ctor, tuple([shift[a] for a in args])): shift[q]
            for (ctor, args), q in self.automaton.delta.items()
        }
        delta = {slot: moved[slot] for slot in transition_grid(self.problem, ranges)}
        return TreeAutomaton(ranges, delta), {
            p: {tuple([shift[q] for q in row]) for row in rows} for p, rows in tables.items()
        }


def enumerate_automata(problem: Problem, n_states: int) -> Iterator[TreeAutomaton]:
    """Every complete deterministic automaton with at most n_states per sort
    whose states are all reachable, exactly one per isomorphism class, in
    walk order."""
    search = _Search(problem, n_states)
    delta = search.automaton.delta
    for _ in search.walk(delta.__setitem__, delta.__delitem__):
        yield search.compacted({})[0]


def violated_goal(engine: FixpointEngine) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The goal check of one search node: the engine's hit, the first goal
    whose body holds over its tables and its assignment, or None.  Called
    through this module's namespace, once per transition assigned, where a
    tracer can count it."""
    return engine.hit


def search_model(
    problem: Problem,
    n_states: int,
    plans: Optional[ClausePlans] = None,
    deadline: Optional[float] = None,
    between: Optional[Callable[[int], None]] = None,
) -> Optional[Tuple[TreeAutomaton, PredicateTables]]:
    """First automaton in walk order, with at most n_states per sort, whose
    least tables satisfy every goal, compacted to its reached states; or
    None when the bound is exhausted.  Raises SearchTimeout at the first
    target tried after the deadline, a time.monotonic() value, has passed,
    or inside the fire that runs past it: the engine reads the clock once
    per push and every 512 loop steps of a fire.
    With between, calls between(facts) after each transition the walk
    assigns, facts being the entries (rows, transitions and raised counts)
    the engine has put on its trail since the walk began, popped or not.
    What between returns is ignored, and what it raises passes through
    unchanged, so None always means the walk at this bound is exhausted."""
    if plans is None:
        plans = ClausePlans(problem)
    search = _Search(problem, n_states)
    engine = FixpointEngine(plans, search.automaton, deadline)
    marks: List[int] = []
    facts = 0

    def assign(slot: Transition, q: int) -> bool:
        nonlocal facts
        mark = engine.push(slot, q)
        marks.append(mark)
        if between is not None:
            facts += len(engine.trail) - mark
            between(facts)
        return violated_goal(engine) is not None

    def retract(slot: Transition) -> None:
        engine.pop(marks.pop())

    for _ in search.walk(assign, retract):
        # A leaf below a slot has no hit; only a walk with no slot can.
        if engine.hit is not None:
            return None
        return search.compacted(engine.tables)
    return None


def find_counterexample(
    problem: Problem,
    depth_bound: int,
    deadline: Optional[float] = None,
    plan: Optional[GroundPlan] = None,
) -> Optional[Derivation]:
    """Replayable goal violation within the depth bound, or None.  Both
    the instantiations and every intermediate atom stay inside the bounded
    universe, so a None here never rules out deeper counterexamples.  plan
    is the problem's GroundPlan, shared by the bounds of one solve; with
    None, ground_least_model makes one.  Raises BudgetExceeded when the
    ground model outgrows the atom cap, and SearchTimeout once the
    deadline has passed."""
    atoms, _ = ground_least_model(problem, depth_bound, deadline=deadline, plan=plan)
    return goal_violated(atoms)
