"""Built-in combinatorial backend: automaton enumeration and model search.

The search walks the fixed transition grid (constructors in declaration
order, argument tuples lexicographic) and assigns one target state per
slot, depth first.  Three prunes keep it tractable, each sound on its own:

  * First-occurrence symmetry breaking.  Scanning slots in grid order,
    arguments before the target, a state may appear for the first time
    only if every smaller state of its sort has already appeared.  Every
    isomorphism class has such a member (its lexicographically least
    one), so the prune never loses a class; classes can still show up
    more than once, which the leaf-level canonicity check removes when
    exact enumeration is requested.

  * Goal pruning.  Least tables, inhabitation counts, and the diff
    over-approximation are all monotone in added transitions, so a goal
    firing on a partial automaton fires on every completion, and the
    whole subtree can be dropped.

  * Seeded semi-naive fixpoints.  One FixpointEngine carries the tables
    and inhabitation counts along the search path.  Assigning a slot fires
    only the clause variants seeded on a transition of its constructor,
    each new row only the variants seeded on a literal of its predicate,
    and a raised count only the clauses with a disequation; the goal check
    tries only the goals those changes wake, which is enough because the
    parent node violated none, and goals without variables whole, once per
    node.  Backtracking pops the engine's trail.

The walk keeps its own stack of slots rather than recursing, so the grid
size is not limited by Python's recursion depth.

The counterexample side is a thin wrapper over the bounded ground least
model: both clause variables and derivations stay within the depth bound.
core.ground_least_model builds the model semi-naively, each clause firing
only on atoms new since it last fired, through joins indexed on bound
argument positions; core.goal_violated runs the goals through the same
join.  Both are called through this module's namespace, where a tracer can
wrap them.  Each depth builds its model afresh, and goals are checked once
the model is complete, so the violation named does not depend on the order
atoms were derived in.
"""

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .automaton import (
    PredicateTables,
    Transition,
    TreeAutomaton,
    state_ranges_for,
    transition_grid,
)
from .core import Derivation, Problem, ground_least_model, goal_violated
from .interpretation import ClausePlans, FixpointEngine, violated_goal


class SearchTimeout(Exception):
    def __init__(self, seconds: float):
        super().__init__("search deadline of %.1fs passed" % seconds)
        self.seconds = seconds


@dataclass
class SearchConfig:
    symmetry_breaking: bool = True
    deadline: Optional[float] = None  # absolute time.monotonic() value


class _Search:
    """Shared walk state for one (problem, bound) pair."""

    def __init__(self, problem: Problem, n_states: int, config: SearchConfig):
        self.config = config
        self.ranges = state_ranges_for(problem, n_states)
        self.grid = transition_grid(problem, self.ranges)
        self.automaton = TreeAutomaton(self.ranges, {})
        self.range_of = {sort: (lo, hi) for sort, lo, hi in self.ranges}
        self.result_sort = {
            c.name: s.name for s in problem.sorts for c in s.constructors
        }
        # Highest state of each sort seen so far in the appearance order.
        self.seen_upto = {sort: lo - 1 for sort, lo, hi in self.ranges}
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.config.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.config.deadline:
                raise SearchTimeout(self.config.deadline)

    def mark_seen(self, states: Tuple[int, ...]) -> List[Tuple[str, int]]:
        undo = []
        for q in states:
            sort = self.automaton.sort_of_state(q)
            if q > self.seen_upto[sort]:
                undo.append((sort, self.seen_upto[sort]))
                self.seen_upto[sort] = q
        return undo

    def unmark(self, undo: List[Tuple[str, int]]) -> None:
        for sort, old in reversed(undo):
            self.seen_upto[sort] = old

    def targets_for(self, ctor: str) -> range:
        lo, hi = self.range_of[self.result_sort[ctor]]
        if not self.config.symmetry_breaking:
            return range(lo, hi + 1)
        return range(lo, min(hi, self.seen_upto[self.result_sort[ctor]] + 1) + 1)

    def walk(
        self, assign: Callable[[int, int], bool], retract: Callable[[int], None]
    ) -> Iterator[None]:
        """Depth first over the allowed targets of each slot, in grid order,
        on an explicit stack.  assign(i, q) gives slot i the target q and
        returns False to drop the subtree below; retract(i) undoes it.
        Yields at every complete assignment, which stays in place until the
        walk resumes."""
        grid = self.grid
        # Per entered slot: the targets left, the appearance marks of its
        # arguments, and those of its current target (None when unassigned).
        frames: List[list] = []

        def enter() -> None:
            self.tick()
            ctor, args = grid[len(frames)]
            undo_args = self.mark_seen(args)
            frames.append([iter(self.targets_for(ctor)), undo_args, None])

        if not grid:
            yield
            return
        enter()
        while frames:
            i = len(frames) - 1
            frame = frames[i]
            if frame[2] is not None:
                retract(i)
                self.unmark(frame[2])
                frame[2] = None
            q = next(frame[0], None)
            if q is None:
                self.unmark(frame[1])
                frames.pop()
                continue
            frame[2] = self.mark_seen((q,))
            if not assign(i, q):
                continue
            if i + 1 < len(grid):
                enter()
            else:
                yield


def _state_bijections(
    ranges: Tuple[Tuple[str, int, int], ...]
) -> List[Dict[int, int]]:
    """All per-sort state bijections, as global state maps."""
    perms_per_sort = [
        [
            dict(zip(range(lo, hi + 1), image))
            for image in itertools.permutations(range(lo, hi + 1))
        ]
        for _, lo, hi in ranges
    ]
    combos: List[Dict[int, int]] = []
    for combo in itertools.product(*perms_per_sort):
        pi: Dict[int, int] = {}
        for mapping in combo:
            pi.update(mapping)
        combos.append(pi)
    return combos


def _is_orbit_minimum(
    grid: List[Transition],
    index: Dict[Transition, int],
    bijections: List[Dict[int, int]],
    targets: List[int],
) -> bool:
    """Exact canonicity: the target tuple is the lexicographic minimum of
    its isomorphism orbit under per-sort state bijections."""
    for pi in bijections:
        # The transition (c, args) -> q maps to (c, pi(args)) -> pi(q).
        permuted_targets = [0] * len(targets)
        for i, (ctor, args) in enumerate(grid):
            j = index[(ctor, tuple(pi[a] for a in args))]
            permuted_targets[j] = pi[targets[i]]
        if permuted_targets < targets:
            return False
    return True


def enumerate_automata(
    problem: Problem,
    n_states: int,
    config: Optional[SearchConfig] = None,
) -> Iterator[TreeAutomaton]:
    """All complete deterministic automata with n_states per sort; with
    symmetry breaking on, exactly one representative per isomorphism
    class, in lexicographic target order."""
    config = config or SearchConfig()
    search = _Search(problem, n_states, config)
    grid = search.grid
    delta = search.automaton.delta
    index = {slot: i for i, slot in enumerate(grid)}
    bijections = _state_bijections(search.ranges) if config.symmetry_breaking else []

    def assign(i: int, q: int) -> bool:
        delta[grid[i]] = q
        return True

    def retract(i: int) -> None:
        del delta[grid[i]]

    for _ in search.walk(assign, retract):
        # delta fills in grid order, so its values are the target tuple.
        if not config.symmetry_breaking or _is_orbit_minimum(
            grid, index, bijections, list(delta.values())
        ):
            yield TreeAutomaton(search.ranges, dict(delta))


def search_model(
    problem: Problem,
    n_states: int,
    config: Optional[SearchConfig] = None,
    plans: Optional[ClausePlans] = None,
) -> Optional[Tuple[TreeAutomaton, PredicateTables]]:
    """First automaton (in search order) whose least tables satisfy every
    goal, or None when the bound is exhausted.  The first hit is returned
    as found; it satisfies check_model but need not be the canonical
    class representative."""
    config = config or SearchConfig()
    if plans is None:
        plans = ClausePlans(problem)
    search = _Search(problem, n_states, config)
    engine = FixpointEngine(plans, search.automaton)
    marks: List[int] = []

    def assign(i: int, q: int) -> bool:
        marks.append(engine.push(search.grid[i], q))
        hit = violated_goal(
            engine.automaton, engine.tables, plans, engine.inh, engine, marks[-1]
        )
        return hit is None

    def retract(i: int) -> None:
        engine.pop(marks.pop())

    for _ in search.walk(assign, retract):
        # An empty grid reaches its leaf with no node, so no goal check yet.
        if not search.grid and violated_goal(
            engine.automaton, engine.tables, plans, engine.inh, engine
        ) is not None:
            return None
        return TreeAutomaton(search.ranges, dict(engine.automaton.delta)), {
            p: set(rows) for p, rows in engine.tables.items()
        }
    return None


def find_counterexample(problem: Problem, depth_bound: int) -> Optional[Derivation]:
    """Replayable goal violation within the depth bound, or None.  Both
    the instantiations and every intermediate atom stay inside the bounded
    universe, so a None here never rules out deeper counterexamples.
    Raises BudgetExceeded when the ground model outgrows the atom cap."""
    atoms, provenance = ground_least_model(problem, depth_bound)
    return goal_violated(problem, atoms, provenance)
