"""Complete deterministic bottom-up tree automata over the problem signature.

States are numbered globally from 1 with one contiguous range per sort, in
sort declaration order.  The transition map is keyed by constructor name and
argument-state tuple; completeness and determinism together mean the map has
exactly one entry per key, so a predicate interpretation is just a set of
state tuples per predicate (PredicateTables).  run_term is a loop over
core.subterms, so it runs terms of any depth.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Set, Tuple, Union

from .core import Problem, Term, Var, record, subterms

Transition = Tuple[str, Tuple[int, ...]]
PredicateTables = Dict[str, Set[Tuple[int, ...]]]

# Inhabitation classes: how many ground terms reach a state.
EMPTY, ONE, MANY = 0, 1, 2


@record
class TreeAutomaton:
    """state_ranges lists (sort, lo, hi) with lo..hi inclusive; delta maps
    each (constructor, argument states) pair to the resulting state.  The
    insertion order of delta is the fixed grid order used everywhere:
    constructors in declaration order, argument tuples lexicographic."""

    state_ranges: Tuple[Tuple[str, int, int], ...]
    delta: Dict[Transition, int]

    def states_of(self, sort: str) -> range:
        for s, lo, hi in self.state_ranges:
            if s == sort:
                return range(lo, hi + 1)
        raise KeyError(sort)

    @property
    def total_states(self) -> int:
        return max((hi for _, _, hi in self.state_ranges), default=0)

    def all_states(self) -> range:
        return range(1, self.total_states + 1)


def state_ranges_for(
    problem: Problem, n_states: Union[int, Dict[str, int]]
) -> Tuple[Tuple[str, int, int], ...]:
    """Contiguous 1-based ranges in sort declaration order; n_states is a
    per-sort count, either uniform or keyed by sort name."""
    ranges: List[Tuple[str, int, int]] = []
    lo = 1
    for s in problem.sorts:
        n = n_states if isinstance(n_states, int) else n_states[s.name]
        if n < 1:
            raise ValueError("sort %s needs at least one state" % s.name)
        ranges.append((s.name, lo, lo + n - 1))
        lo += n
    return tuple(ranges)


def transition_grid(
    problem: Problem, ranges: Tuple[Tuple[str, int, int], ...]
) -> List[Transition]:
    """The fixed slot order: constructors in declaration order, argument
    tuples lexicographic over the argument sorts' ranges."""
    by_sort = {sort: range(lo, hi + 1) for sort, lo, hi in ranges}
    grid: List[Transition] = []
    for s in problem.sorts:
        for c in s.constructors:
            pools = [by_sort[a] for a in c.arg_sorts]
            if not pools:
                grid.append((c.name, ()))
                continue
            for args in itertools.product(*pools):
                grid.append((c.name, args))
    return grid


def run_term(a: TreeAutomaton, t: Term) -> int:
    """State reached on a ground term, run bottom-up over its subterms."""
    states: List[int] = []
    for u in subterms(t):
        if isinstance(u, Var):
            raise ValueError("cannot run the automaton on the variable %s" % u.name)
        k = len(states) - len(u.args)
        key = (u.ctor, tuple(states[k:]))
        if key not in a.delta:
            raise ValueError("no transition for %s(%s)" % key)
        states[k:] = [a.delta[key]]
    return states[0]


def check_automaton(a: TreeAutomaton, problem: Problem) -> List[str]:
    """Completeness, determinism and range discipline against the problem
    signature; empty list means well-formed."""
    errors: List[str] = []
    if {s for s, _, _ in a.state_ranges} != {s.name for s in problem.sorts}:
        errors.append("state ranges do not cover exactly the declared sorts")
        return errors
    expected = state_ranges_for(
        problem, {sort: hi - lo + 1 for sort, lo, hi in a.state_ranges}
    )
    if expected != a.state_ranges:
        errors.append(
            "state ranges must be contiguous from 1 in sort declaration order"
        )
        return errors
    grid = transition_grid(problem, a.state_ranges)
    missing = [t for t in grid if t not in a.delta]
    for ctor, args in missing:
        errors.append("missing transition for %s%s" % (ctor, list(args)))
    extra = set(a.delta) - set(grid)
    for ctor, args in sorted(extra):
        errors.append("transition %s%s is outside the signature grid" % (ctor, list(args)))
    for (ctor, args), target in a.delta.items():
        if (ctor, args) in extra:
            continue
        result_sort = problem.constructor(ctor)[1]
        if target not in a.states_of(result_sort):
            errors.append(
                "transition %s%s targets state %d outside sort %s"
                % (ctor, list(args), target, result_sort)
            )
    return errors


def inhabitation(a: TreeAutomaton) -> Dict[int, int]:
    """Number of ground terms reaching each state, saturated at two
    (EMPTY, ONE, MANY), by naive rounds over every state."""
    count: Dict[int, int] = {q: EMPTY for q in a.all_states()}
    changed = True
    while changed:
        changed = False
        for q in a.all_states():
            total = terms_reaching([args for (_, args), t in a.delta.items() if t == q], count)
            if total > count[q]:
                count[q] = total
                changed = True
    return count


def terms_reaching(into: Iterable[Tuple[int, ...]], count: Dict[int, int]) -> int:
    """Terms reaching a state, saturated at MANY, when into lists the
    argument states of the transitions into it and count gives the terms
    reaching each state.  Distinct transitions accept disjoint term sets
    because the automaton is deterministic, so contributions add up."""
    total = 0
    for args in into:
        contrib = 1
        for arg in args:
            # Saturate without stopping: a later empty argument still
            # empties the product.
            contrib = min(contrib * count[arg], MANY)
        total += contrib
        if total >= MANY:
            return MANY
    return total


def diff_approx(q1: int, q2: int, inh: Dict[int, int]) -> bool:
    """Over-approximates "two terms reaching q1 and q2 can differ".  By
    determinism different states accept disjoint languages, so distinct
    inhabited states always differ; a state differs from itself only if it
    accepts at least two terms.  False therefore certifies that all
    accepted term pairs are equal.  inh is the automaton's inhabitation."""
    if q1 != q2:
        return inh[q1] != EMPTY and inh[q2] != EMPTY
    return inh[q1] == MANY


def check_tables(
    tables: PredicateTables, a: TreeAutomaton, problem: Problem
) -> List[str]:
    """Arity and range discipline for a predicate interpretation."""
    errors: List[str] = []
    ranges: Dict[str, range] = {}
    for sort, lo, hi in a.state_ranges:
        ranges.setdefault(sort, range(lo, hi + 1))  # states_of's first match
    for pred, rows in tables.items():
        if not problem.has_predicate(pred):
            errors.append("unknown predicate %s" % pred)
            continue
        decl = problem.predicate(pred)
        for row in rows:
            if len(row) != len(decl.arg_sorts):
                errors.append("%s%s has the wrong arity" % (pred, list(row)))
                continue
            for qv, sort in zip(row, decl.arg_sorts):
                if qv not in ranges[sort]:
                    errors.append(
                        "%s%s: state %d is outside sort %s" % (pred, list(row), qv, sort)
                    )
    for p in problem.predicates:
        if p.name not in tables:
            errors.append("missing table for predicate %s" % p.name)
    return errors
