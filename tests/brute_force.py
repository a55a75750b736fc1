"""Brute-force references for the automaton walk, computed from the
definitions with no pruning: every complete automaton, reachability as
inhabitation of every state, isomorphism by trying every per-sort state
bijection, and model existence by least tables and check_model."""

import itertools

from regmod.automaton import EMPTY, TreeAutomaton, inhabitation, state_ranges_for, transition_grid
from regmod.interpretation import ClausePlans, check_model, least_tables


def complete_automata(problem, ranges):
    """Every complete deterministic automaton over the state ranges."""
    grid = transition_grid(problem, ranges)
    by_sort = {sort: range(lo, hi + 1) for sort, lo, hi in ranges}
    pools = [by_sort[problem.constructor(ctor)[1]] for ctor, _ in grid]
    for targets in itertools.product(*pools):
        yield TreeAutomaton(ranges, dict(zip(grid, targets)))


def all_automata(problem, n):
    """Every complete automaton with at most n states per sort."""
    for counts in itertools.product(range(1, n + 1), repeat=len(problem.sorts)):
        ranges = state_ranges_for(problem, {s.name: k for s, k in zip(problem.sorts, counts)})
        yield from complete_automata(problem, ranges)


def reachable(a):
    """Every state accepts some ground term."""
    return EMPTY not in inhabitation(a).values()


def isomorphs(a):
    """The automaton under every per-sort state bijection."""
    per_sort = [
        [dict(zip(range(lo, hi + 1), image)) for image in itertools.permutations(range(lo, hi + 1))]
        for _, lo, hi in a.state_ranges
    ]
    for combo in itertools.product(*per_sort):
        pi = {}
        for mapping in combo:
            pi.update(mapping)
        yield TreeAutomaton(
            a.state_ranges,
            {(ctor, tuple(pi[q] for q in args)): pi[t] for (ctor, args), t in a.delta.items()},
        )


def orbit_key(a):
    """Equal for two automata exactly when they are isomorphic."""
    return a.state_ranges, min(tuple(sorted(b.delta.items())) for b in isomorphs(a))


def has_model(problem, n):
    """Some complete automaton with at most n states per sort has least
    tables that satisfy every clause."""
    plans = ClausePlans(problem)
    return any(
        check_model(a, least_tables(a, problem, plans), problem, plans) is None
        for a in all_automata(problem, n)
    )
