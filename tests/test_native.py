import time
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regmod import native
from regmod.automaton import check_automaton
from regmod.benchmarks import gen_member_rev
from regmod.core import Atom, check_derivation, validate
from regmod.frontend import parse_problem
from regmod.interpretation import check_model, interpret_atom, least_tables
from regmod.native import (
    SearchTimeout,
    enumerate_automata,
    find_counterexample,
    search_model,
)
from tests.brute_force import all_automata, has_model, orbit_key, reachable
from tests.conftest import nat
from tests.test_core import SteppedClock
from tests.test_frontend import small_problems
from tests.test_ground_oracle import joined_problems


# ---------------------------------------------------------------------------
# The walk against brute force: every complete automaton with at most n
# states per sort, kept when each of its states is reachable, grouped into
# classes by trying every per-sort state bijection.


def raw(problem, n):
    return [a for a in all_automata(problem, n) if reachable(a)]


def canonical(problem, n):
    return list(enumerate_automata(problem, n))


def classes(problem, n):
    found = {}
    for a in raw(problem, n):
        found.setdefault(orbit_key(a), []).append(a)
    return found


TWO_SORTS = """
(declare-datatypes ((elt 0) (list 0))
  (((e1) (e2)) ((nil) (cons (h elt) (t list)))))
"""


def test_raw_enumeration_counts(nat_problem):
    # With k states over z/s, a reachable automaton is a chain z, s(z), ...,
    # s^(k-1)(z) through all k states, numbered in one of k! ways, whose
    # last s goes to any of the k: k! * k of them.
    assert len(raw(nat_problem, 1)) == 1
    assert len(raw(nat_problem, 2)) == 1 + 4
    assert len(raw(nat_problem, 3)) == 1 + 4 + 18


def test_canonical_counts_nat(nat_problem):
    assert len(canonical(nat_problem, 1)) == 1
    assert len(canonical(nat_problem, 2)) == 3
    assert len(canonical(nat_problem, 3)) == 6


def test_canonical_set_nat2(nat_problem):
    # Targets in grid order: z, then s of each state.
    reps = {tuple(a.delta.values()) for a in canonical(nat_problem, 2)}
    assert reps == {(1, 1), (1, 2, 1), (1, 2, 2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_matches_orbit_partition_nat(nat_problem, n):
    found = classes(nat_problem, n)
    keys = [orbit_key(a) for a in canonical(nat_problem, n)]
    assert len(keys) == len(set(keys)) == len(found)
    assert set(keys) == set(found)


def test_canonical_matches_orbit_partition_two_sorts():
    problem = parse_problem(TWO_SORTS)
    found = classes(problem, 2)
    keys = [orbit_key(a) for a in canonical(problem, 2)]
    assert len(keys) == len(set(keys)) == len(found)
    assert set(keys) == set(found)
    # A reachable automaton has no automorphism but the identity, so each
    # class holds one automaton per numbering of its states.
    for (ranges, _), members in found.items():
        assert len(members) == prod(factorial(hi - lo + 1) for _, lo, hi in ranges)


def test_canonical_automata_are_wellformed(nat_problem):
    for a in canonical(nat_problem, 3):
        assert check_automaton(a, nat_problem) == []
        assert reachable(a)


def test_enumeration_is_deterministic(nat_problem):
    def walk():
        return [(a.state_ranges, tuple(a.delta.items())) for a in canonical(nat_problem, 3)]

    seqs = walk()
    assert len(set(seqs)) == len(seqs)
    assert seqs == walk()


# ---------------------------------------------------------------------------
# Model search


def test_search_model_exhausts_one_state(nat_problem):
    assert search_model(nat_problem, 1) is None


def test_search_model_finds_two_state_model(nat_problem):
    found = search_model(nat_problem, 2)
    assert found is not None
    a, tables = found
    assert check_automaton(a, nat_problem) == []
    assert check_model(a, tables, nat_problem) is None
    assert tables == least_tables(a, nat_problem)
    # Semantically the even/odd split, whatever the state names.
    assert interpret_atom(a, tables, Atom("even", (nat(0),)))
    assert interpret_atom(a, tables, Atom("even", (nat(2),)))
    assert interpret_atom(a, tables, Atom("odd", (nat(1),)))
    assert not interpret_atom(a, tables, Atom("odd", (nat(2),)))
    assert not interpret_atom(a, tables, Atom("even", (nat(1),)))


def test_search_verdict_independent_of_symmetry(nat_problem, unsat_toy):
    # The walk takes one automaton per isomorphism class; brute force takes
    # every automaton, reachable or not.
    for problem in (nat_problem, unsat_toy):
        for n in (1, 2):
            assert (search_model(problem, n) is not None) == has_model(problem, n)


@given(
    st.one_of(
        st.tuples(small_problems(), st.integers(1, 2)),
        st.tuples(joined_problems(), st.integers(1, 3)),
    )
)
@settings(max_examples=60, deadline=None)
def test_search_model_verdict_matches_brute_force(case):
    problem, n = case
    assume(validate(problem).ok)
    found = search_model(problem, n)
    assert (found is not None) == has_model(problem, n)
    if found is not None:
        a, tables = found
        assert check_automaton(a, problem) == []
        assert reachable(a)
        assert all(hi - lo < n for _, lo, hi in a.state_ranges)
        assert tables == least_tables(a, problem)
        assert check_model(a, tables, problem) is None


def test_search_model_diseq_problems(problems_dir):
    unit = parse_problem((problems_dir / "diseq_unit.smt2").read_text())
    found = search_model(unit, 1)
    assert found is not None
    a, tables = found
    assert check_model(a, tables, unit) is None

    pair = parse_problem((problems_dir / "diseq_pair_unsat.smt2").read_text())
    assert search_model(pair, 1) is None
    assert search_model(pair, 2) is None


@pytest.mark.parametrize("k,n,nodes,sat", [(2, 4, 13, True), (3, 4, 19, False)])
def test_search_model_node_counts_are_pinned(monkeypatch, k, n, nodes, sat):
    # Node counts of the discovery-numbered walk: a change to the slot
    # order, the targets or the pruning shows up here.
    searches = []

    class Recorded(native._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(native, "_Search", Recorded)
    found = search_model(gen_member_rev(k), n)
    assert (found is not None) == sat
    assert searches[-1].nodes == nodes


# junk absorbs every term but the chain leaf, s(leaf), ..., s^9(leaf): one
# and top each hold of one term, so each state of the chain accepts one
# term.  The model has 11 states and 2 + 11 + 11^3 slots, one search level
# each, and the walk finds it without backtracking over an f slot.
CHAIN_AND_JUNK = """
(declare-datatypes ((t 0))
  (((junk) (leaf) (s (s_0 t)) (f (f_0 t) (f_1 t) (f_2 t)))))
(declare-fun one (t) Bool)
(declare-fun top (t) Bool)
(assert (one leaf))
(assert (top %sleaf%s))
(assert (forall ((x t) (y t)) (=> (and (one x) (one y) (distinct x y)) false)))
(assert (forall ((x t) (y t)) (=> (and (top x) (top y) (distinct x y)) false)))
""" % ("(s " * 9, ")" * 9)


def test_search_walks_a_grid_deeper_than_the_recursion_limit():
    problem = parse_problem(CHAIN_AND_JUNK)
    found = search_model(problem, 11)
    assert found is not None
    a, tables = found
    assert a.state_ranges == (("t", 1, 11),)
    assert len(a.delta) == 2 + 11 + 11**3
    assert check_automaton(a, problem) == []
    assert check_model(a, tables, problem) is None


def test_search_model_checks_goals_on_an_empty_grid():
    # No sorts, so no slots: the goal "true => false" must still refute.
    problem = parse_problem("(assert (=> (and) false))")
    assert search_model(problem, 1) is None


def test_search_model_ignores_what_between_returns():
    # between is called for what it does: a True from it stops nothing.
    found = search_model(gen_member_rev(3), 8)
    assert found is not None
    assert search_model(gen_member_rev(3), 8, between=lambda facts: True) == found


def test_what_between_raises_leaves_search_model_unchanged():
    class Stop(Exception):
        pass

    stop, calls = Stop(), []

    def between(facts):
        calls.append(facts)
        if len(calls) == 3:
            raise stop

    with pytest.raises(Stop) as raised:
        search_model(gen_member_rev(3), 8, between=between)
    assert raised.value is stop and len(calls) == 3


def test_enumeration_respects_deadline():
    problem = parse_problem("(declare-datatypes ((t 0)) (((leaf) (node (l t) (r t)))))")
    with pytest.raises(SearchTimeout):
        list(enumerate_automata(problem, 3, deadline=time.monotonic() - 1.0))


def test_the_model_search_stops_at_the_first_node_past_the_deadline(monkeypatch):
    # member-rev(3) at bound 8 enters 38 nodes before its model; a node can
    # take milliseconds on larger problems, so the walk reads the clock at
    # every node it enters and stops at the first after the deadline.
    searches = []

    class Recorded(native._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    clock = SteppedClock(5)
    monkeypatch.setattr(native, "time", clock)
    monkeypatch.setattr(native, "_Search", Recorded)
    with pytest.raises(SearchTimeout):
        search_model(gen_member_rev(3), 8, deadline=1.0)
    assert clock.reads == 6
    assert searches[-1].nodes == 6


# ---------------------------------------------------------------------------
# Counterexamples


def test_find_counterexample_unsat_toy(unsat_toy):
    assert find_counterexample(unsat_toy, 1) is None
    derivation = find_counterexample(unsat_toy, 2)
    assert derivation is not None
    assert check_derivation(unsat_toy, derivation) == []


def test_find_counterexample_none_on_sat(nat_problem):
    assert find_counterexample(nat_problem, 4) is None


def test_find_counterexample_diseq(problems_dir):
    pair = parse_problem((problems_dir / "diseq_pair_unsat.smt2").read_text())
    derivation = find_counterexample(pair, 1)
    assert derivation is not None
    assert check_derivation(pair, derivation) == []

    unit = parse_problem((problems_dir / "diseq_unit.smt2").read_text())
    assert find_counterexample(unit, 3) is None


def test_find_counterexample_respects_deadline(nat_problem):
    with pytest.raises(SearchTimeout):
        find_counterexample(nat_problem, 3, deadline=time.monotonic() - 1.0)
