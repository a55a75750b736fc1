import itertools
import time

import pytest

from regmod import native
from regmod.automaton import (
    TreeAutomaton,
    check_automaton,
    state_ranges_for,
    transition_grid,
)
from regmod.benchmarks import gen_member_rev
from regmod.core import Atom, check_derivation
from regmod.frontend import parse_problem
from regmod.interpretation import check_model, interpret_atom, least_tables
from regmod.native import (
    SearchConfig,
    SearchTimeout,
    enumerate_automata,
    find_counterexample,
    search_model,
)
from tests.conftest import nat


# ---------------------------------------------------------------------------
# Independent isomorphism oracle: orbit fingerprints under all per-sort
# state bijections, computed directly from the definition.


def all_bijections(ranges):
    per_sort = [
        [dict(zip(range(lo, hi + 1), image))
         for image in itertools.permutations(range(lo, hi + 1))]
        for _, lo, hi in ranges
    ]
    for combo in itertools.product(*per_sort):
        pi = {}
        for m in combo:
            pi.update(m)
        yield pi


def orbit_key(a):
    keys = []
    for pi in all_bijections(a.state_ranges):
        remapped = tuple(
            sorted(
                ((c, tuple(pi[x] for x in args)), pi[t])
                for (c, args), t in a.delta.items()
            )
        )
        keys.append(remapped)
    return min(keys)


def raw(problem, n):
    return list(
        enumerate_automata(problem, n, SearchConfig(symmetry_breaking=False))
    )


def canonical(problem, n):
    return list(enumerate_automata(problem, n, SearchConfig()))


# ---------------------------------------------------------------------------
# Enumeration counts and exactness


def test_raw_enumeration_counts(nat_problem):
    # n^(n+1) complete deterministic automata over z/s with n states.
    assert len(raw(nat_problem, 1)) == 1
    assert len(raw(nat_problem, 2)) == 8
    assert len(raw(nat_problem, 3)) == 81


def test_canonical_counts_nat(nat_problem):
    assert len(canonical(nat_problem, 1)) == 1
    assert len(canonical(nat_problem, 2)) == 4
    assert len(canonical(nat_problem, 3)) == 15


def test_canonical_set_nat2(nat_problem):
    grid = transition_grid(nat_problem, state_ranges_for(nat_problem, 2))
    reps = {
        tuple(a.delta[slot] for slot in grid) for a in canonical(nat_problem, 2)
    }
    assert reps == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_matches_orbit_partition_nat(nat_problem, n):
    classes = {}
    for a in raw(nat_problem, n):
        classes.setdefault(orbit_key(a), []).append(a)
    reps = canonical(nat_problem, n)
    assert len(reps) == len(classes)
    seen = set()
    for a in reps:
        key = orbit_key(a)
        assert key in classes
        assert key not in seen
        seen.add(key)


def test_canonical_matches_orbit_partition_two_sorts():
    text = """
(declare-datatypes ((elt 0) (list 0))
  (((e1) (e2)) ((nil) (cons (h elt) (t list)))))
"""
    problem = parse_problem(text)
    classes = {}
    for a in raw(problem, 2):
        classes.setdefault(orbit_key(a), []).append(a)
    reps = canonical(problem, 2)
    assert len(raw(problem, 2)) == 2**7
    assert len(reps) == len(classes)
    assert {orbit_key(a) for a in reps} == set(classes)


def test_canonical_automata_are_wellformed(nat_problem):
    for a in canonical(nat_problem, 3):
        assert check_automaton(a, nat_problem) == []


def test_enumeration_is_deterministic(nat_problem):
    grid = transition_grid(nat_problem, state_ranges_for(nat_problem, 3))
    seqs = [tuple(a.delta[slot] for slot in grid) for a in canonical(nat_problem, 3)]
    assert seqs == sorted(seqs)
    again = [tuple(a.delta[slot] for slot in grid) for a in canonical(nat_problem, 3)]
    assert seqs == again


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
    off = SearchConfig(symmetry_breaking=False)
    for problem in (nat_problem, unsat_toy):
        for n in (1, 2):
            with_sym = search_model(problem, n)
            without = search_model(problem, n, off)
            assert (with_sym is None) == (without is None)


def test_search_model_diseq_problems(problems_dir):
    unit = parse_problem((problems_dir / "diseq_unit.smt2").read_text())
    found = search_model(unit, 1)
    assert found is not None
    a, tables = found
    assert check_model(a, tables, unit) is None

    pair = parse_problem((problems_dir / "diseq_pair_unsat.smt2").read_text())
    assert search_model(pair, 1) is None
    assert search_model(pair, 2) is None


@pytest.mark.parametrize("k,n,nodes,sat", [(2, 4, 26, True), (3, 4, 76, False)])
def test_search_model_node_counts_are_pinned(monkeypatch, k, n, nodes, sat):
    # Node counts measured on the naive-fixpoint search: the engine must
    # walk exactly the same tree.
    searches = []

    class Recorded(native._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(native, "_Search", Recorded)
    found = search_model(gen_member_rev(k), n)
    assert (found is not None) == sat
    assert searches[-1].nodes == nodes


BINARY_TREES = """
(declare-datatypes ((t 0)) (((leaf) (node (l t) (r t)))))
(declare-fun p (t) Bool)
(declare-fun q (t) Bool)
(assert (p leaf))
(assert (forall ((x t) (y t)) (=> (and (p x) (p y)) (p (node x y)))))
(assert (forall ((x t)) (=> (and (p x) (q x)) false)))
"""


def test_search_walks_a_grid_deeper_than_the_recursion_limit():
    # 33 states give 1 + 33 * 33 slots, one search level each.
    problem = parse_problem(BINARY_TREES)
    found = search_model(problem, 33)
    assert found is not None
    a, tables = found
    assert len(a.delta) == 1 + 33 * 33
    assert check_automaton(a, problem) == []
    assert check_model(a, tables, problem) is None
    first = next(enumerate_automata(problem, 33, SearchConfig(symmetry_breaking=False)))
    assert check_automaton(first, problem) == []


def test_search_model_checks_goals_on_an_empty_grid():
    # No sorts, so no slots: the goal "true => false" must still refute.
    problem = parse_problem("(assert (=> (and) false))")
    assert search_model(problem, 1) is None


def test_enumeration_respects_deadline(nat_problem):
    config = SearchConfig(symmetry_breaking=False, deadline=time.monotonic() - 1.0)
    with pytest.raises(SearchTimeout):
        list(enumerate_automata(nat_problem, 4, config))


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
