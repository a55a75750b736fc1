import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod.automaton import (
    EMPTY,
    MANY,
    ONE,
    TreeAutomaton,
    check_automaton,
    check_tables,
    diff_approx,
    inhabitation,
    run_term,
    state_ranges_for,
    transition_grid,
)
from regmod.core import Constructor, Problem, SortDecl, Var, ground_terms
from tests.conftest import make_nat_problem, nat, s


@pytest.fixture
def even_odd_automaton():
    """Two states over nat: state 2 accepts the evens, state 1 the odds."""
    return TreeAutomaton(
        (("nat", 1, 2),),
        {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1},
    )


def elt_list_problem(k=2):
    sorts = (
        SortDecl("elt", tuple(Constructor("e%d" % i) for i in range(1, k + 1))),
        SortDecl("list", (Constructor("nil"), Constructor("cons", ("elt", "list")))),
    )
    return Problem(sorts, (), ())


def test_state_ranges_contiguous():
    p = elt_list_problem()
    assert state_ranges_for(p, 2) == (("elt", 1, 2), ("list", 3, 4))
    assert state_ranges_for(p, {"elt": 2, "list": 3}) == (
        ("elt", 1, 2),
        ("list", 3, 5),
    )
    with pytest.raises(ValueError):
        state_ranges_for(p, 0)


def test_transition_grid_order(nat_problem):
    ranges = state_ranges_for(nat_problem, 2)
    assert transition_grid(nat_problem, ranges) == [
        ("z", ()),
        ("s", (1,)),
        ("s", (2,)),
    ]


def test_transition_grid_two_sorts():
    p = elt_list_problem()
    grid = transition_grid(p, state_ranges_for(p, {"elt": 1, "list": 2}))
    assert grid == [
        ("e1", ()),
        ("e2", ()),
        ("nil", ()),
        ("cons", (1, 2)),
        ("cons", (1, 3)),
    ]


def test_run_term(even_odd_automaton):
    assert run_term(even_odd_automaton, nat(0)) == 2
    assert run_term(even_odd_automaton, nat(1)) == 1
    assert run_term(even_odd_automaton, nat(2)) == 2
    assert run_term(even_odd_automaton, nat(5)) == 1
    with pytest.raises(ValueError):
        run_term(even_odd_automaton, Var("X", "nat"))


def test_check_automaton_accepts(even_odd_automaton, nat_problem):
    assert check_automaton(even_odd_automaton, nat_problem) == []


def test_check_automaton_rejects(nat_problem):
    missing = TreeAutomaton((("nat", 1, 2),), {("z", ()): 2, ("s", (1,)): 2})
    assert any("missing" in e for e in check_automaton(missing, nat_problem))

    stray = TreeAutomaton(
        (("nat", 1, 1),),
        {("z", ()): 1, ("s", (1,)): 1, ("s", (2,)): 1},
    )
    assert any("outside the signature grid" in e for e in check_automaton(stray, nat_problem))

    bad_target = TreeAutomaton(
        (("nat", 1, 2),),
        {("z", ()): 3, ("s", (1,)): 2, ("s", (2,)): 1},
    )
    assert check_automaton(bad_target, nat_problem) != []

    bad_range = TreeAutomaton(
        (("nat", 2, 3),),
        {("z", ()): 2, ("s", (2,)): 3, ("s", (3,)): 2},
    )
    assert any("contiguous" in e for e in check_automaton(bad_range, nat_problem))


def test_inhabitation_many(even_odd_automaton):
    assert inhabitation(even_odd_automaton) == {1: MANY, 2: MANY}


def test_inhabitation_empty_and_one():
    # State 2 is unreachable: everything funnels into state 1.
    a = TreeAutomaton(
        (("nat", 1, 2),),
        {("z", ()): 1, ("s", (1,)): 1, ("s", (2,)): 1},
    )
    assert inhabitation(a) == {1: MANY, 2: EMPTY}

    # L(3) = {nil} exactly; lists with at least one cons land in 4.
    p = elt_list_problem()
    b = TreeAutomaton(
        (("elt", 1, 2), ("list", 3, 4)),
        {
            ("e1", ()): 1,
            ("e2", ()): 2,
            ("nil", ()): 3,
            ("cons", (1, 3)): 4,
            ("cons", (1, 4)): 4,
            ("cons", (2, 3)): 4,
            ("cons", (2, 4)): 4,
        },
    )
    assert check_automaton(b, p) == []
    inh = inhabitation(b)
    assert inh == {1: ONE, 2: ONE, 3: ONE, 4: MANY}


def test_an_empty_argument_empties_a_transition_after_a_many_one():
    # Both constants reach 1, so 1 accepts many terms; 3 only reaches itself
    # through cons(1, 3), whose product must stay empty.
    c = TreeAutomaton(
        (("elt", 1, 1), ("list", 2, 3)),
        {("e1", ()): 1, ("e2", ()): 1, ("nil", ()): 2, ("cons", (1, 2)): 2, ("cons", (1, 3)): 3},
    )
    assert check_automaton(c, elt_list_problem()) == []
    assert inhabitation(c) == {1: MANY, 2: MANY, 3: EMPTY}


def test_diff_approx_cases(even_odd_automaton):
    # Distinct inhabited states accept disjoint languages.
    inh = inhabitation(even_odd_automaton)
    assert diff_approx(even_odd_automaton, 1, 2, inh)
    # A state with at least two terms can differ from itself.
    assert diff_approx(even_odd_automaton, 1, 1, inh)

    a = TreeAutomaton(
        (("nat", 1, 2),),
        {("z", ()): 1, ("s", (1,)): 1, ("s", (2,)): 1},
    )
    # No term ever reaches state 2, so no differing pair exists.
    assert not diff_approx(a, 1, 2, inhabitation(a))
    assert not diff_approx(a, 2, 2, inhabitation(a))

    p = elt_list_problem()
    b = TreeAutomaton(
        (("elt", 1, 2), ("list", 3, 4)),
        {
            ("e1", ()): 1,
            ("e2", ()): 2,
            ("nil", ()): 3,
            ("cons", (1, 3)): 4,
            ("cons", (1, 4)): 4,
            ("cons", (2, 3)): 4,
            ("cons", (2, 4)): 4,
        },
    )
    # Singleton language: a term reaching 3 only ever equals itself.
    inh = inhabitation(b)
    assert not diff_approx(b, 3, 3, inh)
    assert diff_approx(b, 3, 4, inh)
    assert diff_approx(b, 4, 4, inh)


def test_check_tables(even_odd_automaton, nat_problem):
    good = {"even": {(2,)}, "odd": {(1,)}, "plus": {(1, 1, 2)}}
    assert check_tables(good, even_odd_automaton, nat_problem) == []
    assert any(
        "outside sort" in e
        for e in check_tables(
            {"even": {(3,)}, "odd": set(), "plus": set()},
            even_odd_automaton,
            nat_problem,
        )
    )
    assert any(
        "arity" in e
        for e in check_tables(
            {"even": {(1, 2)}, "odd": set(), "plus": set()},
            even_odd_automaton,
            nat_problem,
        )
    )
    assert any(
        "missing table" in e
        for e in check_tables({"even": {(2,)}}, even_odd_automaton, nat_problem)
    )


# ---------------------------------------------------------------------------
# diff_approx soundness against the languages up to depth 4.


def nat_automaton_strategy(n_states):
    grid = [("z", ())] + [("s", (q,)) for q in range(1, n_states + 1)]
    return st.tuples(
        *[st.integers(min_value=1, max_value=n_states) for _ in grid]
    ).map(
        lambda targets: TreeAutomaton(
            (("nat", 1, n_states),),
            {slot: t for slot, t in zip(grid, targets)},
        )
    )


@given(st.integers(min_value=1, max_value=3).flatmap(nat_automaton_strategy))
@settings(max_examples=60, deadline=None)
def test_diff_approx_sound_on_random_nat_automata(a):
    inh = inhabitation(a)
    terms = ground_terms(make_nat_problem(), "nat", 4)
    for q1 in a.all_states():
        for q2 in a.all_states():
            if diff_approx(a, q1, q2, inh):
                continue
            # False must certify: every pair of accepted terms is equal.
            for t1 in [t for t in terms if run_term(a, t) == q1]:
                for t2 in [t for t in terms if run_term(a, t) == q2]:
                    assert t1 == t2
