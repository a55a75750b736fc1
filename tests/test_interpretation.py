import itertools
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod.automaton import (
    TreeAutomaton,
    inhabitation,
    state_ranges_for,
    transition_grid,
)
from regmod.benchmarks import gen_member_rev
from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    Diseq,
    Eq,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
    ground_least_model,
)
from regmod import interpretation
from regmod.driver import Sat, SolveOptions, solve
from regmod.frontend import parse_problem
from regmod.interpretation import (
    ClausePlans,
    FixpointEngine,
    ModelViolation,
    check_model,
    flatten,
    interpret_atom,
    least_tables,
)
from regmod.native import enumerate_automata
from tests.conftest import X, Z, make_nat_problem, nat, s
from tests.test_frontend import small_problems
from tests.test_ground_oracle import joined_problems


@pytest.fixture
def even_odd_automaton():
    return TreeAutomaton(
        (("nat", 1, 2),),
        {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1},
    )


EVEN_ODD_PLUS_TABLES = {
    "even": {(2,)},
    "odd": {(1,)},
    "plus": {(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)},
}


# ---------------------------------------------------------------------------
# Flattening


def test_flatten_step_clause(nat_problem):
    flat = flatten(nat_problem, nat_problem.clauses[1])  # even(s(X)) :- odd(X)
    assert flat.pred_literals == (("odd", (0,)),)
    assert flat.transitions == (("s", (0,), 1),)
    assert flat.head == ("even", (1,))
    assert flat.generators == ()
    assert flat.var_sorts == ("nat", "nat")


def test_flatten_fact_with_generator(nat_problem):
    flat = flatten(nat_problem, nat_problem.clauses[3])  # plus(z, Y, Y)
    assert flat.pred_literals == ()
    assert flat.transitions == (("z", (), 0),)
    assert flat.head == ("plus", (0, 1, 1))
    # Y is constrained by nothing but its sort.
    assert flat.generators == (1,)


def test_flatten_recursive_clause(nat_problem):
    flat = flatten(nat_problem, nat_problem.clauses[4])
    assert flat.pred_literals == (("plus", (0, 1, 2)),)
    assert flat.transitions == (("s", (0,), 3), ("s", (2,), 4))
    assert flat.head == ("plus", (3, 1, 4))
    assert flat.generators == ()


def test_flatten_goal(nat_problem):
    flat = flatten(nat_problem, nat_problem.clauses[5])
    assert flat.head is None
    assert flat.pred_literals == (
        ("even", (0,)),
        ("even", (1,)),
        ("plus", (0, 1, 2)),
        ("odd", (2,)),
    )
    assert flat.generators == ()


def test_flatten_equation_merges(nat_problem):
    x = Var("X", "nat")
    y = Var("Y", "nat")
    clause = Clause(
        Atom("even", (x,)),
        (Atom("odd", (x,)), Eq(x, s(y))),
    )
    flat = flatten(nat_problem, clause)
    # X and the s(Y) occurrence collapse to one variable.
    assert flat.pred_literals == (("odd", (0,)),)
    assert flat.transitions == (("s", (1,), 0),)
    assert flat.head == ("even", (0,))


def test_flatten_diseq(nat_problem):
    x = Var("X", "nat")
    y = Var("Y", "nat")
    clause = Clause(None, (Atom("even", (x,)), Atom("even", (y,)), Diseq(x, y)))
    flat = flatten(nat_problem, clause)
    assert flat.diseqs == ((0, 1),)
    assert flat.generators == ()


def test_flatten_equation_only_variable(nat_problem):
    # A variable used only inside an equation still gets a slot.
    x = Var("X", "nat")
    y = Var("Y", "nat")
    clause = Clause(Atom("even", (x,)), (Eq(x, y),))
    flat = flatten(nat_problem, clause)
    assert flat.var_sorts == ("nat",)
    assert flat.head == ("even", (0,))
    assert flat.generators == (0,)


# ---------------------------------------------------------------------------
# Least tables, checked against the hand-computed fixpoint.


def test_least_tables_even_odd_automaton(even_odd_automaton, nat_problem):
    assert least_tables(even_odd_automaton, nat_problem) == EVEN_ODD_PLUS_TABLES


def test_least_tables_one_state_automaton(nat_problem):
    a = TreeAutomaton((("nat", 1, 1),), {("z", ()): 1, ("s", (1,)): 1})
    assert least_tables(a, nat_problem) == {
        "even": {(1,)},
        "odd": {(1,)},
        "plus": {(1, 1, 1)},
    }


def test_check_model_accepts_reference_model(even_odd_automaton, nat_problem):
    assert check_model(even_odd_automaton, EVEN_ODD_PLUS_TABLES, nat_problem) is None


def test_least_tables_is_minimal(even_odd_automaton, nat_problem):
    # Dropping any single row breaks closure of some definite clause.
    for pred, rows in EVEN_ODD_PLUS_TABLES.items():
        for row in rows:
            broken = {p: set(r) for p, r in EVEN_ODD_PLUS_TABLES.items()}
            broken[pred].discard(row)
            violation = check_model(even_odd_automaton, broken, nat_problem)
            assert violation is not None
            assert violation.kind == "closure"


def test_check_model_reports_goal_violation(nat_problem):
    a = TreeAutomaton((("nat", 1, 1),), {("z", ()): 1, ("s", (1,)): 1})
    tables = least_tables(a, nat_problem)
    violation = check_model(a, tables, nat_problem)
    assert violation is not None
    assert violation.kind == "goal"
    assert violation.clause_index == 5
    assert violation.assignment == (1, 1, 1)


def test_only_flat_generators_range_over_inhabited_states():
    # State 2 is uninhabited.  x in r(x) is a generator and ranges over
    # state 1 alone; x in r(s(x)) is under a constructor and ranges over
    # every state s has a transition from, as in the ASP encoding's rule/2.
    a = TreeAutomaton((("nat", 1, 2),), {("z", ()): 1, ("s", (1,)): 1, ("s", (2,)): 2})

    def fact(*args):
        return Problem(make_nat_problem().sorts, (PredicateDecl("r", ("nat",)),), (Clause(Atom("r", args), ()),))

    under_ctor, bare = fact(s(X)), fact(X)
    assert check_model(a, {"r": {(1,)}}, under_ctor) == ModelViolation(0, "closure", (2, 2))
    assert least_tables(a, under_ctor) == {"r": {(1,), (2,)}}
    assert least_tables(a, bare) == {"r": {(1,)}}
    assert check_model(a, {"r": {(1,)}}, bare) is None


def test_violated_goal_monotone_in_tables(nat_problem):
    # Over the goals alone check_model checks no closure, so it reads
    # tables below the fixpoint too: no goal holds on empty tables or
    # without odd, and the goal holds on the least tables.
    a = TreeAutomaton((("nat", 1, 1),), {("z", ()): 1, ("s", (1,)): 1})
    goals = Problem(nat_problem.sorts, nat_problem.predicates, nat_problem.clauses[5:])
    full = least_tables(a, nat_problem)
    assert check_model(a, {p: set() for p in full}, goals) is None
    assert check_model(a, dict(full, odd=set()), goals) is None
    violation = check_model(a, full, goals)
    assert violation is not None
    assert (violation.clause_index, violation.kind) == (0, "goal")


def test_goal_with_diseq_uses_diff_approx():
    # p(x), p(y), x != y => false.  With one state and one constant the
    # disequality cannot fire; with two constants funneled into one state
    # it must (the state accepts two terms).
    preds = (PredicateDecl("p", ("u",)),)
    x, y = Var("X", "u"), Var("Y", "u")
    goal = Clause(None, (Atom("p", (x,)), Atom("p", (y,)), Diseq(x, y)))
    fact = Clause(Atom("p", (x,)), ())

    one = Problem(
        (SortDecl("u", (Constructor("a"),)),), preds, (fact, goal)
    )
    a1 = TreeAutomaton((("u", 1, 1),), {("a", ()): 1})
    t1 = least_tables(a1, one)
    assert t1 == {"p": {(1,)}}
    assert check_model(a1, t1, one) is None

    two = Problem(
        (SortDecl("u", (Constructor("a"), Constructor("b"))),), preds, (fact, goal)
    )
    a2 = TreeAutomaton((("u", 1, 1),), {("a", ()): 1, ("b", ()): 1})
    t2 = least_tables(a2, two)
    violation = check_model(a2, t2, two)
    assert violation is not None and violation.kind == "goal"


def test_interpret_atom_overapproximates(even_odd_automaton):
    t = EVEN_ODD_PLUS_TABLES
    assert interpret_atom(even_odd_automaton, t, Atom("even", (nat(2),)))
    assert interpret_atom(even_odd_automaton, t, Atom("odd", (nat(3),)))
    assert not interpret_atom(even_odd_automaton, t, Atom("odd", (nat(0),)))
    # Not true in the least Herbrand model, but the regular model
    # over-approximates: 1+1=0 maps to the accepted tuple (1,1,2).
    assert interpret_atom(
        even_odd_automaton, t, Atom("plus", (nat(1), nat(1), nat(0)))
    )
    assert not interpret_atom(
        even_odd_automaton, t, Atom("plus", (nat(0), nat(0), nat(1)))
    )


# ---------------------------------------------------------------------------
# Soundness on random automata: the interpretation of the least tables
# contains the bounded ground least model.


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
@settings(max_examples=40, deadline=None)
def test_least_tables_model_definite_clauses(a):
    p = make_nat_problem()
    tables = least_tables(a, p)
    assert check_model(a, tables, p) is None


@given(st.integers(min_value=1, max_value=3).flatmap(nat_automaton_strategy))
@settings(max_examples=25, deadline=None)
def test_interpretation_contains_ground_model(a):
    p = make_nat_problem()
    tables = least_tables(a, p)
    atoms, _ = ground_least_model(p, 3)
    for atom in atoms:
        assert interpret_atom(a, tables, atom)


# ---------------------------------------------------------------------------
# The fixpoint engine against the naive reference, under random pushes and
# pops of grid slots.

FIXTURES = [
    parse_problem(path.read_text())
    for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.smt2"))
]


def engine_state(engine):
    indexes = {
        rel: {key: list(rows) for key, rows in index.items() if rows}
        for rel, index in engine.indexes.items()
    }
    tables = {p: set(rows) for p, rows in engine.tables.items()}
    into = {q: list(args) for q, args in engine.into.items()}
    users = {q: list(targets) for q, targets in engine.users.items()}
    return dict(engine.automaton.delta), tables, dict(engine.inh), indexes, into, users


# joined_problems gives goals with several solutions, which small_problems
# rarely does.
@given(st.one_of(st.sampled_from(FIXTURES), small_problems(), joined_problems()), st.data())
@settings(max_examples=120, deadline=None)
def test_engine_matches_naive_reference(problem, data):
    plans = ClausePlans(problem)
    ranges = state_ranges_for(problem, data.draw(st.integers(1, 3), label="states"))
    grid = transition_grid(problem, ranges)
    a = TreeAutomaton(ranges, {})
    engine = FixpointEngine(plans, a)
    # One entry per push: its trail mark and the state before it.
    pushed = []

    def check(had_hit=True):
        tables = least_tables(a, problem, plans)
        assert engine.tables == tables
        assert engine.inh == inhabitation(a)
        # At the fixpoint every closure holds, so check_model names the
        # first goal that holds, if any.
        reference = check_model(a, tables, problem, plans)
        assert (engine.hit is None) == (reference is None)
        if not had_hit and engine.hit is not None:
            # A hit found where there was none names the first goal in
            # clause order that holds.
            assert reference.kind == "goal"
            assert engine.hit[0] == reference.clause_index

    check(False)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        free = [slot for slot in grid if slot not in a.delta]
        if free and (not pushed or data.draw(st.booleans(), label="push")):
            slot = data.draw(st.sampled_from(free), label="slot")
            sort = problem.constructor(slot[0])[1]
            q = data.draw(st.sampled_from(a.states_of(sort)), label="target")
            before, had_hit = engine_state(engine), engine.hit is not None
            pushed.append((engine.push(slot, q), before))
            check(had_hit)
        else:
            k = data.draw(st.integers(0, len(pushed) - 1), label="pop to")
            mark, before = pushed[k]
            del pushed[k:]
            engine.pop(mark)
            assert len(engine.trail) == mark
            assert engine_state(engine) == before
            check()


def test_engine_refires_disequations_when_a_count_rises():
    # q(x) <= x != z: no transition of the clause changes when s(1) -> 2
    # makes state 2 inhabited, yet q(2) now follows.
    x = Var("X", "nat")
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("q", ("nat",)),),
        (
            Clause(Atom("q", (x,)), (Diseq(x, Z),)),
            Clause(None, (Atom("q", (x,)), Atom("q", (s(x),)))),
        ),
    )
    plans = ClausePlans(problem)
    a = TreeAutomaton(state_ranges_for(problem, 2), {})
    engine = FixpointEngine(plans, a)
    engine.push(("z", ()), 1)
    assert engine.tables == {"q": set()}
    assert engine.hit is None
    engine.push(("s", (1,)), 2)
    assert engine.tables == least_tables(a, problem) == {"q": {(2,)}}
    assert engine.hit is None
    engine.push(("s", (2,)), 2)
    assert engine.tables == least_tables(a, problem) == {"q": {(2,)}}
    assert engine.hit is not None


def test_a_new_hit_names_the_first_goal_in_clause_order():
    # p(z), q(x) <= p(x), goal 2 q(x) => false, goal 3 p(x) => false: after
    # z -> 1 both goals hold, and the hit names goal 2.
    x = Var("X", "nat")
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",))),
        (
            Clause(Atom("p", (Z,)), ()),
            Clause(Atom("q", (x,)), (Atom("p", (x,)),)),
            Clause(None, (Atom("q", (x,)),)),
            Clause(None, (Atom("p", (x,)),)),
        ),
    )
    plans = ClausePlans(problem)
    a = TreeAutomaton(state_ranges_for(problem, 2), {})
    engine = FixpointEngine(plans, a)
    assert engine.hit is None
    mark = engine.push(("z", ()), 1)
    violation = check_model(a, engine.tables, problem, plans)
    assert engine.hit == (violation.clause_index, violation.assignment) == (2, (1,))
    engine.pop(mark)
    assert engine.hit is None


def test_seeded_variants_are_compiled_for_an_engine_only(even_odd_automaton, nat_problem):
    plans = ClausePlans(nat_problem)
    assert check_model(even_odd_automaton, EVEN_ODD_PLUS_TABLES, nat_problem, plans) is None
    assert "seeded" not in vars(plans)
    FixpointEngine(plans, TreeAutomaton(state_ranges_for(nat_problem, 2), {}))
    assert plans.seeded.triggers and "seeded" in vars(plans)


def fired_relations(plans):
    """The relations that the steps of the plans an engine fires join."""
    seeded = plans.seeded
    fired = list(seeded.goals) + [plan for ps in seeded.triggers.values() for plan in ps]
    return {step[1] for plan in fired for step in plan.steps if step[0] in ("pred", "enum")}


@pytest.mark.parametrize("problem", FIXTURES + [gen_member_rev(k) for k in (1, 2, 3)])
def test_the_engine_indexes_exactly_what_its_fired_plans_read(problem):
    plans = ClausePlans(problem)
    engine = FixpointEngine(plans, TreeAutomaton(state_ranges_for(problem, 1), {}))
    assert set(engine.indexes) == fired_relations(plans)
    if "revAcc" in engine.tables:
        # Only the whole plans of member-rev's definite clauses, which no
        # trigger fires, read these.
        assert not {("enum", "cons", ()), ("pred", "revAcc", ())} & set(engine.indexes)


def test_unsat_at_the_first_bound_compiles_no_seeded_variant(monkeypatch):
    from regmod import driver

    built = []

    def recording(problem):
        built.append(ClausePlans(problem))
        return built[-1]

    monkeypatch.setattr(driver, "ClausePlans", recording)
    path = Path(__file__).resolve().parent.parent / "problems" / "diseq_pair_unsat.smt2"
    problem = parse_problem(path.read_text())
    outcome, log = driver.solve(problem)
    assert isinstance(outcome, driver.Unsat) and len(log) == 1
    assert len(built) == 1 and "seeded" not in vars(built[0])


def test_ground_goals_are_checked_whole():
    # even(s(s(z))) => false, a goal without variables, gets no seeded
    # variant, and the engine tries it whole at the end of every saturation.
    even_z = Clause(Atom("even", (Z,)), ())
    even_ss = Clause(Atom("even", (s(s(Var("X", "nat"))),)), (Atom("even", (Var("X", "nat"),)),))
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("even", ("nat",)),),
        (even_z, even_ss, Clause(None, (Atom("even", (nat(2),)),))),
    )
    plans = ClausePlans(problem)
    assert [p.clause_index for p in plans.seeded.goals] == [2]
    assert all(p.clause_index != 2 for ps in plans.seeded.triggers.values() for p in ps)
    a = TreeAutomaton(state_ranges_for(problem, 2), {})
    engine = FixpointEngine(plans, a)
    engine.push(("z", ()), 1)
    assert engine.hit is None
    engine.push(("s", (1,)), 2)
    assert engine.hit is None
    mark = engine.push(("s", (2,)), 1)  # s(s(z)) reaches 1, where even holds
    assert engine.hit is not None
    engine.pop(mark)
    assert engine.hit is None


def test_a_join_free_definite_plan_fires_whole_once_per_constructor():
    # The fact p(s^254(z)) has 255 transitions and joins nothing: each of
    # its constructors' triggers holds its whole plan once, not a seeded
    # variant per transition, and the row is filed when the term first runs.
    problem = Problem(
        make_nat_problem().sorts, (PredicateDecl("p", ("nat",)),), (Clause(Atom("p", (nat(254),)), ()),)
    )
    plans = ClausePlans(problem)
    assert plans.seeded.triggers == {("enum", "z"): plans.clauses, ("enum", "s"): plans.clauses}
    engine = FixpointEngine(plans, TreeAutomaton(state_ranges_for(problem, 2), {}))
    engine.push(("z", ()), 1)
    engine.push(("s", (1,)), 2)
    assert engine.tables == {"p": set()}
    engine.push(("s", (2,)), 1)
    assert engine.tables == least_tables(engine.automaton, problem) == {"p": {(1,)}}


# ---------------------------------------------------------------------------
# The snapshot's index against sorting and filtering the whole relation on
# every lookup.


class SortPerLookup(interpretation._Snapshot):
    """The reference lookup: every join sorts the whole relation and
    filters it."""

    def lookup(self, rel, key):
        kind, name, mask = rel
        if kind == "pred":
            rows = sorted(self.tables.get(name, ()))
        else:
            rows = sorted(args + (q,) for (c, args), q in self.automaton.delta.items() if c == name)
        return [r for r in rows if all(r[p] == k for p, k in zip(mask, key))]


def by_reference(check, *args):
    with mock.patch.object(interpretation, "_Snapshot", SortPerLookup):
        return check(*args)


@given(st.one_of(small_problems(), joined_problems()), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_the_index_gives_the_reference_answers(problem, cap, skip):
    plans = ClausePlans(problem)
    for a in itertools.islice(enumerate_automata(problem, cap), skip, skip + 3):
        tables = least_tables(a, problem, plans)
        assert tables == by_reference(least_tables, a, problem, plans)
        cases = [tables] + [
            {**tables, pred: tables[pred] - {row}} for pred in sorted(tables) for row in sorted(tables[pred])
        ]
        for case in cases:
            # The same violation, assignment included, or None for both.
            assert check_model(a, case, problem, plans) == by_reference(check_model, a, case, problem, plans)


@pytest.mark.parametrize("k", [1, 2])
def test_one_model_check_sorts_each_relation_once(monkeypatch, k):
    problem = gen_member_rev(k)
    plans = ClausePlans(problem)
    outcome, _ = solve(problem, SolveOptions(max_states=4 * k))
    assert isinstance(outcome, Sat)
    relations = {step[1] for plan in plans.clauses for step in plan.steps if step[0] in ("pred", "enum")}
    sorts = []
    monkeypatch.setattr(interpretation, "sorted", lambda rows: sorts.append(1) or sorted(rows), raising=False)
    assert check_model(outcome.automaton, outcome.tables, problem, plans) is None
    assert 0 < len(sorts) <= len(relations)


# ---------------------------------------------------------------------------
# What the engine puts on its trail, pinned: per push, the entries it added
# and the hit after it, under a seeded walk of pushes and pops.

ENGINE_TRAILS = Path(__file__).parent / "golden" / "engine_trails.json"
FIXTURE_NAMES = [path.stem for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.smt2"))]


def engine_trail_cases():
    """(name, problem, cap): every problems/*.smt2 fixture and member-rev(1..3),
    each at caps 2 and 3."""
    problems = list(zip(FIXTURE_NAMES, FIXTURES))
    problems += [("member-rev(%d)" % k, gen_member_rev(k)) for k in (1, 2, 3)]
    return [(name, problem, cap) for name, problem in problems for cap in (2, 3)]


def trail_entries(engine, mark):
    return [[kind, name, list(row)] for (kind, name), row in engine.trail[mark:]]


def hit_json(hit):
    return None if hit is None else [hit[0], list(hit[1])]


def engine_trail(problem, cap, seed, steps=120):
    """The start's trail entries and hit, then per step of a seeded walk
    over the transition grid ["push", ctor, args, target, entries, hit] or
    ["pop", mark, hit]: each push takes a free slot, as
    test_engine_matches_naive_reference does, and a pop goes back to the
    mark of an earlier push."""
    rng = random.Random(seed)
    ranges = state_ranges_for(problem, cap)
    grid = transition_grid(problem, ranges)
    engine = FixpointEngine(ClausePlans(problem), TreeAutomaton(ranges, {}))
    delta = engine.automaton.delta
    marks = []
    record = [["start", trail_entries(engine, 0), hit_json(engine.hit)]]
    for _ in range(steps):
        free = [slot for slot in grid if slot not in delta]
        if free and (not marks or rng.random() < 0.8):
            ctor, args = slot = rng.choice(free)
            q = rng.choice(engine.automaton.states_of(problem.constructor(ctor)[1]))
            marks.append(engine.push(slot, q))
            record.append(["push", ctor, list(args), q, trail_entries(engine, marks[-1]), hit_json(engine.hit)])
        else:
            k = rng.randrange(len(marks))
            engine.pop(marks[k])
            record.append(["pop", marks[k], hit_json(engine.hit)])
            del marks[k:]
    return record


def engine_trails():
    return {
        "%s@%d" % (name, cap): engine_trail(problem, cap, seed)
        for seed, (name, problem, cap) in enumerate(engine_trail_cases())
    }


def test_engine_trails_match_golden():
    assert engine_trails() == json.loads(ENGINE_TRAILS.read_text())


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_interpretation writes the engine golden anew.
    cases = engine_trails()
    ENGINE_TRAILS.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: [\n%s\n]" % (json.dumps(key), ",\n".join(json.dumps(step) for step in steps))
        for key, steps in cases.items()
    ))
