"""The generated plan code against the interpreter it replaces in the
engine, _solutions, also when the code is chained through functions
nesting one loop each, and the sharing of that code; a ground join wider
than CPython nests loops against the brute-force reference."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regmod import plancode
from regmod.automaton import TreeAutomaton, state_ranges_for, transition_grid
from regmod.core import App, Atom, Clause, PredicateDecl, Problem, Var
from regmod.driver import outcome_to_json, solve
from regmod.frontend import parse_problem
from regmod.interpretation import (
    ClausePlans,
    FixpointEngine,
    _solutions,
    check_model,
    least_tables,
    violated_goal,
)
from tests.conftest import Z, make_nat_problem
from tests.test_frontend import small_problems
from tests.test_ground_oracle import check_against_reference, joined_problems
from tests.test_interpretation import FIXTURES


# Repeated variables, which FIXTURES lack and the random problems seldom
# have: r(x, x) and x = s(x) make joins and seeds compare a row's positions.
REPEATED = parse_problem("""
(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))
(declare-fun p (nat) Bool)
(declare-fun r (nat nat) Bool)
(assert (p z))
(assert (forall ((x nat)) (=> (p x) (r x x))))
(assert (forall ((x nat)) (=> (p x) (r x (s x)))))
(assert (forall ((x nat) (y nat)) (=> (and (r x y) (r y y)) (p (s y)))))
(assert (forall ((x nat)) (=> (and (r x x) (= x (s x))) false)))
(check-sat)
""")


def seeds(engine, trigger):
    """The facts a plan fired by the trigger is seeded with."""
    kind, name = trigger
    if kind == "pred":
        return sorted(engine.tables[name])
    if kind == "enum":
        return sorted(args + (q,) for (c, args), q in engine.automaton.delta.items() if c == name)
    return [()]


def assert_runners_match(plans, engine):
    variants = [(plan, ()) for plan in plans.seeded.ground_goals]
    for trigger, fired in plans.seeded.triggers.items():
        variants += [(plan, fact) for plan in fired for fact in seeds(engine, trigger)]
    for plan, fact in variants:
        reference = [tuple(sigma) for sigma in _solutions(plan, engine, fact)]
        everything = tuple(range(plan.flat.n_vars))
        run = plancode.compiled(plan.steps, everything)
        assert list(run(engine, fact)) == reference
        out = everything if plan.flat.head is None else plan.flat.head[1]
        assert list(plan.runner(engine, fact)) == [tuple(s[v] for v in out) for s in reference]


PROBLEMS = st.one_of(st.sampled_from(FIXTURES + [REPEATED]), small_problems(), joined_problems())


def check_runners_on_random_states(problem, data):
    plans = ClausePlans(problem)
    ranges = state_ranges_for(problem, data.draw(st.integers(1, 3), label="states"))
    grid = transition_grid(problem, ranges)
    engine = FixpointEngine(plans, TreeAutomaton(ranges, {}))
    delta = engine.automaton.delta
    marks = []
    assert_runners_match(plans, engine)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        free = [slot for slot in grid if slot not in delta]
        if free and (not marks or data.draw(st.booleans(), label="push")):
            slot = data.draw(st.sampled_from(free), label="slot")
            sort = problem.constructor(slot[0])[1]
            q = data.draw(st.sampled_from(engine.automaton.states_of(sort)), label="target")
            marks.append(engine.push(slot, q))
        else:
            k = data.draw(st.integers(0, len(marks) - 1), label="pop to")
            engine.pop(marks[k])
            del marks[k:]
        assert_runners_match(plans, engine)


@given(PROBLEMS, st.data())
@settings(max_examples=100, deadline=None)
def test_generated_code_yields_what_the_interpreter_yields(problem, data):
    check_runners_on_random_states(problem, data)


@given(PROBLEMS, st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chained_generated_code_yields_what_the_interpreter_yields(chained, problem, data):
    check_runners_on_random_states(problem, data)


def wide_problem(width):
    """q(x1) <= p(x1), ..., p(x_width) beside p(z) and the goal
    q(x) => false: the plans of the second clause nest up to width loops,
    each over the one row of p."""
    xs = [Var("X%d" % i, "nat") for i in range(width)]
    return Problem(
        make_nat_problem().sorts,
        (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",))),
        (
            Clause(Atom("p", (Z,)), ()),
            Clause(Atom("q", (xs[0],)), tuple(Atom("p", (x,)) for x in xs)),
            Clause(None, (Atom("q", (xs[0],)),)),
        ),
    )


def run_engine(problem, slots):
    plans = ClausePlans(problem)
    a = TreeAutomaton(state_ranges_for(problem, 2), {})
    engine = FixpointEngine(plans, a)
    for slot, q in slots:
        engine.push(slot, q)
    return plans, engine


def head_rows(plan, engine):
    """The head rows _solutions gives for the whole plan of a definite clause."""
    return [tuple(sigma[v] for v in plan.flat.head[1]) for sigma in _solutions(plan, engine)]


def test_a_plan_nesting_more_loops_than_cpython_compiles_runs_as_chained_functions():
    problem = wide_problem(30)
    plans, engine = run_engine(problem, [(("z", ()), 1), (("s", (1,)), 2), (("s", (2,)), 1)])
    wide = plans.clauses[1]
    assert sum(step[0] == "pred" for step in wide.steps) == 30 > plancode.LOOPS
    assert list(wide.runner(engine, ())) == head_rows(wide, engine) == [(1,)]
    assert engine.tables == least_tables(engine.automaton, problem) == {"p": {(1,)}, "q": {(1,)}}
    assert engine.hit == violated_goal(engine.automaton, engine.tables, plans) == (2, (1,))


def test_a_long_chain_of_tests_compiles_flat():
    # q(s^250(x)) <= p(x): one loop, then 250 transitions looked up in a row.
    x = Var("X", "nat")
    deep = x
    for _ in range(250):
        deep = App("s", (deep,))
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",))),
        (Clause(Atom("p", (Z,)), ()), Clause(Atom("q", (deep,)), (Atom("p", (x,)),))),
    )
    plans, engine = run_engine(problem, [(("z", ()), 1), (("s", (1,)), 2), (("s", (2,)), 1)])
    chain = plans.clauses[1]
    assert list(chain.runner(engine, ())) == head_rows(chain, engine) == [(1,)]
    assert engine.tables == least_tables(engine.automaton, problem) == {"p": {(1,)}, "q": {(1,)}}


def test_plans_of_one_shape_share_one_runner():
    problem = FIXTURES[0]
    first, second = ClausePlans(problem), ClausePlans(problem)
    for plans in (first, second):
        FixpointEngine(plans, TreeAutomaton(state_ranges_for(problem, 2), {}))
    pairs = list(zip(first.clauses, second.clauses))
    for trigger, fired in first.seeded.triggers.items():
        pairs += zip(fired, second.seeded.triggers[trigger])
    assert pairs
    for a, b in pairs:
        assert a is not b and a.steps == b.steps
        assert a.runner is b.runner


def test_the_certifier_never_runs_generated_code(monkeypatch):
    def refuse(steps, out):
        raise AssertionError("generated code built for a reference check")

    monkeypatch.setattr(plancode, "compiled", refuse)
    for problem in FIXTURES:
        plans = ClausePlans(problem)
        a = TreeAutomaton(state_ranges_for(problem, 2), {})
        for slot in transition_grid(problem, a.state_ranges):
            a.delta[slot] = a.states_of(problem.constructor(slot[0])[1])[0]
        tables = least_tables(a, problem, plans)
        check_model(a, tables, problem, plans)
        violated_goal(a, tables, plans)
    # The engine does build it: the patch sits where the code is built.
    with pytest.raises(AssertionError, match="generated code"):
        run_engine(make_nat_problem(), [(("z", ()), 1)])


def wide_unsat(width):
    """What solve answers on wide_problem(width): q(z) is derived at
    depth 1 from width copies of p(z), and the goal names it."""
    leaf = {"atom": "p(z)", "clause": 0, "substitution": {}, "children": []}
    return {
        "log": [{"phase": "counterexample", "bound": 1, "verdict": "found"}],
        "verdict": "unsat",
        "goal_clause": 2,
        "substitution": {"X0": "z"},
        "proofs": [{
            "atom": "q(z)",
            "clause": 1,
            "substitution": {"X%d" % i: "z" for i in range(width)},
            "children": [leaf] * width,
        }],
    }


@pytest.mark.parametrize("width", [30, 200])
def test_a_ground_join_wider_than_cpython_nests_loops_runs_chained(width):
    problem = wide_problem(width)
    doc = outcome_to_json(*solve(problem))
    for event in doc["log"]:
        del event["seconds"]
    assert doc == wide_unsat(width)
    check_against_reference(problem, 0)
