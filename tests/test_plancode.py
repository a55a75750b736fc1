"""The generated plan code against the interpreter it replaces in the
engine, _solutions, also when the code is chained through functions
nesting one loop each: a goal's code yields what _solutions yields, and a
definite plan's code files, in order, the new rows _solutions finds on
the state it fires in.  Then the sharing of that code, the ground joins
bound once per depth to code that reads nothing of the model, and a
ground join wider than CPython nests loops against the brute-force
reference."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regmod import plancode
from regmod.automaton import TreeAutomaton, state_ranges_for, transition_grid
from regmod.benchmarks import gen_member_rev
from regmod.core import App, Atom, Clause, GroundPlan, PredicateDecl, Problem, Var, ground_least_model
from regmod.driver import outcome_to_json, solve
from regmod.frontend import parse_problem
from regmod.interpretation import (
    ClausePlans,
    FixpointEngine,
    _solutions,
    check_model,
    least_tables,
)
from regmod.native import search_model
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

# Nullary predicates, which FIXTURES lack: a join over go and plans seeded
# on it unpack a row of no positions, and stop is derived as a head.
NULLARY = parse_problem("""
(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))
(declare-fun p (nat) Bool)
(declare-fun go () Bool)
(declare-fun stop () Bool)
(assert (p z))
(assert (go))
(assert (forall ((x nat)) (=> (and (p x) (go)) (p (s (s x))))))
(assert (forall ((x nat)) (=> (and (go) (p (s x))) (stop))))
(assert (forall ((x nat)) (=> (and (stop) (p x) (= x (s x))) false)))
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


def runner(plan, engine):
    """The plan's generated code in a goal's form, bound to the engine: a
    generator of the seed yielding every variable's state per solution."""
    return plancode.compiled(plan.steps, tuple(range(plan.flat.n_vars)))(engine)


def assert_runners_match(plans, engine):
    variants = [(plan, ()) for plan in plans.seeded.goals]
    for trigger, fired in plans.seeded.triggers.items():
        variants += [(plan, fact) for plan in fired for fact in seeds(engine, trigger)]
    for plan, fact in variants:
        reference = [tuple(sigma) for sigma in _solutions(plan, engine, fact)]
        assert list(runner(plan, engine)(fact)) == reference


def reference_rows(engine, plan, fact):
    """The new head rows _solutions yields for the definite plan seeded on
    fact, each filed as it is found, through key_of getters, as the engine
    filed them before its plans fired and filed; the engine is put back."""
    pred, vs = plan.flat.head
    mark, rows, new = len(engine.trail), engine.tables[pred], []
    for sigma in _solutions(plan, engine, fact):
        row = tuple(sigma[v] for v in vs)
        if row not in rows:
            rows.add(row)
            for rel, index in engine.indexes.items():
                if rel[:2] == ("pred", pred):
                    index.setdefault(plancode.key_of(rel[2])(row), []).append(row)
            engine.trail.append((("pred", pred), row))
            new.append(row)
    engine.pop(mark)
    return new


def checked_engine(plans, automaton):
    """A FixpointEngine whose definite plans, each time they fire after
    its start, are checked against reference_rows on the state they fire
    in: they must file the same rows, in the same order, and put each on
    the trail once.  Returns the engine and the rows of
    each firing checked."""
    engine = FixpointEngine(plans, automaton)
    firings = []

    def checked(plan, fire):
        def run(fact):
            expected = reference_rows(engine, plan, fact)
            mark = len(engine.trail)
            fire(fact)
            assert engine.trail[mark:] == [(("pred", plan.flat.head[0]), row) for row in expected]
            firings.append(expected)
        return run

    for trigger, bound in engine._fired.items():
        fired = plans.seeded.triggers[trigger]
        bound[:] = [checked(plan, fire) for plan, fire in zip(fired, bound)]
    return engine, firings


PROBLEMS = st.one_of(st.sampled_from(FIXTURES + [REPEATED, NULLARY]), small_problems(), joined_problems())


def check_runners_on_random_states(problem, data):
    plans = ClausePlans(problem)
    ranges = state_ranges_for(problem, data.draw(st.integers(1, 3), label="states"))
    grid = transition_grid(problem, ranges)
    engine, _ = checked_engine(plans, TreeAutomaton(ranges, {}))
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


def check_firings_under_a_model(problem, n_states):
    """Pushes the transitions of the problem's model at the cap into a
    checked engine, whose plans file many rows per firing."""
    plans = ClausePlans(problem)
    model, _ = search_model(problem, n_states, plans)
    engine, firings = checked_engine(plans, TreeAutomaton(model.state_ranges, {}))
    for slot, q in model.delta.items():
        engine.push(slot, q)
    assert engine.tables == least_tables(engine.automaton, problem)
    assert max(map(len, firings)) > 1 and sum(map(len, firings)) > 50


# The random states above seldom fire a plan that files several rows;
# member-rev(3) under its model's transitions does, many times.
def test_fired_plans_file_the_rows_the_interpreter_derives():
    check_firings_under_a_model(gen_member_rev(3), 8)


def test_chained_fired_plans_file_the_rows_the_interpreter_derives(chained):
    check_firings_under_a_model(gen_member_rev(3), 8)


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
    engine, _ = checked_engine(plans, a)
    for slot, q in slots:
        engine.push(slot, q)
    return plans, engine


def head_rows(plan, engine):
    """The head rows _solutions gives for the whole plan of a definite clause."""
    return [tuple(sigma[v] for v in plan.flat.head[1]) for sigma in _solutions(plan, engine)]


def generated_head_rows(plan, engine):
    return [tuple(sigma[v] for v in plan.flat.head[1]) for sigma in runner(plan, engine)(())]


def test_a_plan_nesting_more_loops_than_cpython_compiles_runs_as_chained_functions():
    problem = wide_problem(30)
    plans, engine = run_engine(problem, [(("z", ()), 1), (("s", (1,)), 2), (("s", (2,)), 1)])
    wide = plans.clauses[1]
    assert sum(step[0] == "pred" for step in wide.steps) == 30 > plancode.LOOPS
    assert generated_head_rows(wide, engine) == head_rows(wide, engine) == [(1,)]
    assert engine.tables == least_tables(engine.automaton, problem) == {"p": {(1,)}, "q": {(1,)}}
    violation = check_model(engine.automaton, engine.tables, problem, plans)
    assert engine.hit == (violation.clause_index, violation.assignment) == (2, (1,))


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
    assert generated_head_rows(chain, engine) == head_rows(chain, engine) == [(1,)]
    assert engine.tables == least_tables(engine.automaton, problem) == {"p": {(1,)}, "q": {(1,)}}


def test_plans_of_one_shape_share_one_runner():
    # Two engines over two ClausePlans of one problem run one compiled
    # code object per plan shape.
    problem = FIXTURES[0]
    first, second = [
        FixpointEngine(ClausePlans(problem), TreeAutomaton(state_ranges_for(problem, 2), {})) for _ in range(2)
    ]
    pairs = list(zip(first._goals, second._goals))
    for trigger, fired in first._fired.items():
        pairs += [((trigger, a), (trigger, b)) for a, b in zip(fired, second._fired[trigger])]
    assert len(pairs) > len(first._goals)
    for (a_key, a), (b_key, b) in pairs:
        assert a_key == b_key
        assert a is not b
        assert a.__code__ is b.__code__


def test_ground_models_bind_each_join_once_per_depth():
    # Two depths of one GroundPlan bind each clause's make once each, however
    # often their joins fire, to runners of one code object per clause.
    problem = gen_member_rev(3)
    plan = GroundPlan(problem)
    makes = [make for _, _, make, *_ in plan.definite] + [make for _, make, *_ in plan.goals]
    calls = []

    def counted(make):
        def bind(db):
            calls.append(make)
            return make(db)
        return bind

    plan.definite = [(idx, pred, counted(make), *rest) for idx, pred, make, *rest in plan.definite]
    plan.goals = [(idx, counted(make), *rest) for idx, make, *rest in plan.goals]
    models = [ground_least_model(problem, depth, plan=plan)[0] for depth in (2, 3)]
    assert calls == makes * 2
    assert len(models[1]) > len(models[0]) > 0
    for a, b in zip(models[0].fires + models[0].goals, models[1].fires + models[1].goals):
        assert a is not b
        assert a.__code__ is b.__code__


@pytest.mark.parametrize("problem", FIXTURES + [REPEATED, NULLARY, gen_member_rev(3)])
def test_a_bound_ground_join_reads_nothing_of_its_store(monkeypatch, problem):
    # make(db) reads the store once; run0 and what it chains to never do.
    texts = []
    define = plancode._define

    def recorded(text, **names):
        texts.append(text)
        return define(text, **names)

    monkeypatch.setattr(plancode, "_define", recorded)
    plancode.ground_join.cache_clear()
    try:
        GroundPlan(problem)
    finally:
        plancode.ground_join.cache_clear()
    assert len(texts) == len(problem.clauses)
    for text in texts:
        assert text.startswith("def make(db):\n")
        assert "db." not in text[text.index(" def run0("):]


def test_the_certifier_never_runs_generated_code(monkeypatch):
    def refuse(writer, *shape):
        raise AssertionError("generated code built for a reference check")

    monkeypatch.setattr(plancode, "compiled", refuse)
    for problem in FIXTURES:
        plans = ClausePlans(problem)
        a = TreeAutomaton(state_ranges_for(problem, 2), {})
        for slot in transition_grid(problem, a.state_ranges):
            a.delta[slot] = a.states_of(problem.constructor(slot[0])[1])[0]
        tables = least_tables(a, problem, plans)
        check_model(a, tables, problem, plans)
    # The engine does build it: the patch sits where all its code is built.
    with pytest.raises(AssertionError, match="generated code"):
        run_engine(make_nat_problem(), [(("z", ()), 1)])


def wide_unsat(width):
    """What solve answers on wide_problem(width): q(z) is derived at
    depth 1 from width copies of p(z), one step, and the goal names it."""
    return {
        "log": [{"phase": "counterexample", "bound": 1, "verdict": "found", "work": 4}],
        "verdict": "unsat",
        "goal_clause": 2,
        "substitution": {"X0": "z"},
        "premises": [1],
        "steps": [
            {"atom": "p(z)", "clause": 0, "substitution": {}, "premises": []},
            {
                "atom": "q(z)",
                "clause": 1,
                "substitution": {"X%d" % i: "z" for i in range(width)},
                "premises": [0] * width,
            },
        ],
    }


@pytest.mark.parametrize("width", [30, 200])
def test_a_ground_join_wider_than_cpython_nests_loops_runs_chained(width):
    problem = wide_problem(width)
    doc = outcome_to_json(*solve(problem))
    for event in doc["log"]:
        del event["seconds"]
    assert doc == wide_unsat(width)
    check_against_reference(problem, 0)
