import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EVEN_ODD_PLUS_MODEL_LINE,
    EVEN_ODD_PLUS_SCRIPT,
    make_nat_problem,
    nat,
    write_fake_solver,
    X,
    Y,
    W,
)
from regmod import core, driver, native
from regmod.asp import DecodeError, SolverConfig
from regmod.benchmarks import gen_member_rev
from regmod.core import (
    MAX_NESTING,
    Atom,
    BudgetExceeded,
    Clause,
    Derivation,
    GroundPlan,
    SearchTimeout,
    check_derivation,
    validate,
)
from regmod.driver import (
    CertificateError,
    DriverError,
    PhaseEvent,
    Sat,
    SolveOptions,
    Unknown,
    Unsat,
    count_models,
    outcome_to_json,
    render_outcome,
    solve,
    states_per_sort,
    trace_lines,
)
from regmod.frontend import parse_problem
from regmod.interpretation import least_tables
from tests.brute_force import has_model
from tests.test_core import SteppedClock
from tests.test_frontend import small_problems
from tests.test_ground_oracle import joined_problems


def nat_goal_problem():
    goal = Clause(
        None,
        (Atom("even", (X,)), Atom("even", (Y,)), Atom("plus", (X, Y, W)), Atom("odd", (W,))),
    )
    return make_nat_problem((goal,))


def shape(log):
    return [(e.phase, e.bound, e.verdict) for e in log]


def assert_even_odd_plus_model(outcome):
    """The even/odd/plus model is unique up to swapping the two states."""
    assert isinstance(outcome, Sat)
    assert states_per_sort(outcome.automaton) == {"nat": 2}
    delta = outcome.automaton.delta
    qe = delta[("z", ())]
    qo = delta[("s", (qe,))]
    assert qe != qo
    assert delta[("s", (qo,))] == qe
    assert outcome.tables["even"] == {(qe,)}
    assert outcome.tables["odd"] == {(qo,)}
    assert outcome.tables["plus"] == {
        (qe, qe, qe),
        (qe, qo, qo),
        (qo, qe, qo),
        (qo, qo, qe),
    }


def test_even_odd_plus_native_sat_reference_trace(nat_problem):
    # Depth 1 runs first; each later depth runs once the walk at the cap
    # has been charged as many derived facts as the depths before it were
    # charged terms and atoms, and the walk logs its one event when it finds
    # the model.
    outcome, log = solve(nat_problem)
    assert_even_odd_plus_model(outcome)
    assert [(e.phase, e.bound, e.verdict, e.work) for e in log] == [
        ("counterexample", 1, "none", 7),
        ("counterexample", 2, "none", 10),
        ("model", 8, "found", 16),
    ]
    assert outcome.tables == least_tables(outcome.automaton, nat_problem)


def test_unsat_toy_replays(unsat_toy):
    t0 = time.monotonic()
    outcome, log = solve(unsat_toy)
    assert time.monotonic() - t0 < 1.0
    assert isinstance(outcome, Unsat)
    assert outcome.derivation.goal_index == 2
    assert check_derivation(unsat_toy, outcome.derivation) == []
    assert shape(log)[-1] == ("counterexample", 2, "found")


def test_solve_deterministic(nat_problem):
    o1, l1 = solve(nat_problem)
    o2, l2 = solve(nat_problem)
    assert o1 == o2
    assert shape(l1) == shape(l2)
    assert render_outcome(o1, l1) == render_outcome(o2, l2)


def test_budget_exhausted(nat_problem):
    outcome, log = solve(nat_problem, SolveOptions(max_states=1))
    assert outcome == Unknown("budget", "state bound 1 exhausted")
    assert shape(log) == [("counterexample", 1, "none"), ("model", 1, "none")]


def test_depths_left_after_an_exhausted_walk_run_before_the_budget_answer():
    # member-rev(3) needs 8 list states.  The walk at 5 is exhausted after
    # 281 facts, less than depths 1-3 were charged, so depths 4 and 5 run
    # after it and no counterexample within the cap is missed.
    outcome, log = solve(gen_member_rev(3), SolveOptions(max_states=5))
    assert outcome == Unknown("budget", "state bound 5 exhausted")
    assert [(e.phase, e.bound, e.verdict, e.work) for e in log] == [
        ("counterexample", 1, "none", 30),
        ("counterexample", 2, "none", 95),
        ("counterexample", 3, "none", 329),
        ("model", 5, "none", 281),
        ("counterexample", 4, "none", 1112),
        ("counterexample", 5, "none", 3704),
    ]


def test_a_depth_is_charged_the_terms_its_universe_gains():
    # Binary trees: the universe squares with each depth, while p holds of
    # one tree per depth.  Charged atoms alone, depths 1-4 cost 14 of the
    # 25 facts the walk needs for its 3-state model, depth 5 builds 458,330
    # trees and depth 6 would try about 2e11; charged the terms too, depth
    # 4 is never due before the model.
    problem = parse_problem(
        """
        (declare-datatypes ((tree 0)) (((leaf) (node (l tree) (r tree)))))
        (declare-fun p (tree) Bool)
        (assert (p leaf))
        (assert (forall ((x tree)) (=> (and (p x)) (p (node x x)))))
        (assert (=> (and (p (node leaf (node leaf leaf)))) false))
        """
    )
    outcome, log = solve(problem, SolveOptions(time_limit=10.0))
    assert isinstance(outcome, Sat)
    assert states_per_sort(outcome.automaton) == {"tree": 3}
    assert [(e.phase, e.bound, e.work) for e in log] == [
        ("counterexample", 1, 4),
        ("counterexample", 2, 6),
        ("counterexample", 3, 25),
        ("model", 8, 25),
    ]


def test_timeout_before_any_phase(nat_problem):
    outcome, log = solve(nat_problem, SolveOptions(time_limit=0.0))
    assert isinstance(outcome, Unknown)
    assert outcome.reason == "timeout"
    assert "0" in outcome.detail


def test_timeout_inside_the_counterexample_phase(monkeypatch, nat_problem):
    def late(problem, depth, deadline, plan):
        assert deadline is not None and plan is not None
        raise SearchTimeout()

    monkeypatch.setattr(driver, "find_counterexample", late)
    outcome, log = solve(nat_problem, SolveOptions(time_limit=60))
    assert outcome == Unknown("timeout", "time limit of 60 seconds reached")
    assert shape(log) == [("counterexample", 1, "timeout")]


def test_time_limit_holds_while_the_ground_model_is_built(monkeypatch):
    # member-rev(4) has no model within 7 states, and its walk at 7 is
    # exhausted after depth 3; depth 7's ground model, built until it passes
    # the atom cap, is the last phase.  A calibration solve
    # times that model, from about 0.3 s to 1.0 s into the run here, and
    # the limit of the second solve falls in the middle of it.
    build = native.ground_least_model
    window = []

    def timed(problem, depth, **kwargs):
        start = time.monotonic() - t0
        try:
            return build(problem, depth, **kwargs)
        finally:
            if depth == 7:
                window.extend([start, time.monotonic() - t0])

    monkeypatch.setattr(native, "ground_least_model", timed)
    t0 = time.monotonic()
    outcome, _ = solve(gen_member_rev(4), SolveOptions(max_states=7))
    assert outcome.reason == "budget" and len(window) == 2, "calibration: %r, window %r" % (outcome, window)
    limit = sum(window) / 2
    t0 = time.monotonic()
    outcome, log = solve(gen_member_rev(4), SolveOptions(max_states=7, time_limit=limit))
    elapsed = time.monotonic() - t0
    # window now also holds when this solve's depth 7 started and ended.
    why = "calibration window %r s, limit %.3f s, elapsed %.3f s, this depth 7 %r s, %r, log %r" % (
        window[:2], limit, elapsed, window[2:], outcome, [(e.phase, e.bound, e.verdict) for e in log]
    )
    assert elapsed < limit + 0.5, why
    assert isinstance(outcome, Unknown) and outcome.reason == "timeout", why
    assert (log[-1].phase, log[-1].bound, log[-1].verdict) == ("counterexample", 7, "timeout"), why


def test_a_deadline_passing_inside_the_depth_7_ground_model_times_out(monkeypatch):
    # The test above on a stepped clock, so load cannot move the moment the
    # limit passes: the clock stands still until member-rev(4)'s depth-7
    # ground model, which reads it 731 times before it passes the atom
    # cap, has read it 365 times, and then jumps past the deadline.
    clock = SteppedClock(math.inf)
    build = native.ground_least_model
    timed_out = []

    def building(problem, depth, **kwargs):
        if depth == 7:
            clock.reads, clock.early = 0, 365
        try:
            return build(problem, depth, **kwargs)
        except SearchTimeout:
            timed_out.append(depth)
            raise

    for module in (core, driver, native):
        monkeypatch.setattr(module, "time", clock)
    monkeypatch.setattr(native, "ground_least_model", building)
    outcome, log = solve(gen_member_rev(4), SolveOptions(time_limit=1.2))
    assert outcome == Unknown("timeout", "time limit of 1.2 seconds reached")
    assert timed_out == [7]
    # The walk at 8 states was exhausted after depth 4, before the limit.
    assert [(e.phase, e.bound, e.verdict) for e in log[-5:]] == [
        ("counterexample", 4, "none"),
        ("model", 8, "none"),
        ("counterexample", 5, "none"),
        ("counterexample", 6, "none"),
        ("counterexample", 7, "timeout"),
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_an_unsat_answer_stays_cheap_at_a_large_cap(monkeypatch, perfbench, seed):
    # The walk at 12 states on mr3-unsat runs for minutes, but it is only
    # ever charged up to one assignment's facts past the depths: the first
    # charge that reaches theirs runs the next depth, and depth 5 answers
    # with the derivation it names at 5 states.
    workloads = perfbench("workloads")
    problem = workloads.mr3_unsat_problem(workloads.draw_list(seed))
    search_model = driver.search_model
    charges = [0]

    def recording(problem, n, plans, deadline, between):
        def counted(facts):
            charges.append(facts)
            return between(facts)

        return search_model(problem, n, plans, deadline, counted)

    at_five, _ = solve(problem, SolveOptions(max_states=5))
    monkeypatch.setattr(driver, "search_model", recording)
    outcome, log = solve(problem, SolveOptions(max_states=12))
    assert isinstance(outcome, Unsat) and outcome == at_five
    assert shape(log) == [("counterexample", d, "none") for d in range(1, 5)] + [
        ("counterexample", 5, "found")
    ]
    atoms = sum(e.work for e in log[:-1])
    assert charges[-2] < atoms <= charges[-1]


def test_max_depth_zero_skips_counterexamples(nat_problem):
    outcome, log = solve(nat_problem, SolveOptions(max_depth=0))
    assert_even_odd_plus_model(outcome)
    assert shape(log) == [("model", 8, "found")]
    assert trace_lines(log) == ["Searching for a model with 8 states"]


def test_max_depth_caps_counterexample_bound(unsat_toy):
    outcome, log = solve(unsat_toy, SolveOptions(max_depth=1, max_states=3))
    assert outcome == Unknown("budget", "state bound 3 exhausted")
    # Depth 2 would find the counterexample; the cap keeps to depth 1, once.
    assert shape(log) == [("counterexample", 1, "none"), ("model", 3, "none")]
    assert trace_lines(log) == [
        "Searching for a counterexample with 1 state",
        "Searching for a model with 3 states",
    ]


def test_invalid_problem_rejected():
    from regmod.core import Constructor, Problem, SortDecl

    bad = Problem((SortDecl("u", (Constructor("f", ("u",)),)),), (), ())
    with pytest.raises(DriverError, match="invalid problem"):
        solve(bad)


def test_a_term_nested_past_the_limit_is_invalid_not_a_recursion_error():
    # Built in Python, so no reader limits the nesting.  s^256(z) is even,
    # so odd(s^256(z)) => false holds; one more level is an invalid problem,
    # and 3000 levels no longer overflow the validator's recursion.
    def problem(depth):
        return make_nat_problem((Clause(None, (Atom("odd", (nat(depth),)),)),))

    outcome, _ = solve(problem(MAX_NESTING), SolveOptions(max_states=2))
    assert isinstance(outcome, Sat)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(DriverError, match="nested deeper than %d levels" % MAX_NESTING):
            solve(problem(depth))


def test_bad_options_rejected(nat_problem):
    with pytest.raises(DriverError, match="backend"):
        solve(nat_problem, SolveOptions(backend="smt"))
    with pytest.raises(DriverError, match="solver"):
        solve(nat_problem, SolveOptions(backend="asp"))
    with pytest.raises(DriverError, match="max_states"):
        solve(nat_problem, SolveOptions(max_states=0))
    # The native walk has no symmetry switch to turn off.
    with pytest.raises(DriverError, match="asp backend only"):
        solve(nat_problem, SolveOptions(symmetry_breaking=False))


@pytest.mark.parametrize(
    "options, field",
    [
        (SolveOptions(max_depth=-1), "max_depth"),
        (SolveOptions(time_limit=-1.0), "time_limit"),
        (SolveOptions(time_limit=float("nan")), "time_limit"),
    ],
)
def test_negative_bounds_rejected(nat_problem, options, field):
    with pytest.raises(DriverError, match=field):
        solve(nat_problem, options)


def test_trace_pluralization():
    log = (
        PhaseEvent("counterexample", 1, 0.0, "none"),
        PhaseEvent("model", 2, 0.0, "none"),
    )
    assert trace_lines(log) == [
        "Searching for a counterexample with 1 state",
        "Searching for a model with 2 states",
    ]


def test_render_sat_two_column_layout(nat_problem):
    outcome, log = solve(nat_problem)
    text = render_outcome(outcome, log)
    lines = text.splitlines()
    header = [l for l in lines if l.startswith("ADT Transitions:")]
    assert header and "Predicates:" in header[0]
    assert any(l.startswith("Z -> ") for l in lines)
    assert "Success! Clauses are satisfiable by a Herbrand model recognized by a tree automaton with 2 states" in text


def test_render_unsat_shows_derivation(unsat_toy):
    outcome, log = solve(unsat_toy)
    text = render_outcome(outcome, log)
    assert "Counterexample! Goal clause 2 is violated" in text
    assert "  even(s(s(z)))   [clause 1]" in text
    assert "    even(z)   [clause 0]" in text
    assert text.endswith("Clauses are unsatisfiable.")


def test_render_unknown_contains_limit():
    text = render_outcome(Unknown("timeout", "time limit of 0.5 seconds reached"))
    assert "0.5" in text


def test_outcome_json_sat(nat_problem):
    outcome, log = solve(nat_problem)
    doc = outcome_to_json(outcome, log)
    assert doc["verdict"] == "sat"
    assert doc["states"] == {"nat": 2}
    assert {"ctor": "z", "args": [], "target": outcome.automaton.delta[("z", ())]} in doc["transitions"]
    assert [(e["phase"], e["work"]) for e in doc["log"]] == [
        ("counterexample", 7),
        ("counterexample", 10),
        ("model", 16),
    ]
    import json

    json.dumps(doc)


def test_outcome_json_unsat(unsat_toy):
    outcome, log = solve(unsat_toy)
    doc = outcome_to_json(outcome, log)
    assert doc["verdict"] == "unsat"
    assert doc["goal_clause"] == 2
    assert doc["steps"][doc["premises"][0]]["atom"] == "even(s(s(z)))"
    import json

    json.dumps(doc)


# --- asp backend plumbing against stand-in solvers ---


def test_asp_backend_full_loop(tmp_path, nat_problem):
    path = write_fake_solver(tmp_path, "eop.sh", EVEN_ODD_PLUS_SCRIPT)
    opts = SolveOptions(backend="asp", solver=SolverConfig(path))
    outcome, log = solve(nat_problem, opts)
    assert_even_odd_plus_model(outcome)
    assert outcome.automaton.delta == {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1}
    assert shape(log) == [
        ("counterexample", 1, "none"),
        ("model", 1, "none"),
        ("counterexample", 2, "none"),
        ("model", 2, "found"),
    ]


def test_asp_backend_searches_counterexamples_natively(tmp_path, unsat_toy):
    # The stand-in solver logs the first line of every program it is given;
    # the counterexample program must never reach it.
    seen = tmp_path / "programs.txt"
    script = """\
in=$(cat -)
echo "$in" | head -n 1 >> "%s"
echo "UNSATISFIABLE"
exit 20
""" % seen
    path = write_fake_solver(tmp_path, "toy.sh", script)
    opts = SolveOptions(backend="asp", solver=SolverConfig(path))
    outcome, log = solve(unsat_toy, opts)
    assert isinstance(outcome, Unsat)
    assert check_derivation(unsat_toy, outcome.derivation) == []
    assert shape(log) == [
        ("counterexample", 1, "none"),
        ("model", 1, "none"),
        ("counterexample", 2, "found"),
    ]
    assert seen.read_text().splitlines() == ["#const maxState=1."]


UNSAT_SCRIPT = 'cat - > /dev/null\necho "UNSATISFIABLE"\nexit 20\n'
SLOW_SCRIPT = "cat - > /dev/null\nsleep 10\n"
# Fails unless it gets its extra argument; says unsat with a custom code.
ARGS_SCRIPT = '[ "$1" = "--stub" ] || exit 1\ncat - > /dev/null\necho "UNSATISFIABLE"\nexit 21\n'


@pytest.mark.parametrize(
    "script, solver, options, events, outcome",
    [
        # Capped depths: the later calls follow one another with no depth
        # between them.
        (
            UNSAT_SCRIPT,
            {},
            dict(max_states=3, max_depth=1),
            [
                ("counterexample", 1, "none", 7),
                ("model", 1, "none", 0),
                ("model", 2, "none", 0),
                ("model", 3, "none", 0),
            ],
            Unknown("budget", "state bound 3 exhausted"),
        ),
        # One depth before each call, whatever either was charged.
        (
            UNSAT_SCRIPT,
            {},
            dict(max_states=3),
            [
                ("counterexample", 1, "none", 7),
                ("model", 1, "none", 0),
                ("counterexample", 2, "none", 10),
                ("model", 2, "none", 0),
                ("counterexample", 3, "none", 15),
                ("model", 3, "none", 0),
            ],
            Unknown("budget", "state bound 3 exhausted"),
        ),
        # A call that runs out of the solver's time ends the run, logged.
        (
            SLOW_SCRIPT,
            dict(time_limit=0.3),
            dict(max_states=3),
            [("counterexample", 1, "none", 7), ("model", 1, "timeout", 0)],
            Unknown("timeout", "time limit reached"),
        ),
        # The solve's time limit clamps the solver's and keeps the rest of
        # its configuration.
        (
            ARGS_SCRIPT,
            dict(extra_args=("--stub",), unsat_codes=frozenset({21})),
            dict(max_states=1, time_limit=60.0),
            [("counterexample", 1, "none", 7), ("model", 1, "none", 0)],
            Unknown("budget", "state bound 1 exhausted"),
        ),
    ],
)
def test_asp_backend_schedule(tmp_path, script, solver, options, events, outcome):
    path = write_fake_solver(tmp_path, "stub.sh", script)
    opts = SolveOptions(backend="asp", solver=SolverConfig(path, **solver), **options)
    result, log = solve(make_nat_problem(), opts)
    assert result == outcome
    assert [(e.phase, e.bound, e.verdict, e.work) for e in log] == events


def test_asp_backend_rejects_lying_model(tmp_path, nat_problem):
    script = """\
cat - > /dev/null
echo "Answer: 1"
echo "rule(z,1) rule(s(1),1) rule(s(2),1) even(1) odd(1)"
exit 30
"""
    path = write_fake_solver(tmp_path, "liar.sh", script)
    opts = SolveOptions(backend="asp", solver=SolverConfig(path), max_depth=0)
    with pytest.raises(DecodeError):
        solve(nat_problem, opts)


def test_asp_backend_solver_crash_surfaces(tmp_path, nat_problem):
    path = write_fake_solver(tmp_path, "crash.sh", "cat - > /dev/null\necho boom >&2\nexit 1\n")
    opts = SolveOptions(backend="asp", solver=SolverConfig(path))
    with pytest.raises(DriverError, match="boom"):
        solve(nat_problem, opts)


def test_asp_backend_timeout(tmp_path, nat_problem):
    path = write_fake_solver(tmp_path, "slow.sh", "cat - > /dev/null\nsleep 10\n")
    opts = SolveOptions(
        backend="asp", solver=SolverConfig(path, time_limit=0.3), time_limit=0.5
    )
    t0 = time.monotonic()
    outcome, log = solve(nat_problem, opts)
    assert isinstance(outcome, Unknown)
    assert outcome.reason == "timeout"
    assert time.monotonic() - t0 < 5


# --- certification in solve, whichever backend answered ---


def two_state_solver(tmp_path, answer):
    """Options for a stand-in solver: unsat at one state, the given answer
    line for the two-state model program."""
    script = """\
in=$(cat -)
if echo "$in" | grep -q "#const maxState=2."; then
  echo "Answer: 1"
  echo "%s"
  exit 30
fi
echo "UNSATISFIABLE"
exit 20
""" % answer
    path = write_fake_solver(tmp_path, "answer.sh", script)
    return SolveOptions(backend="asp", solver=SolverConfig(path))


def test_solve_rejects_asp_tables_missing_a_row(tmp_path, nat_problem):
    """The known model with odd(1) dropped decodes, but breaks closure of
    the odd step clause."""
    answer = EVEN_ODD_PLUS_MODEL_LINE.replace("odd(1) ", "")
    with pytest.raises(CertificateError, match="violate clause 2 \\(closure\\)"):
        solve(nat_problem, two_state_solver(tmp_path, answer))


def test_solve_rejects_asp_tables_violating_the_goal(tmp_path, nat_problem):
    """Full tables are closed under every definite clause, so the only
    failure left to report is the goal clause."""
    facts = ["rule(z,2)", "rule(s(1),2)", "rule(s(2),1)"]
    facts += ["%s(%d)" % (pred, q) for pred in ("even", "odd") for q in (1, 2)]
    facts += ["plus(%d,%d,%d)" % row for row in itertools.product((1, 2), repeat=3)]
    with pytest.raises(CertificateError, match="violate clause 5 \\(goal\\)"):
        solve(nat_problem, two_state_solver(tmp_path, " ".join(facts)))


def test_solve_rejects_asp_table_row_outside_its_sort(tmp_path, nat_problem):
    answer = EVEN_ODD_PLUS_MODEL_LINE + " plus(1,1,9)"
    with pytest.raises(CertificateError, match="outside sort"):
        solve(nat_problem, two_state_solver(tmp_path, answer))


def test_solve_rejects_wrong_native_tables(monkeypatch, nat_problem):
    search_model = driver.search_model

    def emptied(*args):
        found = search_model(*args)
        return found and (found[0], {pred: set() for pred in found[1]})

    monkeypatch.setattr(driver, "search_model", emptied)
    with pytest.raises(CertificateError, match="violate clause 0 \\(closure\\)"):
        solve(nat_problem)


def test_solve_rejects_a_derivation_that_does_not_replay(monkeypatch, unsat_toy):
    find_counterexample = driver.find_counterexample

    def unproved(*args):
        found = find_counterexample(*args)
        return found and Derivation(found.goal_index, found.substitution, found.steps, ())

    monkeypatch.setattr(driver, "find_counterexample", unproved)
    with pytest.raises(CertificateError, match="1 body atoms but 0 premises"):
        solve(unsat_toy)


def test_count_models_both_settings(tmp_path, nat_problem):
    script = """\
in=$(cat -)
if echo "$in" | grep -q "slotIdx"; then
  echo "Models       : 12"
else
  echo "Models       : 700000000+"
fi
exit 30
"""
    path = write_fake_solver(tmp_path, "count.sh", script)
    cfg = SolverConfig(path, extra_args=("0", "-q"))
    assert count_models(nat_goal_problem(), 2, cfg, True) == (12, True)
    assert count_models(nat_goal_problem(), 2, cfg, False) == (700000000, False)


@given(st.one_of(small_problems(), joined_problems()), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_solve_verdicts_agree_with_brute_force_models(problem, max_states):
    # has_model tries every complete automaton with at most n states per
    # sort.  The walk's leftmost leaf is the automaton with one state per
    # sort, so up to two states a Sat answer with at most n states per sort
    # has a model at n and none below; an Unsat answer or an exhausted cap
    # has none.
    assume(validate(problem).ok)
    outcome, _ = solve(problem, SolveOptions(max_states=max_states))
    if isinstance(outcome, Sat):
        n = max(states_per_sort(outcome.automaton).values())
        assert has_model(problem, n)
        assert n == 1 or not has_model(problem, n - 1)
    else:
        assert isinstance(outcome, Unsat) or outcome.reason == "budget"
        assert not has_model(problem, max_states)


def bound_loop(problem, max_states):
    """The answer of a loop over the bounds n = 1, 2, ..., max_states that
    looks for a counterexample within depth n and then for a model with at
    most n states per sort, and stops at the first answer."""
    ground = GroundPlan(problem)
    capped = False
    for n in range(1, max_states + 1):
        if not capped:
            try:
                derivation = native.find_counterexample(problem, n, None, ground)
            except BudgetExceeded:
                capped = True
            else:
                if derivation is not None:
                    return Unsat(derivation)
        found = native.search_model(problem, n)
        if found is not None:
            return Sat(*found)
    return Unknown("budget", "state bound %d exhausted" % max_states)


@given(st.one_of(small_problems(), joined_problems()))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solve_answers_as_the_bound_loop_at_three_states(problem):
    # The walk at the cap and the dovetailed depths give the answer, and
    # the certificate, of the per-bound loop they replace.
    assume(validate(problem).ok)
    outcome, _ = solve(problem, SolveOptions(max_states=3))
    assert outcome_to_json(outcome) == outcome_to_json(bound_loop(problem, 3))
