import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import core
from regmod.core import (
    App,
    Atom,
    BudgetExceeded,
    Clause,
    Constructor,
    Derivation,
    Diseq,
    Eq,
    PredicateDecl,
    Problem,
    SearchTimeout,
    SortDecl,
    Step,
    TermTable,
    Var,
    apply_subst,
    check_derivation,
    clause_vars,
    format_atom,
    format_term,
    goal_violated,
    ground_least_model,
    ground_terms,
    is_ground,
    validate,
)
from regmod.frontend import parse_problem
from tests.conftest import Z, make_nat_problem, nat, s
from tests.test_frontend import small_problems

import pytest


def test_term_basics():
    t = s(s(Z))
    assert is_ground(t)
    assert not is_ground(App("s", (Var("X", "nat"),)))
    assert format_term(t) == "s(s(z))"
    assert format_atom(Atom("plus", (Z, t, t))) == "plus(z, s(s(z)), s(s(z)))"


def test_apply_subst():
    pat = App("s", (Var("X", "nat"),))
    assert apply_subst(pat, {"X": Z}) == s(Z)
    assert apply_subst(pat, {"Y": Z}) == pat


def test_clause_vars_first_occurrence_order():
    c = Clause(
        Atom("plus", (Var("A", "nat"), Var("B", "nat"), Var("B", "nat"))),
        (Atom("even", (Var("B", "nat"),)),),
    )
    assert [v.name for v in clause_vars(c)] == ["B", "A"]


def test_ground_terms_ordered_by_depth(nat_problem):
    terms = ground_terms(nat_problem, "nat", 3)
    assert terms == [nat(0), nat(1), nat(2), nat(3)]


def test_ground_terms_two_sorts():
    sorts = (
        SortDecl("elt", (Constructor("e1"), Constructor("e2"))),
        SortDecl(
            "list",
            (Constructor("nil"), Constructor("cons", ("elt", "list"))),
        ),
    )
    p = Problem(sorts, (), ())
    lists = ground_terms(p, "list", 2)
    # nil, cons(e, nil) for both elements, cons(e, cons(e', nil)).
    assert len(lists) == 1 + 2 + 4
    assert lists[0] == App("nil")


def test_term_table_ids_are_those_of_trying_every_argument():
    # extend tries the last argument on the layer below alone unless an
    # earlier argument is in it; the reference tries every argument in the
    # table and keeps the terms one level above their deepest argument, in
    # the same order.  triple has its deepest argument at each position.
    sorts = (
        SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),
        SortDecl("tree", (Constructor("leaf"), Constructor("wrap", ("tree",)), Constructor("node", ("nat", "tree")))),
        SortDecl("trio", (Constructor("triple", ("tree", "nat", "tree")),)),
    )
    table = TermTable(Problem(sorts, (), ()))
    table.extend(4)
    ref, depth_of = [], []
    for d in range(5):
        known = {sort.name: [i for i, t in enumerate(ref) if t[0] == sort.name] for sort in sorts}
        for sort in sorts:
            for c in sort.constructors:
                for args in itertools.product(*[known[a] for a in c.arg_sorts]):
                    if max([depth_of[a] for a in args], default=-1) == d - 1:
                        ref.append((sort.name, c.name, args))
                        depth_of.append(d)
    assert table.ctor == [c for _, c, _ in ref]
    assert table.args == [args for _, _, args in ref]
    assert table.depth == depth_of
    assert table.universe == {sort.name: [i for i, t in enumerate(ref) if t[0] == sort.name] for sort in sorts}


def test_validate_accepts_nat(nat_problem):
    report = validate(nat_problem)
    assert report.ok
    assert report.warnings == []


def test_validate_warns_without_goal():
    report = validate(make_nat_problem())
    assert report.ok
    assert any("no goal" in w for w in report.warnings)


def test_validate_rejects_uninhabited_sort():
    sorts = (SortDecl("stream", (Constructor("scons", ("stream",)),)),)
    p = Problem(sorts, (), ())
    report = validate(p)
    assert any("no finite ground terms" in e for e in report.errors)


def test_validate_rejects_bad_arity_and_unknown_names():
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (PredicateDecl("even", ("nat",)),)
    clauses = (
        Clause(Atom("even", (App("s"),)), ()),
        Clause(Atom("evenn", (Z,)), ()),
        Clause(Atom("even", (App("cons", (Z,)),)), ()),
    )
    report = validate(Problem(sorts, preds, clauses))
    assert any("expects 1 arguments" in e for e in report.errors)
    assert any("unknown predicate evenn" in e for e in report.errors)
    assert any("unknown constructor cons" in e for e in report.errors)


def test_validate_rejects_var_sort_clash():
    p = make_nat_problem()
    bad = Clause(Atom("even", (Var("X", "nat"),)), (Atom("even", (Var("X", "bool"),)),))
    report = validate(Problem(p.sorts, p.predicates, (bad,)))
    assert not report.ok


# ---------------------------------------------------------------------------
# Bounded ground least model, checked against a hand unfolding.


def test_ground_least_model_depth2(nat_problem):
    atoms, _ = ground_least_model(nat_problem, 2)
    even = {a.args[0] for a in atoms if a.pred == "even"}
    odd = {a.args[0] for a in atoms if a.pred == "odd"}
    plus = {a.args for a in atoms if a.pred == "plus"}
    assert even == {nat(0), nat(2)}
    assert odd == {nat(1)}
    assert plus == {
        (nat(0), nat(0), nat(0)),
        (nat(0), nat(1), nat(1)),
        (nat(0), nat(2), nat(2)),
        (nat(1), nat(0), nat(1)),
        (nat(1), nat(1), nat(2)),
        (nat(2), nat(0), nat(2)),
    }


def test_ground_least_model_depth0(nat_problem):
    atoms, _ = ground_least_model(nat_problem, 0)
    assert atoms == {Atom("even", (Z,)), Atom("plus", (Z, Z, Z))}


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_ground_least_model_monotone_in_depth(d1, d2):
    p = make_nat_problem()
    lo, hi = sorted((d1, d2))
    small, _ = ground_least_model(p, lo)
    big, _ = ground_least_model(p, hi)
    assert small <= big


def test_ground_least_model_below_depth_zero_is_empty(nat_problem):
    # --max-depth accepts a negative cap; its universe has no terms, also
    # when a shared plan's term table already holds deeper ones.
    plan = core.GroundPlan(nat_problem)
    assert ground_least_model(nat_problem, 2, plan=plan)[0]
    for shared in (None, plan):
        model, derivation = ground_least_model(nat_problem, -1, plan=shared)
        assert model == set() and derivation == model.derivation


def test_ground_least_model_atom_cap(nat_problem):
    with pytest.raises(BudgetExceeded):
        ground_least_model(nat_problem, 4, atom_cap=5)


def test_goal_not_violated_on_sat_problem(nat_problem):
    atoms, _ = ground_least_model(nat_problem, 4)
    assert goal_violated(atoms) is None


def toy_steps():
    """unsat_toy's derivation at depth 2: even(z), then even(s(s(z))) from
    it; the goal's premise is step 1."""
    return [Step(Atom("even", (Z,)), 0, (), ()), Step(Atom("even", (nat(2),)), 1, (("x", Z),), (0,))]


def test_goal_violated_with_replay(unsat_toy):
    atoms, _ = ground_least_model(unsat_toy, 2)
    derivation = goal_violated(atoms)
    assert derivation is not None
    assert derivation.goal_index == 2
    assert check_derivation(unsat_toy, derivation) == []
    # The witness proves even(s(s(z))) via the step clause over even(z).
    assert derivation == Derivation(2, (), tuple(toy_steps()), (1,))


def test_goal_violated_finds_constraint_witness():
    # p(a); p(b); goal p(x), p(y), x != y => false.
    sorts = (SortDecl("u", (Constructor("a"), Constructor("b"))),)
    preds = (PredicateDecl("p", ("u",)),)
    from regmod.core import Diseq

    x = Var("X", "u")
    y = Var("Y", "u")
    clauses = (
        Clause(Atom("p", (App("a"),)), ()),
        Clause(Atom("p", (App("b"),)), ()),
        Clause(None, (Atom("p", (x,)), Atom("p", (y,)), Diseq(x, y))),
    )
    p = Problem(sorts, preds, clauses)
    atoms, _ = ground_least_model(p, 1)
    derivation = goal_violated(atoms)
    assert derivation is not None
    assert check_derivation(p, derivation) == []
    subst = dict(derivation.substitution)
    assert subst["X"] != subst["Y"]


def test_check_derivation_rejects_tampering(unsat_toy):
    atoms, _ = ground_least_model(unsat_toy, 2)
    derivation = goal_violated(atoms)
    assert derivation is not None

    wrong_goal = Derivation(0, derivation.substitution, derivation.steps, derivation.premises)
    assert check_derivation(unsat_toy, wrong_goal) != []

    base, proof = derivation.steps
    wrong_clause = Step(proof.atom, 0, proof.substitution, proof.premises)
    broken = Derivation(derivation.goal_index, derivation.substitution, (base, wrong_clause), derivation.premises)
    assert check_derivation(unsat_toy, broken) != []

    wrong_atom = Step(Atom("even", (nat(4),)), proof.clause_index, proof.substitution, proof.premises)
    broken = Derivation(derivation.goal_index, derivation.substitution, (base, wrong_atom), derivation.premises)
    assert check_derivation(unsat_toy, broken) != []


def test_check_derivation_rejects_a_clause_index_out_of_range(unsat_toy):
    steps = toy_steps()
    steps[0] = Step(steps[0].atom, -1, (), ())
    assert check_derivation(unsat_toy, Derivation(2, (), tuple(steps), (1,))) == [
        "step 0: clause index -1 out of range"
    ]
    assert check_derivation(unsat_toy, Derivation(7, (), tuple(toy_steps()), (1,))) == [
        "goal: clause index 7 out of range"
    ]


def test_check_derivation_rejects_a_failed_disequation(problems_dir):
    # p(a) and p(b) with x = a, y = b prove the goal p(x), p(y), x != y;
    # with y = a both premises are p(a), and only the disequation fails.
    problem = parse_problem((problems_dir / "diseq_pair_unsat.smt2").read_text())
    derivation = goal_violated(ground_least_model(problem, 1)[0])
    assert check_derivation(problem, derivation) == []
    assert [format_atom(step.atom) for step in derivation.steps] == ["p(a)", "p(b)"]
    assert dict(derivation.substitution) == {"x": App("a"), "y": App("b")}
    tampered = Derivation(1, (("x", App("a")), ("y", App("a"))), derivation.steps, (0, 0))
    assert check_derivation(problem, tampered) == ["goal: a constraint in clause 1 fails"]


def test_check_derivation_rejects_a_failed_equation():
    # p(z), p(s(z)); p(x) and x = z => false.  The goal with x = s(z) and
    # the premise p(s(z)) matches its atom, but not its equation.
    x = Var("x", "nat")
    problem = Problem(make_nat_problem().sorts, (PredicateDecl("p", ("nat",)),), (
        Clause(Atom("p", (Z,)), ()),
        Clause(Atom("p", (s(Z),)), ()),
        Clause(None, (Atom("p", (x,)), Eq(x, Z))),
    ))
    steps = (Step(Atom("p", (Z,)), 0, (), ()), Step(Atom("p", (s(Z),)), 1, (), ()))
    assert check_derivation(problem, Derivation(2, (("x", Z),), steps, (0,))) == []
    assert check_derivation(problem, Derivation(2, (("x", s(Z)),), steps, (1,))) == [
        "goal: a constraint in clause 2 fails"
    ]


@pytest.mark.parametrize("premise", [1, 2, 7, -1], ids=["own", "forward", "out-of-range", "negative"])
def test_check_derivation_rejects_a_premise_that_is_not_an_earlier_step(unsat_toy, premise):
    steps = toy_steps()
    steps[1] = Step(steps[1].atom, 1, steps[1].substitution, (premise,))
    # A later copy of the base step, so that a forward premise is in range.
    steps.append(Step(Atom("even", (Z,)), 0, (), ()))
    errors = check_derivation(unsat_toy, Derivation(2, (), tuple(steps), (1,)))
    assert errors == ["step 1: premise 0 is %d, not an earlier step" % premise]


@pytest.mark.parametrize("premise", [2, -1], ids=["out-of-range", "negative"])
def test_check_derivation_rejects_a_goal_premise_out_of_range(unsat_toy, premise):
    errors = check_derivation(unsat_toy, Derivation(2, (), tuple(toy_steps()), (premise,)))
    assert errors == ["goal: premise 0 is %d, not an earlier step" % premise]


def test_check_derivation_rejects_a_premise_that_proves_another_atom(unsat_toy):
    steps = toy_steps()
    # even(s^4(z)) from step 0, even(z), where even(s(s(z))) is required.
    steps.append(Step(Atom("even", (nat(4),)), 1, (("x", nat(2)),), (0,)))
    errors = check_derivation(unsat_toy, Derivation(2, (), tuple(steps), (1,)))
    assert errors == ["step 2: premise 0, step 0, proves even(z) where even(s(s(z))) is required"]
    errors = check_derivation(unsat_toy, Derivation(2, (), tuple(toy_steps()), (0,)))
    assert errors == ["goal: premise 0, step 0, proves even(z) where even(s(s(z))) is required"]


def test_check_derivation_rejects_nonground_substitution(unsat_toy):
    steps = toy_steps()
    steps[1] = Step(steps[1].atom, 1, (("x", Var("Y", "nat")),), (0,))
    assert check_derivation(unsat_toy, Derivation(2, (), tuple(steps), (1,))) != []


def test_check_derivation_reports_a_constraint_variable_without_a_value():
    # p(z); p(y) and x != z => q(y); q(z) => false.  x is in no atom, so a
    # step whose substitution leaves it out cannot be checked.
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",)))
    x, y = Var("x", "nat"), Var("y", "nat")
    problem = Problem(sorts, preds, (
        Clause(Atom("p", (Z,)), ()),
        Clause(Atom("q", (y,)), (Atom("p", (y,)), Diseq(x, Z))),
        Clause(None, (Atom("q", (Z,)),)),
    ))
    derivation = goal_violated(ground_least_model(problem, 1)[0])
    assert check_derivation(problem, derivation) == []
    base, proof = derivation.steps
    assert dict(proof.substitution) == {"x": s(Z), "y": Z}
    unbound = Step(proof.atom, proof.clause_index, (("y", Z),), proof.premises)
    tampered = Derivation(derivation.goal_index, (), (base, unbound), derivation.premises)
    assert check_derivation(problem, tampered) == ["step 1: clause 1 is not fully instantiated: x has no value"]
    goal = Clause(None, (Atom("q", (y,)), Diseq(x, Z)))
    problem = Problem(sorts, preds, problem.clauses[:2] + (goal,))
    tampered = Derivation(2, (("y", Z),), (base, proof), (1,))
    assert check_derivation(problem, tampered) == ["goal: clause 2 is not fully instantiated: x has no value"]


@given(st.integers(min_value=2, max_value=5))
@settings(max_examples=10, deadline=None)
def test_replay_holds_at_any_sufficient_depth(depth):
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (PredicateDecl("even", ("nat",)),)
    x = Var("X", "nat")
    clauses = (
        Clause(Atom("even", (Z,)), ()),
        Clause(Atom("even", (s(s(x)),)), (Atom("even", (x,)),)),
        Clause(None, (Atom("even", (s(s(Z)),)),)),
    )
    p = Problem(sorts, preds, clauses)
    atoms, _ = ground_least_model(p, depth)
    derivation = goal_violated(atoms)
    assert derivation is not None
    assert check_derivation(p, derivation) == []


# ---------------------------------------------------------------------------
# Deadlines inside the counterexample phase.


class SteppedClock:
    """Stands in for a module's time module: the clock reads 0.0 for the
    first `early` reads, then 2.0, past a deadline of 1.0."""

    def __init__(self, early=1):
        self.early = early
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return 0.0 if self.reads <= self.early else 2.0


def test_a_deadline_passing_inside_a_firing_stops_it(monkeypatch):
    # One firing of q(z) <= x != y, y != w counts 1 + 51^3 steps, its start
    # and its candidates, and adds a single atom, so counting added atoms
    # never reads the clock.  It reads it 259 times, once every 512 steps,
    # and once after each of the two rounds; the 50 terms tried read none.
    x, y, w = Var("x", "nat"), Var("y", "nat"), Var("w", "nat")
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("q", ("nat",)),),
        (Clause(Atom("q", (Z,)), (Diseq(x, y), Diseq(y, w))),),
    )
    clock = SteppedClock(math.inf)
    monkeypatch.setattr(core, "time", clock)
    atoms, _ = ground_least_model(problem, 50, deadline=1.0)
    assert set(atoms) == {Atom("q", (Z,))}
    assert clock.reads == (1 + 51**3) // 512 + 2 == 261
    # Past the deadline at the second read, 1,024 steps into the firing.
    clock = SteppedClock()
    monkeypatch.setattr(core, "time", clock)
    plan = core.GroundPlan(problem)
    with pytest.raises(SearchTimeout):
        ground_least_model(problem, 50, deadline=1.0, plan=plan)
    assert clock.reads == 2 and plan.atoms == 1


def eager_objects(table):
    """Every term object of the table, built bottom-up in id order, as the
    table built them before it built them on demand."""
    objects = []
    for ctor, args in zip(table.ctor, table.args):
        objects.append(App(ctor, tuple([objects[a] for a in args])))
    return objects


def test_extending_the_table_and_a_depth_without_a_hit_build_no_term_object(nat_problem):
    plan = core.GroundPlan(nat_problem)
    plan.terms.extend(6)
    for depth in range(4):
        atoms, _ = ground_least_model(nat_problem, depth, plan=plan)
        assert len(atoms) > 0 and goal_violated(atoms) is None
    assert plan.terms.objects == {}


def test_a_term_object_2000_deep_is_built_without_recursion():
    table = TermTable(make_nat_problem())
    table.extend(2000)
    expected = Z
    for _ in range(2000):
        expected = s(expected)
    deepest = table.universe["nat"][-1]
    assert table.depth[deepest] == 2000 and table.term(deepest) == expected
    assert len(table.objects) == 2001 and table.term(deepest) is table.term(deepest)


@settings(max_examples=60, deadline=None)
@given(small_problems())
def test_terms_built_on_demand_equal_an_eager_bottom_up_reference(problem):
    # The eager plan's table holds every object before anything reads one.
    lazy, eager = core.GroundPlan(problem), core.GroundPlan(problem)
    for depth in range(4):
        eager.terms.extend(depth)
        eager.terms.objects = dict(enumerate(eager_objects(eager.terms)))
        for sort in ("nat", "pr"):
            expected = [eager.terms.objects[i] for i in eager.terms.prefix(depth)[sort]]
            assert ground_terms(problem, sort, depth) == expected
        models = [ground_least_model(problem, depth, plan=plan)[0] for plan in (lazy, eager)]
        for get in ("atom", "derivation"):
            lazy_rows, eager_rows = ([getattr(model, get)(n) for n in range(len(model))] for model in models)
            assert lazy_rows == eager_rows
        assert goal_violated(models[0]) == goal_violated(models[1])


def test_a_deadline_passing_inside_a_one_atom_firing_stops_it(monkeypatch):
    # q(x) <= p(x) over the 2,001 atoms p(x) <= gives at depth 2000: the
    # body atom binds every variable, so each of its steps is also the
    # firing's candidate.  With the table already built, the clock is read
    # 3 times inside p's firing and once after it; the 5th read, inside
    # q's firing, is past the deadline.
    x = Var("x", "nat")
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",))),
        (Clause(Atom("p", (x,)), ()), Clause(Atom("q", (x,)), (Atom("p", (x,)),))),
    )
    plan = core.GroundPlan(problem)
    plan.terms.extend(2000)
    monkeypatch.setattr(core, "time", SteppedClock(4))
    with pytest.raises(SearchTimeout):
        ground_least_model(problem, 2000, deadline=1.0, plan=plan)
    assert 2001 < plan.atoms < 2 * 2001

def test_a_deadline_passing_inside_the_goal_check_stops_it(monkeypatch):
    # The goal p(x, y), p(w, v), r(x, w) => false enters 400 + 400^2 steps
    # over the 400 p atoms that p(x, y) gives at depth 0, and no r atom ends
    # the search.
    constants = [App("c%d" % i) for i in range(20)]
    sorts = (SortDecl("elt", tuple(Constructor(c.ctor) for c in constants)),)
    x, y, w, v = (Var(name, "elt") for name in "xywv")
    problem = Problem(
        sorts,
        (PredicateDecl("p", ("elt", "elt")), PredicateDecl("r", ("elt", "elt"))),
        (
            Clause(Atom("p", (x, y)), ()),
            Clause(None, (Atom("p", (x, y)), Atom("p", (w, v)), Atom("r", (x, w)))),
        ),
    )
    # Its plain nested loop still reads the clock once every 512 steps,
    # through the clock the model was built with.
    monkeypatch.setattr(core, "time", SteppedClock(math.inf))
    atoms, _ = ground_least_model(problem, 0, deadline=1.0)
    assert len(atoms) == 400
    clock = SteppedClock(math.inf)
    monkeypatch.setattr(core, "time", clock)
    assert goal_violated(atoms) is None
    assert clock.reads == (1 + 400 + 400**2) // 512 == 313
    # Past the deadline at the second read, 1,024 steps into the join.
    clock = SteppedClock()
    monkeypatch.setattr(core, "time", clock)
    with pytest.raises(SearchTimeout):
        goal_violated(atoms)
    assert clock.reads == 2


def test_a_deadline_passing_while_the_term_table_grows_stops_it(monkeypatch):
    # Binary trees of depth 0..3 number 1, 1, 3 and 21, after 30 argument
    # pairs tried.  Layer 4 tries the 26^2 pairs of them and adds 651 terms,
    # but the clock is read at the 512th pair, 482 pairs into it.
    tree = SortDecl("tree", (Constructor("leaf"), Constructor("node", ("tree", "tree"))))
    x = Var("x", "tree")
    problem = Problem(
        (tree,),
        (PredicateDecl("p", ("tree",)),),
        (
            Clause(Atom("p", (App("leaf"),)), ()),
            Clause(None, (Atom("p", (App("node", (x, x)),)),)),
        ),
    )
    plan = core.GroundPlan(problem)
    clock = SteppedClock(0)
    monkeypatch.setattr(core, "time", clock)
    with pytest.raises(SearchTimeout):
        ground_least_model(problem, 4, deadline=1.0, plan=plan)
    table = plan.terms
    assert clock.reads == 1
    assert table.top == 3 and table.ends == {"tree": [1, 2, 5, 26]}
    assert 26 < len(table.ctor) < 677
    # The plan is shared across depths: a later bound adds the cut layer
    # whole, as if it had never been cut.
    atoms, _ = ground_least_model(problem, 4, plan=plan)
    assert set(atoms) == {Atom("p", (App("leaf"),))} and goal_violated(atoms) is None
    fresh = TermTable(problem)
    fresh.extend(4)
    assert (table.ctor, table.args, table.depth) == (fresh.ctor, fresh.args, fresh.depth)
    ids = range(len(fresh.ctor))
    assert list(map(table.term, ids)) == list(map(fresh.term, ids))
    assert (table.build, table.universe, table.ends, table.top) == (fresh.build, fresh.universe, fresh.ends, 4)
