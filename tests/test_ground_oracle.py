"""ground_least_model, goal_violated and solve against a brute-force
reference.

The reference grounds every clause over the whole bounded universe, with no
join, index or evaluation order of its own.  The first goal violation it
names is the least solution in the order goal_violated documents: goals in
clause order, then the instantiated body atoms compared by format_atom in
body order, then the values of the remaining variables by their place in
the universe.  The comparisons run again with the generated joins chained
through functions that nest one loop each.
"""

import gc
import hashlib
import importlib
import json
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regmod.benchmarks import gen_member_rev
from regmod.core import (
    Atom,
    Clause,
    Diseq,
    Eq,
    GroundPlan,
    PredicateDecl,
    Problem,
    Var,
    apply_subst,
    check_derivation,
    clause_vars,
    format_atom,
    format_term,
    goal_violated,
    ground_least_model,
    ground_terms,
    subst_atom,
    term_vars,
    validate,
)
from regmod.driver import SolveOptions, Sat, Unknown, Unsat, solve
from regmod.frontend import parse_problem
from regmod.interpretation import interpret_atom
from tests.conftest import PERFBENCH, Z, make_nat_problem, s
from tests.test_frontend import small_problems

FIXTURE_PATHS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.smt2"))
FIXTURES = [parse_problem(path.read_text()) for path in FIXTURE_PATHS]
DIGESTS = Path(__file__).resolve().parent / "golden" / "ground_model_digests.json"


def groundings(clause, pools):
    """Every substitution of the clause's variables over pools[sort]."""
    variables = clause_vars(clause)
    for values in product(*[pools[v.sort] for v in variables]):
        yield {v.name: t for v, t in zip(variables, values)}


def body_holds(clause, subst, model):
    for lit in clause.body:
        if isinstance(lit, Atom):
            if subst_atom(lit, subst) not in model:
                return False
        else:
            same = apply_subst(lit.lhs, subst) == apply_subst(lit.rhs, subst)
            if same != isinstance(lit, Eq):
                return False
    return True


def reference_model(problem, depth):
    pools = {s.name: ground_terms(problem, s.name, depth) for s in problem.sorts}
    inside = {sort: set(terms) for sort, terms in pools.items()}
    model = set()
    changed = True
    while changed:
        changed = False
        for _, clause in problem.definite_clauses():
            sorts = problem.predicate(clause.head.pred).arg_sorts
            for subst in groundings(clause, pools):
                head = subst_atom(clause.head, subst)
                if head not in model and body_holds(clause, subst, model) and all(
                    t in inside[s] for t, s in zip(head.args, sorts)
                ):
                    model.add(head)
                    changed = True
    return model


def reference_goal(problem, model, depth):
    """(goal index, sorted substitution) of the first violation, or None,
    with every variable ranging over the terms of depth <= depth."""
    pools = {s.name: ground_terms(problem, s.name, depth) for s in problem.sorts}
    for idx, goal in problem.goal_clauses():
        atoms = [lit for lit in goal.body if isinstance(lit, Atom)]
        in_atoms = {v.name for a in atoms for t in a.args for v in term_vars(t)}
        rest = [v for v in clause_vars(goal) if v.name not in in_atoms]
        best = None
        for subst in groundings(goal, pools):
            if body_holds(goal, subst, model):
                key = (
                    [format_atom(subst_atom(a, subst)) for a in atoms],
                    [pools[v.sort].index(subst[v.name]) for v in rest],
                )
                if best is None or key < best[0]:
                    best = (key, subst)
        if best is not None:
            return idx, tuple(sorted(best[1].items()))
    return None


def check_against_reference(problem, depth):
    atoms, derivation = ground_least_model(problem, depth)
    assert atoms == reference_model(problem, depth)
    for n, atom in enumerate(atoms):
        idx, subst, used = derivation(n)
        clause = problem.clauses[idx]
        assert subst_atom(clause.head, subst) == atom
        assert all(m < n for m in used)
        assert tuple(map(atoms.atom, used)) == tuple(
            subst_atom(lit, subst) for lit in clause.body if isinstance(lit, Atom)
        )
        assert body_holds(clause, subst, atoms)
    derivation = goal_violated(atoms)
    expected = reference_goal(problem, atoms, depth)
    if expected is None:
        assert derivation is None
    else:
        assert derivation is not None
        assert (derivation.goal_index, derivation.substitution) == expected
        assert check_derivation(problem, derivation) == []


def joined_problems():
    """Clauses over nat with a unary, a binary and a nullary predicate,
    whose bodies join several atoms through shared, repeated and nested
    variables, and goals with atoms, so that a violation often has more
    than one solution to choose the first of.  p(z) and r(x, x) come first,
    so that the other clauses have facts to join; the nullary n is a body
    atom and a head like any other."""
    variables = [Var("x", "nat"), Var("y", "nat"), Var("w", "nat")]
    seeds = (Clause(Atom("p", (Z,)), ()), Clause(Atom("r", (variables[0],) * 2), ()))
    terms = st.recursive(st.sampled_from([Z] + variables), lambda inner: inner.map(s), max_leaves=2)

    def atoms_over(terms):
        return st.one_of(
            st.tuples(terms).map(lambda args: Atom("p", args)),
            st.tuples(terms, terms).map(lambda args: Atom("r", args)),
            st.just(Atom("n", ())),
        )

    atoms = atoms_over(terms)
    # Goal atoms without constants match more than one fact.
    open_atoms = atoms_over(st.sampled_from(variables) | st.sampled_from(variables).map(s))
    constraints = st.one_of(
        st.tuples(terms, terms).map(lambda ts: Eq(*ts)),
        st.tuples(terms, terms).map(lambda ts: Diseq(*ts)),
    )
    bodies = st.tuples(st.lists(atoms, max_size=3), st.lists(constraints, max_size=1))
    definite = st.tuples(atoms, bodies).map(lambda hb: Clause(hb[0], tuple(hb[1][0] + hb[1][1])))
    goals = st.tuples(st.lists(open_atoms, min_size=1, max_size=3), st.lists(constraints, max_size=1)).map(
        lambda b: Clause(None, tuple(b[0] + b[1]))
    )
    return st.tuples(st.lists(definite, min_size=1, max_size=5), st.lists(goals, min_size=1, max_size=2)).map(
        lambda cs: Problem(
            make_nat_problem().sorts,
            (PredicateDecl("p", ("nat",)), PredicateDecl("r", ("nat", "nat")), PredicateDecl("n", ())),
            seeds + tuple(cs[0] + cs[1]),
        )
    )


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("index", range(len(FIXTURES)))
def test_fixtures_match_the_reference(index, depth):
    check_against_reference(FIXTURES[index], depth)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("index", range(len(FIXTURES)))
def test_fixtures_match_the_reference_on_chained_joins(chained, index, depth):
    check_against_reference(FIXTURES[index], depth)


@given(st.one_of(small_problems(), joined_problems()), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_random_problems_match_the_reference(problem, depth):
    if validate(problem).ok:
        check_against_reference(problem, depth)


@given(st.one_of(small_problems(), joined_problems()), st.integers(0, 2))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_problems_match_the_reference_on_chained_joins(chained, problem, depth):
    if validate(problem).ok:
        check_against_reference(problem, depth)


# Goals whose variables occur in no body atom: x != z => false, and
# p(y), x != y => false with the fact p(z).  Both are violated at depth 1,
# by x = s(z).
X_NAT, Y_NAT = Var("x", "nat"), Var("y", "nat")
UNBOUND_DISEQ = Problem(make_nat_problem().sorts, (), (Clause(None, (Diseq(X_NAT, Z),)),))
UNBOUND_BESIDE_ATOM = Problem(
    make_nat_problem().sorts,
    (PredicateDecl("p", ("nat",)),),
    (Clause(Atom("p", (Z,)), ()), Clause(None, (Atom("p", (Y_NAT,)), Diseq(X_NAT, Y_NAT)))),
)


@given(st.one_of(small_problems(), joined_problems()), st.integers(1, 2))
@example(UNBOUND_DISEQ, 2)
@example(UNBOUND_BESIDE_ATOM, 2)
@settings(max_examples=150, deadline=None)
def test_solve_answers_agree_with_the_reference(problem, max_states):
    if not validate(problem).ok:
        return
    outcome, log = solve(problem, SolveOptions(max_states=max_states, time_limit=20.0))
    if isinstance(outcome, Sat):
        atoms, _ = ground_least_model(problem, 2)
        assert all(interpret_atom(outcome.automaton, outcome.tables, atom) for atom in atoms)
    elif isinstance(outcome, Unsat):
        assert check_derivation(problem, outcome.derivation) == []
        [depth] = [e.bound for e in log if e.phase == "counterexample" and e.verdict == "found"]
        assert reference_goal(problem, reference_model(problem, depth), depth) is not None
    elif outcome.reason == "budget":
        for depth in range(max_states + 1):
            assert reference_goal(problem, reference_model(problem, depth), depth) is None
    else:
        assert isinstance(outcome, Unknown) and outcome.reason == "timeout"


@given(st.one_of(small_problems(), joined_problems()), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_the_ground_model_on_term_ids_agrees_with_plain_containers(problem, depth):
    # ground_least_model keeps its atoms as term ids; the model must answer
    # len, in and iteration as the set of its Atoms does.
    if not validate(problem).ok:
        return
    plan = GroundPlan(problem)
    model, _ = ground_least_model(problem, depth, plan=plan)
    atoms = set(model)
    assert len(model) == len(atoms) == len(list(model))
    assert [model.number(atom) for atom in model] == list(range(len(model)))
    assert all(atom in model for atom in atoms)
    # An atom deeper than the bound is no member, and asking adds no layer.
    for decl in problem.predicates:
        deeper = Atom(decl.name, tuple(ground_terms(problem, sort, depth + 1)[-1] for sort in decl.arg_sorts))
        assert (deeper in model) == (deeper in atoms) == (model.number(deeper) is not None)
    assert plan.terms.top == depth


def test_a_firing_joins_old_facts_with_new_ones_of_a_later_step():
    # The second firing of q(x) <= r(x, y), p(y) has no new r fact, but the
    # p facts are new since its first firing, which ran before p(z) existed.
    x, y = Var("x", "nat"), Var("y", "nat")
    problem = Problem(
        make_nat_problem().sorts,
        (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",)), PredicateDecl("r", ("nat", "nat"))),
        (
            Clause(Atom("r", (x, x)), ()),
            Clause(Atom("q", (x,)), (Atom("r", (x, y)), Atom("p", (y,)))),
            Clause(Atom("p", (Z,)), ()),
            Clause(Atom("p", (s(x),)), (Atom("p", (x,)),)),
            Clause(None, (Atom("q", (s(x),)),)),
        ),
    )
    check_against_reference(problem, 2)
    atoms, _ = ground_least_model(problem, 2)
    assert Atom("q", (s(s(Z)),)) in atoms


def model_digest(problem, depth, plan=None):
    """sha256 over the ground model's atoms in the order they were added,
    each with its clause, its whole substitution and the atoms it used."""
    model, derivation = ground_least_model(problem, depth, plan=plan)
    digest = hashlib.sha256()
    for n, atom in enumerate(model):
        idx, subst, used = derivation(n)
        binding = ", ".join("%s = %s" % (v, format_term(t)) for v, t in sorted(subst.items()))
        line = "%s <- clause %d {%s} [%s]\n" % (
            format_atom(atom), idx, binding, "; ".join(format_atom(model.atom(m)) for m in used)
        )
        digest.update(line.encode())
    return digest.hexdigest()


def head_shape_problem(*clauses):
    """Clauses over nat with the predicates p(nat), q(nat, nat) and r(nat),
    after the facts p(z) and p(s(x)) <= p(x)."""
    decls = (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat", "nat")), PredicateDecl("r", ("nat",)))
    seeds = (Clause(Atom("p", (Z,)), ()), Clause(Atom("p", (s(X_NAT),)), (Atom("p", (X_NAT,)),)))
    return Problem(make_nat_problem().sorts, decls, seeds + clauses)


# Heads whose terms nest: a variable at two nestings; a ground subterm; a
# variable in no body atom that occurs only under a constructor; and a
# body = over a built term.
HEAD_SHAPES = {
    "two_nestings": head_shape_problem(
        Clause(Atom("q", (X_NAT, s(s(X_NAT)))), (Atom("p", (X_NAT,)),)),
        Clause(Atom("q", (s(Y_NAT), X_NAT)), (Atom("q", (X_NAT, Y_NAT)),)),
        Clause(None, (Atom("q", (X_NAT, X_NAT)),)),
    ),
    "ground_head_subterm": head_shape_problem(
        Clause(Atom("q", (s(s(Z)), X_NAT)), (Atom("p", (X_NAT,)),)),
        Clause(Atom("q", (X_NAT, s(Z))), (Atom("q", (Y_NAT, X_NAT)),)),
    ),
    "universe_under_ctor": head_shape_problem(
        Clause(Atom("r", (s(X_NAT),)), ()),
        Clause(Atom("q", (X_NAT, s(s(Y_NAT)))), (Atom("r", (X_NAT,)),)),
    ),
    "eq_over_built": head_shape_problem(
        Clause(Atom("q", (Y_NAT, s(X_NAT))), (Atom("p", (X_NAT,)), Eq(Y_NAT, s(s(X_NAT))))),
        Clause(Atom("r", (s(Y_NAT),)), (Atom("q", (X_NAT, Y_NAT)), Eq(s(X_NAT), Y_NAT))),
    ),
}


def digest_cases(workloads):
    """(name, problem, depth) per pinned digest: the fixtures at depths 0-3,
    member-rev(2) and the head shapes at depths 0-4 and the mr3-unsat
    input of seed 1 at depth 5.  workloads is perfbench's module."""
    cases = [(path.stem, problem, d) for path, problem in zip(FIXTURE_PATHS, FIXTURES) for d in range(4)]
    cases += [("gen_member_rev_2", gen_member_rev(2), d) for d in range(5)]
    cases += [(name, problem, d) for name, problem in HEAD_SHAPES.items() for d in range(5)]
    cases.append(("mr3_unsat_seed1", workloads.mr3_unsat_problem(workloads.draw_list(1)), 5))
    return cases


def test_ground_models_match_pinned_digests(perfbench):
    # Pins the order atoms are added in and every atom's derivation, which
    # the oracle above leaves free.
    cases = digest_cases(perfbench("workloads"))
    pinned = json.loads(DIGESTS.read_text())
    got = {"%s@%d" % (name, d): model_digest(problem, d) for name, problem, d in cases}
    assert got == pinned
    # The same models from one plan per problem, as the depths of a solve
    # share it: in ascending depth order, and from a plan whose table is
    # already a layer deeper than the depth asked for.
    plans = {}
    for name, problem, d in cases:
        if name not in plans:
            plans[name] = GroundPlan(problem)
        got["%s@%d" % (name, d)] = model_digest(problem, d, plans[name])
    assert got == pinned
    for name, problem, d in cases:
        plan = GroundPlan(problem)
        plan.terms.extend(d + 1)
        got["%s@%d" % (name, d)] = model_digest(problem, d, plan)
    assert got == pinned


def test_no_head_past_the_depth_bound_is_built():
    # The depths share one plan, whose table holds no layer past the bound,
    # so a head term built too deep misses the table's build dict.
    # member-rev(3) has no = on built terms and looks up no body atom by a
    # built term but nil, so every miss would be such a head.
    class Counting(dict):
        misses = 0

        def get(self, key, default=None):
            if key not in self:
                self.misses += 1
            return dict.get(self, key, default)

    problem = gen_member_rev(3)
    plan = GroundPlan(problem)
    plan.terms.build = Counting(plan.terms.build)
    for depth in range(1, 6):
        ground_least_model(problem, depth, plan=plan)
    assert plan.terms.build.misses == 0


@pytest.mark.parametrize("depth", [4, 5])
def test_a_ground_model_keeps_few_tracked_objects_per_atom(perfbench, depth):
    # Each atom keeps its argument tuple and now and then a new index
    # bucket; its provenance is a run of ints in one flat list.  The
    # objects the cyclic collector tracks are what each collection walks.
    workloads = perfbench("workloads")
    problem = workloads.mr3_unsat_problem(workloads.draw_list(1))
    plan = GroundPlan(problem)
    plan.terms.extend(depth)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        model, _ = ground_least_model(problem, depth, plan=plan)
        kept = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(model) > 1000
    assert kept <= 2 * len(model), "%d tracked objects for %d atoms" % (kept, len(model))


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_ground_oracle writes the digest
    # golden anew, importing perfbench's workloads as the fixture does,
    # without writing bytecode under perfbench/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    cases = digest_cases(importlib.import_module("workloads"))
    got = {"%s@%d" % (name, d): model_digest(problem, d) for name, problem, d in cases}
    DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
