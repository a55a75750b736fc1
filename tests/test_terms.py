"""The term helpers on core.subterms, and App's repr: gates on terms and
derivations 2,000 levels deep, far past Python's recursion limit, and a
differential test against the recursive definitions, kept here as the
reference."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Z, nat, s
from regmod import asp
from regmod.automaton import TreeAutomaton, run_term
from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    Derivation,
    PredicateDecl,
    Problem,
    SortDecl,
    Step,
    TermTable,
    Var,
    check_derivation,
    format_atom,
    format_term,
    ground_least_model,
    is_ground,
    subterms,
    term_vars,
)
from regmod.driver import Unsat, outcome_to_json, render_outcome
from regmod.frontend import parse_problem
from regmod.interpretation import interpret_atom

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DEEP = 2000
X = Var("x", "nat")

# z reaches 2, s flips 1 and 2: the state of s^n(z) is 2 when n is even.
PARITY = TreeAutomaton((("nat", 1, 2),), {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1})


def deep_chain(n, base):
    t = base
    for _ in range(n):
        t = s(t)
    return t


# ---------------------------------------------------------------------------
# Gates: each helper on a term 2,000 levels deep


def test_printers_on_a_deep_chain():
    t = nat(DEEP)
    text = "s(" * DEEP + "z" + ")" * DEEP
    assert format_term(t) == text
    assert format_atom(Atom("even", (t, Z))) == "even(%s, z)" % text
    assert format_atom(Atom("even", ())) == "even"


def test_format_term_on_a_100000_deep_chain():
    # Written once as tokens, so the chain costs its length, not its square.
    n = 100_000
    assert format_term(nat(n)) == "s(" * n + "z" + ")" * n
    assert format_term(deep_chain(n, X)) == "s(" * n + "x" + ")" * n


def test_repr_of_a_deep_chain():
    # 3,000 levels, past the recursion limit a recursive repr would hit.
    n = 3000
    text = "App(ctor='s', args=(" * n + "App(ctor='z', args=())" + ",))" * n
    assert repr(nat(n)) == text
    assert repr(Atom("even", (nat(n),))) == "Atom(pred='even', args=(%s,))" % text
    var = "Var(name='x', sort='nat')"
    assert repr(deep_chain(n, X)) == "App(ctor='s', args=(" * n + var + ",))" * n


def test_groundness_and_depth_on_a_deep_chain():
    assert is_ground(nat(DEEP))
    assert not is_ground(deep_chain(DEEP, X))
    assert len(list(subterms(nat(DEEP)))) == DEEP + 1


def test_equality_on_deep_chains_built_separately():
    assert nat(DEEP) == nat(DEEP)
    assert hash(nat(DEEP)) == hash(nat(DEEP))
    assert nat(DEEP) != nat(DEEP - 1)
    assert nat(DEEP) != deep_chain(DEEP, X)
    assert deep_chain(DEEP, X) == deep_chain(DEEP, Var("x", "nat"))
    assert Atom("even", (nat(DEEP),)) == Atom("even", (nat(DEEP),))


def test_automaton_runs_a_deep_chain():
    assert run_term(PARITY, nat(DEEP)) == 2
    assert run_term(PARITY, nat(DEEP + 1)) == 1
    assert interpret_atom(PARITY, {"even": {(2,)}}, Atom("even", (nat(DEEP),)))


def test_model_membership_of_a_deep_atom():
    problem = parse_problem((PROBLEMS / "even_ssz_unsat.smt2").read_text())
    model, _ = ground_least_model(problem, DEEP)
    assert Atom("even", (nat(DEEP),)) in model
    assert Atom("even", (nat(DEEP - 1),)) not in model
    assert Atom("even", (nat(DEEP + 2),)) not in model


def test_counterexample_program_to_depth_600():
    problem = parse_problem((PROBLEMS / "even_ssz_unsat.smt2").read_text())
    text = asp.emit_counterexample_search(problem, 600)
    assert "dom(nat, %sz%s)." % ("s(" * 600, ")" * 600) in text


def alternating_problem():
    """p(z), p(x) => q(x), q(x) => p(s(x)) and the goal p(x) => false."""
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (PredicateDecl("p", ("nat",)), PredicateDecl("q", ("nat",)))
    clauses = (
        Clause(Atom("p", (Z,)), ()),
        Clause(Atom("q", (X,)), (Atom("p", (X,)),)),
        Clause(Atom("p", (s(X),)), (Atom("q", (X,)),)),
        Clause(None, (Atom("p", (X,)),)),
    )
    return Problem(sorts, preds, clauses)


def deep_derivation(k):
    """A hand-built derivation of k + 1 steps, each but the first a premise
    of the next: p(s^j(z)) is proved from q(s^(j-1)(z)), which is proved
    from p(s^(j-1)(z)), so the top atom is k / 2 levels deep.  The atoms'
    terms and the substitutions' are two chains built apart, so every
    comparison check_derivation makes walks both to the bottom."""
    atom_term, subst_term = Z, App("z")
    steps = [Step(Atom("p", (atom_term,)), 0, (), ())]
    for _ in range(k // 2):
        steps.append(Step(Atom("q", (atom_term,)), 1, (("x", subst_term),), (len(steps) - 1,)))
        atom_term = s(atom_term)
        steps.append(Step(Atom("p", (atom_term,)), 2, (("x", subst_term),), (len(steps) - 1,)))
        subst_term = s(subst_term)
    return Derivation(3, (("x", subst_term),), tuple(steps), (len(steps) - 1,))


def test_a_derivation_2000_steps_deep_replays_and_renders():
    derivation = deep_derivation(DEEP)
    assert check_derivation(alternating_problem(), derivation) == []
    text = render_outcome(Unsat(derivation))
    assert "Counterexample! Goal clause 3 is violated with x = %s\n" % format_term(nat(DEEP // 2)) in text
    assert text.count("[clause") == DEEP + 1
    assert "\n" + "  " * (DEEP + 1) + "p(z)   [clause 0]\n" in text
    json_text = json.dumps(outcome_to_json(Unsat(derivation)), indent=2)
    assert json_text.count('"atom"') == DEEP + 1
    assert '"atom": "p(z)"' in json_text


def test_a_derivation_of_3000_steps_has_a_repr_and_a_hash():
    # A chain: each step's premise is the step before.  Steps name their
    # premises by number, so no record nests another step.
    steps = tuple(Step(Atom("p", (Z,)), 0, (), (n - 1,) if n else ()) for n in range(3000))
    derivation = Derivation(1, (), steps, (2999,))
    assert repr(derivation).count("Step(") == 3000
    assert hash(derivation) == hash(Derivation(1, (), steps, (2999,)))


# ---------------------------------------------------------------------------
# The recursive definitions the helpers replace


def ref_subterms(t):
    return [u for a in getattr(t, "args", ()) for u in ref_subterms(a)] + [t]


def ref_format_term(t):
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.ctor
    return "%s(%s)" % (t.ctor, ", ".join(ref_format_term(a) for a in t.args))


def ref_repr(t):
    if isinstance(t, Var):
        return repr(t)
    args = [ref_repr(a) for a in t.args]
    return "App(ctor=%r, args=(%s))" % (t.ctor, ", ".join(args) + ("," if len(args) == 1 else ""))


def ref_term_vars(t):
    return [t] if isinstance(t, Var) else [v for a in t.args for v in ref_term_vars(a)]


def ref_is_ground(t):
    return not isinstance(t, Var) and all(ref_is_ground(a) for a in t.args)


def ref_equal(t, u):
    if isinstance(t, Var) or isinstance(u, Var):
        return t.__class__ is u.__class__ and (t.name, t.sort) == (u.name, u.sort)
    return (
        t.ctor == u.ctor
        and len(t.args) == len(u.args)
        and all(ref_equal(a, b) for a, b in zip(t.args, u.args))
    )


def ref_run_term(a, t):
    if isinstance(t, Var):
        raise ValueError("cannot run the automaton on the variable %s" % t.name)
    key = (t.ctor, tuple(ref_run_term(a, arg) for arg in t.args))
    if key not in a.delta:
        raise ValueError("no transition for %s(%s)" % (key[0], key[1]))
    return a.delta[key]


def ref_find(table, t):
    if isinstance(t, Var):
        return None
    ids = [ref_find(table, a) for a in t.args]
    return None if None in ids else table.build.get((t.ctor, tuple(ids)))


def ref_term_str(t, vmap, names):
    if isinstance(t, Var):
        return vmap[t.name]
    return asp._ctor_term(names[t.ctor], [ref_term_str(a, vmap, names) for a in t.args])


# ---------------------------------------------------------------------------
# Differential test on terms that share subterm objects

TREES = Problem(
    (SortDecl("t", (Constructor("z"), Constructor("s", ("t",)), Constructor("node", ("t", "t")))),),
    (PredicateDecl("p", ("t", "t")),),
    (),
)
TABLE = TermTable(TREES)
TABLE.extend(3)
NAMES = {"z": "z", "s": "s", "node": "node", "f": "f_", "p": "p"}
VMAP = {"x": "X0", "y": "X1"}
ARITY = {"z": 0, "s": 1, "node": 2}

# A recipe builds a term step by step: each step applies a constructor to
# earlier terms, picked by index, so a term may use one object many times.
# f takes 0-2 arguments, so that terms of one constructor differ in arity.
recipes = st.lists(
    st.tuples(st.sampled_from(["z", "s", "node", "f"]), st.integers(0, 40), st.integers(0, 40)),
    max_size=14,
)


def build(recipe):
    """The last term of the recipe; each call builds new objects."""
    pool = [App("z"), Var("x", "t"), Var("y", "t")]
    for ctor, i, j in recipe:
        arity = ARITY.get(ctor, i % 3)
        pool.append(App(ctor, tuple(pool[k % len(pool)] for k in (i, j)[:arity])))
    return pool[-1]


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError: %s" % e


@settings(max_examples=200, deadline=None)
@given(recipes, recipes, st.lists(st.sampled_from([0, 1, 2]), min_size=7, max_size=7))
def test_helpers_match_their_recursive_definitions(recipe, other, targets):
    t, u = build(recipe), build(other)
    assert [id(v) for v in subterms(t)] == [id(v) for v in ref_subterms(t)]
    assert format_term(t) == ref_format_term(t)
    assert format_atom(Atom("p", (t, u))) == "p(%s, %s)" % (ref_format_term(t), ref_format_term(u))
    assert repr(t) == ref_repr(t)
    assert [id(v) for v in term_vars(t)] == [id(v) for v in ref_term_vars(t)]
    assert is_ground(t) == ref_is_ground(t)
    assert TABLE._find(t) == ref_find(TABLE, t)
    assert asp._term_str(t, VMAP, NAMES) == ref_term_str(t, VMAP, NAMES)
    assert asp._atom_str(Atom("p", (t, u)), VMAP, NAMES) == asp._ctor_term(
        "p", [ref_term_str(t, VMAP, NAMES), ref_term_str(u, VMAP, NAMES)]
    )
    # An automaton over two states, with the transitions whose target is 0
    # missing, so that both errors of run_term occur.
    keys = [("z", ()), ("s", (1,)), ("s", (2,)), ("node", (1, 1)), ("node", (1, 2)),
            ("node", (2, 1)), ("node", (2, 2))]
    a = TreeAutomaton((("t", 1, 2),), {k: q for k, q in zip(keys, targets) if q})
    assert outcome(run_term, a, t) == outcome(ref_run_term, a, t)
    # Equality: against another term, a copy with no object in common, and
    # the term one step short of it.
    for v in (u, build(recipe), build(recipe[:-1])):
        equal = ref_equal(t, v)
        assert (t == v) is equal and (t != v) is (not equal)
        assert (v == t) is equal
        if equal:
            assert hash(t) == hash(v)
