"""Every public record: repr text, equality, hash, immutability and
construction with keywords and defaults.  The repr strings are those the
same classes gave as frozen dataclasses."""

import pytest

from regmod import asp
from regmod.automaton import TreeAutomaton
from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    Derivation,
    Diseq,
    Eq,
    PredicateDecl,
    Problem,
    ProofTree,
    SortDecl,
    ValidationReport,
    Var,
    record,
)
from regmod.driver import PhaseEvent, Sat, SolveOptions, Unknown, Unsat, outcome_to_json
from regmod.frontend import SourceSpan
from regmod.interpretation import FlatClause, ModelViolation, Plan

Z = App("z")
X = Var("x", "nat")
EVEN_Z = Atom("even", (Z,))
NAT = SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",))))
PROOF = ProofTree(EVEN_Z, 0, (("x", Z),), ())
PARITY = TreeAutomaton((("nat", 1, 2),), {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1})
FLAT = FlatClause(("even", (0,)), (), (("z", (), 0),), (), (), ("nat",))

Z_TEXT = "App(ctor='z', args=())"
X_TEXT = "Var(name='x', sort='nat')"
EVEN_Z_TEXT = "Atom(pred='even', args=(%s,))" % Z_TEXT
NAT_TEXT = (
    "SortDecl(name='nat', constructors=(Constructor(name='z', arg_sorts=()), "
    "Constructor(name='s', arg_sorts=('nat',))))"
)
PROOF_TEXT = "ProofTree(atom=%s, clause_index=0, substitution=(('x', %s),), children=())" % (EVEN_Z_TEXT, Z_TEXT)
PARITY_TEXT = (
    "TreeAutomaton(state_ranges=(('nat', 1, 2),), "
    "delta={('z', ()): 2, ('s', (1,)): 2, ('s', (2,)): 1})"
)
FLAT_TEXT = (
    "FlatClause(head=('even', (0,)), pred_literals=(), transitions=(('z', (), 0),), "
    "diseqs=(), generators=(), var_sorts=('nat',))"
)

# (build a record, its repr, a record of the same class, or of a sibling,
# that differs from it)
CASES = [
    (lambda: Var("x", "nat"), X_TEXT, Var("y", "nat")),
    (lambda: App("s", (App("z"),)), "App(ctor='s', args=(%s,))" % Z_TEXT, App("s", (X,))),
    (lambda: Atom("even", (Z,)), EVEN_Z_TEXT, Atom("odd", (Z,))),
    (lambda: Eq(X, Z), "Eq(lhs=%s, rhs=%s)" % (X_TEXT, Z_TEXT), Diseq(X, Z)),
    (lambda: Diseq(X, Z), "Diseq(lhs=%s, rhs=%s)" % (X_TEXT, Z_TEXT), Eq(X, Z)),
    (lambda: Clause(EVEN_Z, ()), "Clause(head=%s, body=())" % EVEN_Z_TEXT, Clause(None, (EVEN_Z,))),
    (lambda: Constructor("s", ("nat",)), "Constructor(name='s', arg_sorts=('nat',))", Constructor("s")),
    (lambda: NAT, NAT_TEXT, SortDecl("nat", (Constructor("z"),))),
    (lambda: PredicateDecl("even", ("nat",)), "PredicateDecl(name='even', arg_sorts=('nat',))",
     PredicateDecl("odd", ("nat",))),
    (lambda: Problem((NAT,), (), ()), "Problem(sorts=(%s,), predicates=(), clauses=())" % NAT_TEXT,
     Problem((NAT,), (), (Clause(EVEN_Z, ()),))),
    (lambda: ValidationReport(["e"], []), "ValidationReport(errors=['e'], warnings=[])",
     ValidationReport([], ["e"])),
    (lambda: ProofTree(EVEN_Z, 0, (("x", Z),), ()), PROOF_TEXT, ProofTree(EVEN_Z, 1, (("x", Z),), ())),
    (lambda: Derivation(3, (), (PROOF,)), "Derivation(goal_index=3, substitution=(), proofs=(%s,))" % PROOF_TEXT,
     Derivation(2, (), (PROOF,))),
    (lambda: SourceSpan(0, 3, 1, 1), "SourceSpan(start=0, end=3, line=1, column=1)", SourceSpan(0, 3, 1, 2)),
    (lambda: TreeAutomaton(PARITY.state_ranges, dict(PARITY.delta)), PARITY_TEXT,
     TreeAutomaton(PARITY.state_ranges, {})),
    (lambda: FlatClause(("even", (0,)), (), (("z", (), 0),), (), (), ("nat",)), FLAT_TEXT,
     FlatClause(None, (), (("z", (), 0),), (), (), ("nat",))),
    (lambda: Plan(0, FLAT, ()), "Plan(clause_index=0, flat=%s, steps=())" % FLAT_TEXT, Plan(1, FLAT, ())),
    (lambda: ModelViolation(2, "goal", (1,)), "ModelViolation(clause_index=2, kind='goal', assignment=(1,))",
     ModelViolation(2, "closure", (1,))),
    (lambda: Sat(PARITY, {"even": {(2,)}}),
     "Sat(automaton=%s, tables={'even': {(2,)}})" % PARITY_TEXT, Sat(PARITY, {})),
    (lambda: Unsat(Derivation(3, (), ())),
     "Unsat(derivation=Derivation(goal_index=3, substitution=(), proofs=()))", Unsat(Derivation(4, (), ()))),
    (lambda: Unknown("budget"), "Unknown(reason='budget', detail='')", Unknown("timeout")),
    (lambda: PhaseEvent("model", 2, 0.5, "none", work=0),
     "PhaseEvent(phase='model', bound=2, seconds=0.5, verdict='none', work=0)",
     PhaseEvent("model", 2, 0.5, "none", work=1)),
    (lambda: SolveOptions(),
     "SolveOptions(backend='native', max_states=8, max_depth=None, time_limit=None, "
     "symmetry_breaking=True, solver=None)", SolveOptions(max_states=9)),
    (lambda: asp.SolverConfig("clingo"),
     "SolverConfig(path='clingo', time_limit=None, extra_args=(), sat_codes=frozenset({10, 30}), "
     "unsat_codes=frozenset({20}))", asp.SolverConfig("clingo", 1.0)),
    (lambda: asp.SolverRun(10, 0.5, "out", "", "sat"),
     "SolverRun(exit_status=10, wall_seconds=0.5, output='out', errors='', outcome='sat')",
     asp.SolverRun(20, 0.5, "out", "", "unsat")),
]
IDS = [type(make()).__name__ for make, _, _ in CASES]


def hashed(value):
    """The hash, or None for a record with an unhashable field."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("make, text, other", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(make, text, other):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, other", CASES, ids=IDS)
def test_equality_and_hash(make, text, other):
    a, b = make(), make()
    assert a == b and not a != b
    assert hashed(a) == hashed(b)
    if hashed(a) is not None:
        assert len({a, b}) == 1
    assert a != other and not a == other
    assert a != text and a != object()


@pytest.mark.parametrize("make, text, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text, other):
    a = make()
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert repr(a) == text


def test_eq_and_diseq_over_the_same_terms_differ():
    assert Eq(X, Z) != Diseq(X, Z)
    assert not Eq(X, Z) == Diseq(X, Z)
    assert len({Eq(X, Z), Diseq(X, Z)}) == 2


def test_keyword_and_default_construction():
    assert SolveOptions() == SolveOptions("native", 8, None, None, True, None)
    assert SolveOptions(max_depth=0, backend="asp") == SolveOptions("asp", 8, 0)
    assert Unknown("budget").detail == ""
    assert Unknown(reason="timeout", detail="d") == Unknown("timeout", "d")
    assert PhaseEvent("model", 2, 0.5, "none", work=0) == PhaseEvent("model", 2, 0.5, "none")
    assert Constructor("z") == Constructor("z", ())
    assert App("z") == App("z", ())
    config = asp.SolverConfig("clingo", extra_args=("0",))
    assert (config.time_limit, config.extra_args, config.unsat_codes) == (None, ("0",), frozenset({20}))
    with pytest.raises(TypeError):
        Unknown()
    with pytest.raises(TypeError):
        Unknown("budget", "", "extra")


def test_vars_of_a_phase_event_is_its_fields_in_order():
    e = PhaseEvent("counterexample", 1, 0.25, "found", 7)
    assert vars(e) == {"phase": "counterexample", "bound": 1, "seconds": 0.25, "verdict": "found", "work": 7}
    assert outcome_to_json(Unknown("budget"), (e,))["log"] == [vars(e)]


def test_problem_derives_its_lookups():
    p = Problem((NAT,), (PredicateDecl("even", ("nat",)),), ())
    assert p.constructor("s") == (Constructor("s", ("nat",)), "nat")
    assert p.has_predicate("even") and not p.has_predicate("odd")


def test_record_rejects_a_field_without_default_after_one_with():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError):
        record(Bad)
