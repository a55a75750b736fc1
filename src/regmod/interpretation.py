"""Interpreting clauses over a tree automaton.

A clause is flattened into constraints over state variables: predicate
literals become table lookups, each constructor occurrence becomes one
transition constraint, equations merge state variables (sound because the
automaton is deterministic), and disequations become diff_approx checks.
Variables in no predicate literal and no transition (bare in the head, in
disequations or in equations between variables) are generators: they range
over the inhabited states of their sort, the only states ground terms
reach, which is how universally quantified head variables are interpreted.
Every other variable ranges over the states a transition or a table row
allows, inhabited or not, as in the ASP encoding's rule/2.

The least predicate tables are the fixpoint of the flattened definite
clauses.  least_tables computes it in naive rounds, the reference;
FixpointEngine keeps it semi-naively, with indexes and an undo trail, for
the model search, and tries the goals whole once it is reached.  A goal
is a check on a candidate model, as in the ASP encoding's integrity
constraints, not a rule that derives facts.  A model check
replays every clause against given tables and reports the first failure
under a fixed clause and assignment order.

Each clause is compiled to a plan of steps.  _solutions interprets a
plan, and it is the reference: least_tables and the model check run it
over a snapshot of fixed tables that indexes each relation once.  The
engine runs each plan as generated loops instead (plancode), bound to it
once, which find the same solutions in the same order; a definite plan
files its new head rows itself, and pop() undoes through generated code
per relation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import plancode
from .automaton import (
    EMPTY,
    PredicateTables,
    Transition,
    TreeAutomaton,
    diff_approx,
    inhabitation,
    run_term,
    terms_reaching,
)
from .core import App, Atom, Clause, Diseq, Eq, Problem, Term, Var, record

PredLit = Tuple[str, Tuple[int, ...]]
TransCon = Tuple[str, Tuple[int, ...], int]


@record
class FlatClause:
    """Clause over state variables 0..n_vars-1.  head is None for goals;
    generators list the variables constrained by nothing but their sort."""

    head: Optional[PredLit]
    pred_literals: Tuple[PredLit, ...]
    transitions: Tuple[TransCon, ...]
    diseqs: Tuple[Tuple[int, int], ...]
    generators: Tuple[int, ...]
    var_sorts: Tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return len(self.var_sorts)


def flatten(problem: Problem, clause: Clause) -> FlatClause:
    """Deterministic flattening: state variables are allocated scanning the
    body left to right and then the head, arguments before the surrounding
    constructor, named variables shared, constructor occurrences fresh.
    Equations merge variables; the result is renumbered compactly."""
    var_of: Dict[str, int] = {}
    sorts: List[str] = []
    transitions: List[TransCon] = []

    def alloc(sort: str) -> int:
        sorts.append(sort)
        return len(sorts) - 1

    def walk(t: Term) -> int:
        if isinstance(t, Var):
            if t.name not in var_of:
                var_of[t.name] = alloc(t.sort)
            return var_of[t.name]
        args = tuple(walk(a) for a in t.args)
        sv = alloc(problem.constructor(t.ctor)[1])
        transitions.append((t.ctor, args, sv))
        return sv

    pred_literals: List[PredLit] = []
    eqs: List[Tuple[int, int]] = []
    diseqs: List[Tuple[int, int]] = []
    for lit in clause.body:
        if isinstance(lit, Atom):
            pred_literals.append((lit.pred, tuple(walk(a) for a in lit.args)))
        elif isinstance(lit, Eq):
            eqs.append((walk(lit.lhs), walk(lit.rhs)))
        else:
            diseqs.append((walk(lit.lhs), walk(lit.rhs)))
    head: Optional[PredLit] = None
    if clause.head is not None:
        head = (clause.head.pred, tuple(walk(a) for a in clause.head.args))

    # Union-find with the smallest member as representative, so merging is
    # deterministic.
    parent = list(range(len(sorts)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in eqs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo

    # Renumber representatives in first-occurrence order over the clause
    # structure, so equal clauses flatten identically.
    compact: Dict[int, int] = {}
    new_sorts: List[str] = []

    def renum(sv: int) -> int:
        rep = find(sv)
        if rep not in compact:
            compact[rep] = len(new_sorts)
            new_sorts.append(sorts[rep])
        return compact[rep]

    new_preds = tuple((p, tuple(renum(v) for v in vs)) for p, vs in pred_literals)
    seen_trans: Set[TransCon] = set()
    new_trans: List[TransCon] = []
    for ctor, args, res in transitions:
        t = (ctor, tuple(renum(v) for v in args), renum(res))
        if t not in seen_trans:
            seen_trans.add(t)
            new_trans.append(t)
    new_head = None
    if head is not None:
        new_head = (head[0], tuple(renum(v) for v in head[1]))
    new_diseqs = tuple((renum(a), renum(b)) for a, b in diseqs)
    for sv in range(len(sorts)):
        renum(sv)  # reach variables mentioned only in equations

    constrained: Set[int] = set()
    for _, vs in new_preds:
        constrained.update(vs)
    for _, args, res in new_trans:
        constrained.update(args)
        constrained.add(res)
    generators = tuple(
        sv for sv in range(len(new_sorts)) if sv not in constrained
    )
    return FlatClause(
        head=new_head,
        pred_literals=new_preds,
        transitions=tuple(new_trans),
        diseqs=new_diseqs,
        generators=generators,
        var_sorts=tuple(new_sorts),
    )


# ---------------------------------------------------------------------------
# Satisfying assignments of a flat clause body
#
# A plan is compiled for the variables assigned before it starts, so the
# argument positions each step finds bound are known in advance.  Steps:
#
#   ("pred", rel, key_vars, outs, checks)   join a predicate table
#   ("enum", rel, key_vars, outs, checks)   join the transitions of a
#                                           constructor, as rows args+(target,)
#   ("seed", rel, (), outs, checks)         bind the fact the plan is seeded on
#   ("fwd", ctor, args, res, res_bound)     look the target up in delta
#   ("diseq", va, vb)                       diff_approx of two states
#   ("gen", sv, sort)                       every inhabited state of the sort
#
# rel is (kind, name, mask): the relation and the bound positions a join
# looks it up by, key_vars the variables at those positions.  outs assigns
# the first occurrence of each unbound variable from a row, checks compares
# its repeated occurrences.

Step = Tuple
Relation = Tuple[str, str, Tuple[int, ...]]
Row = Tuple[int, ...]
# The engine trigger besides ("pred", p) and ("enum", c): an inhabitation
# count rose, or the engine started.
RAISED = ("inh", "")


@record
class Plan:
    """A clause body compiled for evaluation, whole or seeded on one of its
    literals."""

    clause_index: int
    flat: FlatClause
    steps: Tuple[Step, ...]


def _plan(
    index: int, flat: FlatClause, seed: Optional[Tuple[str, int]] = None
) -> Plan:
    """Constraint order: joins and propagations before blind enumeration.
    Deterministic, derived from the clause alone.  seed, ("pred", i) or
    ("enum", i) for transition i, names a literal whose fact is given up
    front: the plan binds it first and leaves the literal out."""
    steps: List[Step] = []
    assigned: Set[int] = set()
    preds = list(range(len(flat.pred_literals)))
    trans = list(range(len(flat.transitions)))
    diseqs = list(range(len(flat.diseqs)))

    def join(kind: str, name: str, vs: Tuple[int, ...]) -> None:
        mask: List[int] = []
        outs: List[Tuple[int, int]] = []
        checks: List[Tuple[int, int]] = []
        fresh: List[int] = []
        for p, v in enumerate(vs):
            if v in assigned:
                mask.append(p)
            elif v in fresh:
                checks.append((p, v))
            else:
                fresh.append(v)
                outs.append((p, v))
        assigned.update(fresh)
        rel = (kind, name, tuple(mask))
        steps.append((kind, rel, tuple([vs[p] for p in mask]), tuple(outs), tuple(checks)))

    def absorb() -> None:
        changed = True
        while changed:
            changed = False
            for ti in list(trans):
                ctor, args, res = flat.transitions[ti]
                if all(v in assigned for v in args):
                    steps.append(("fwd", ctor, args, res, res in assigned))
                    trans.remove(ti)
                    assigned.add(res)
                    changed = True
            for di in list(diseqs):
                a, b = flat.diseqs[di]
                if a in assigned and b in assigned:
                    steps.append(("diseq", a, b))
                    diseqs.remove(di)
                    changed = True

    if seed is not None:
        kind, i = seed
        if kind == "pred":
            preds.remove(i)
            join("seed", *flat.pred_literals[i])
        else:
            trans.remove(i)
            ctor, args, res = flat.transitions[i]
            join("seed", ctor, args + (res,))
    absorb()
    while preds or trans:
        if preds:
            join("pred", *flat.pred_literals[preds.pop(0)])
        else:
            ctor, args, res = flat.transitions[trans.pop(0)]
            join("enum", ctor, args + (res,))
        absorb()
    for sv in flat.generators:
        if sv not in assigned:
            steps.append(("gen", sv, flat.var_sorts[sv]))
            assigned.add(sv)
    absorb()
    return Plan(index, flat, tuple(steps))


class SeededPlans(NamedTuple):
    """What a FixpointEngine runs.

    triggers maps ("pred", p) and ("enum", c) to the definite clause
    variants seeded on a body literal of p or on a c-transition, and RAISED
    to the whole plans of definite clauses with a disequation, a generator,
    or neither a predicate literal nor a transition, in clause order.
    goals holds every goal's whole plan, in clause order: a goal derives
    nothing, so it gets no variant.
    relations maps each source, such as ("pred", p), to the
    (kind, name, mask) relations of it, sorted, that a plan in triggers or
    goals joins through; no other plan is run."""

    triggers: Dict[Tuple[str, str], List[Plan]]
    goals: Tuple[Plan, ...]
    relations: Dict[Tuple[str, str], Tuple[Relation, ...]]


class ClausePlans:
    """Flattened clauses with their execution plans, compiled once per
    problem and reused across automata.  clauses holds each clause's whole
    plan, goals included, in clause order.  The seeded variants only a
    FixpointEngine runs are compiled when one first asks for them."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.clauses: List[Plan] = [
            _plan(i, flatten(problem, clause)) for i, clause in enumerate(problem.clauses)
        ]

    @cached_property
    def seeded(self) -> SeededPlans:
        triggers: Dict[Tuple[str, str], List[Plan]] = {}
        goals = tuple(whole for whole in self.clauses if whole.flat.head is None)
        for whole in self.clauses:
            i, flat = whole.clause_index, whole.flat
            if flat.head is None:
                continue
            for li, (pred, _) in enumerate(flat.pred_literals):
                triggers.setdefault(("pred", pred), []).append(_plan(i, flat, ("pred", li)))
            for ti, (ctor, _, _) in enumerate(flat.transitions):
                triggers.setdefault(("enum", ctor), []).append(_plan(i, flat, ("enum", ti)))
            if flat.diseqs or flat.generators or not (flat.pred_literals or flat.transitions):
                triggers.setdefault(RAISED, []).append(whole)
        run = list(goals) + [plan for plans in triggers.values() for plan in plans]
        relations: Dict[Tuple[str, str], Tuple[Relation, ...]] = {}
        for rel in sorted({step[1] for plan in run for step in plan.steps if step[0] in ("pred", "enum")}):
            relations[rel[:2]] = relations.get(rel[:2], ()) + (rel,)
        return SeededPlans(triggers, goals, relations)


def _solutions(plan: Plan, db, fact: Row = ()) -> Iterator[List[int]]:
    """All assignments satisfying the body constraints, in a fixed order
    given the order db.lookup returns rows in: the reference interpreter of
    plans, which the engine's generated code follows step for step.  db is
    a _Snapshot, whose lookups return rows in sorted order, or a
    FixpointEngine; fact is the seed of a seeded plan.  Yields one mutable
    assignment list; callers must copy to keep it."""
    steps = plan.steps
    last = len(steps)
    sigma: List[int] = [0] * plan.flat.n_vars
    a = db.automaton
    delta = a.delta
    inh = db.inh
    lookup = db.lookup

    def run(i):  # unannotated: the annotation would be evaluated per call
        if i == last:
            yield sigma
            return
        step = steps[i]
        kind = step[0]
        if kind == "fwd":
            _, ctor, args, res, res_bound = step
            target = delta.get((ctor, tuple([sigma[v] for v in args])))
            if target is None:
                return
            if res_bound:
                if sigma[res] == target:
                    yield from run(i + 1)
                return
            sigma[res] = target
            yield from run(i + 1)
        elif kind == "diseq":
            if diff_approx(sigma[step[1]], sigma[step[2]], inh):
                yield from run(i + 1)
        elif kind == "gen":
            sv = step[1]
            for q in a.states_of(step[2]):
                if inh[q] != EMPTY:
                    sigma[sv] = q
                    yield from run(i + 1)
        else:
            _, rel, key_vars, outs, checks = step
            if kind == "seed":
                rows: Sequence[Row] = (fact,)
            else:
                rows = lookup(rel, tuple([sigma[v] for v in key_vars]))
            for row in rows:
                for p, v in outs:
                    sigma[v] = row[p]
                for p, v in checks:
                    if row[p] != sigma[v]:
                        break
                else:
                    yield from run(i + 1)

    return run(0)


class _Snapshot:
    """Lookups over fixed tables through one index per relation.  The first
    lookup of a (kind, name, mask) relation sorts its rows and buckets them
    by their values at mask, so a bucket holds the rows that sorting and
    filtering the whole relation would give, in the same order: the
    reference evaluation order.  The tables must not change while the
    snapshot is read."""

    def __init__(self, a: TreeAutomaton, tables: PredicateTables, inh: Dict[int, int]):
        self.automaton = a
        self.tables = tables
        self.inh = inh
        self.indexes: Dict[Relation, Dict[Row, List[Row]]] = {}

    def lookup(self, rel: Relation, key: Row) -> Sequence[Row]:
        index = self.indexes.get(rel)
        if index is None:
            kind, name, mask = rel
            if kind == "pred":
                rows = sorted(self.tables.get(name, ()))
            else:
                rows = sorted(
                    args + (q,) for (c, args), q in self.automaton.delta.items() if c == name
                )
            index = self.indexes[rel] = {}
            for row in rows:
                index.setdefault(tuple([row[p] for p in mask]), []).append(row)
        return index.get(key, ())


def least_tables(
    a: TreeAutomaton,
    problem: Problem,
    plans: Optional[ClausePlans] = None,
) -> PredicateTables:
    """Least fixpoint of the flattened definite clauses over the automaton,
    by naive rounds over every clause: the reference FixpointEngine is
    tested against.  Each round reads a snapshot of the tables as they
    stood when it began, and its new rows are added after it.  Monotone in
    the transition map: adding transitions can only grow the tables, which
    is what makes partial-automaton pruning sound.  Only generators range
    over the inhabited states: over z -> 1, s(1) -> 1, s(2) -> 2 the fact
    r(x) gives r the row (1,), but r(s(x)) gives (1,) and (2,), state 2
    being uninhabited."""
    if plans is None:
        plans = ClausePlans(problem)
    tables: PredicateTables = {p.name: set() for p in problem.predicates}
    inh = inhabitation(a)
    definite = [plan for plan in plans.clauses if plan.flat.head is not None]
    while True:
        db = _Snapshot(a, tables, inh)
        derived: PredicateTables = {pred: set() for pred in tables}
        for plan in definite:
            pred, vs = plan.flat.head
            rows = derived[pred]
            for sigma in _solutions(plan, db):
                rows.add(tuple([sigma[v] for v in vs]))
        if all(rows <= tables[pred] for pred, rows in derived.items()):
            return tables
        for pred, rows in derived.items():
            tables[pred] |= rows


class FixpointEngine:
    """Least tables and inhabitation counts of a growing automaton, kept at
    their fixpoint while a depth-first search pushes and pops transitions.

    Evaluation is semi-naive: pushing (c, args) -> q fires only the
    definite clause variants seeded on a c-transition, each new row fires
    only the variants seeded on a body literal of its predicate, and
    definite clauses with a disequation or a generator fire whole again
    when an inhabitation count rises, because diff_approx reads the counts
    and generators range over the inhabited states.  The engine starts as
    if a count rose, which also fires the definite clauses with no
    predicate literal and no transition: nothing else fires them.  Every
    other literal is joined through an index on the positions its plan
    finds bound, so no relation is scanned or sorted whole.  The plans run as generated code
    (plancode) bound to the engine once, a definite plan filing each new
    row it derives in its table and indexes, on the trail and on the work
    list itself.  pop() unwinds the trail through generated code per
    relation.  A count is re-counted from into[q], the arguments of the
    transitions into q, and a raised one re-counts users[q], the targets of
    the transitions using q.  The fixpoint is unique, so the tables equal
    least_tables of the automaton and the counts its inhabitation.  Goals
    derive nothing and are not fired: while hit is None, each saturation
    ends by running every goal's whole plan in clause order, and the first
    solution found is kept as hit until pop() unwinds the trail below
    hit_at, the trail's length then.  Goals are monotone, so after the
    start and each push hit is None exactly when no goal has a solution,
    and a hit found where there was none names the first goal in clause
    order that holds, as check_model does over the least tables."""

    def __init__(self, plans: ClausePlans, automaton: TreeAutomaton):
        if automaton.delta:
            raise ValueError("the engine starts from an automaton without transitions")
        seeded, problem = plans.seeded, plans.problem
        self.automaton = automaton
        self.tables: PredicateTables = {p.name: set() for p in problem.predicates}
        self.inh: Dict[int, int] = {q: EMPTY for q in automaton.all_states()}
        self.into: Dict[int, List[Row]] = {q: [] for q in self.inh}
        self.users: Dict[int, List[int]] = {q: [] for q in self.inh}
        self.indexes = {rel: {} for rels in seeded.relations.values() for rel in rels}
        # (("pred", p), row) and (("enum", c), args + (target,)) for added
        # facts, (RAISED, (q, old count)) for a raised count.
        self.trail: List[Tuple[Tuple[str, str], Row]] = []
        self.work: List[Tuple[Tuple[str, str], Row]] = []  # of the saturation under way
        self.hit: Optional[Tuple[int, Tuple[int, ...]]] = None
        self.hit_at = 0
        # The generated code, bound: per source its undo and a transition's
        # filing; per trigger the fire of each definite plan it wakes; and
        # (clause, run) per goal.  The lambda binds inh, not self: no
        # reference cycle.
        inh, filed = self.inh, seeded.relations
        self._undo: Dict[Tuple[str, str], Callable] = {RAISED: lambda entry: inh.__setitem__(*entry)}
        self._file: Dict[Tuple[str, str], Callable] = {}
        arity = {("pred", p.name): len(p.arg_sorts) for p in problem.predicates}
        arity.update({("enum", c.name): len(c.arg_sorts) + 1 for s in problem.sorts for c in s.constructors})
        for source, n in arity.items():
            self._undo[source] = plancode.compiled(plancode.store, source, n, filed.get(source, ()), True)(self)
            if source[0] == "enum":
                self._file[source] = plancode.compiled(plancode.store, source, n, filed.get(source, ()), False)(self)
        self._fired = {trigger: [self._bind(plan, filed) for plan in fired] for trigger, fired in seeded.triggers.items()}
        self._goals = [(plan.clause_index, self._bind(plan, filed)) for plan in seeded.goals]
        self.work.append((RAISED, ()))
        self._saturate()
        self.base = len(self.trail)

    def _bind(self, plan: Plan, filed: Dict[Tuple[str, str], Tuple[Relation, ...]]) -> Callable:
        flat = plan.flat
        if flat.head is None:
            return plancode.compiled(plancode.source, plan.steps, tuple(range(flat.n_vars)))(self)
        pred, out = flat.head
        return plancode.compiled(plancode.source, plan.steps, out, (pred, filed.get(("pred", pred), ())))(self)

    def lookup(self, rel: Relation, key: Row) -> Sequence[Row]:
        """_solutions' lookup, by the tuple of the values at rel's mask."""
        return self.indexes[rel].get(plancode.key_of(range(len(key)))(key), ())

    def push(self, slot: Transition, q: int) -> int:
        """Adds the transition slot -> q and brings the counts and tables to
        the new fixpoint; returns the trail mark that undoes it."""
        mark = len(self.trail)
        ctor, args = slot
        entry = (("enum", ctor), args + (q,))
        self._file[entry[0]](entry[1])
        self.trail.append(entry)
        self.work.append(entry)
        if self._raise_counts(q):
            self.work.append((RAISED, ()))
        self._saturate()
        return mark

    def pop(self, mark: int) -> None:
        """Undoes every change made after the trail mark."""
        if mark < self.base:
            raise ValueError("cannot pop below the engine's start")
        undo = self._undo
        for trigger, fact in reversed(self.trail[mark:]):
            undo[trigger](fact)
        del self.trail[mark:]
        if self.hit_at > mark:
            self.hit = None

    def _raise_counts(self, q: int) -> bool:
        """Re-counts the terms reaching q, and every state whose count
        depends on a raised one; True when some count rose."""
        inh, into, users = self.inh, self.into, self.users
        raised = False
        work = [q]
        while work:
            q = work.pop()
            total = terms_reaching(into[q], inh)
            if total > inh[q]:
                self.trail.append((RAISED, (q, inh[q])))
                inh[q] = total
                raised = True
                work.extend(users[q])
        return raised

    def _saturate(self) -> None:
        """Fires the definite plans each (trigger, fact) of work wakes, each
        appending the rows it derives to work, until nothing new is
        derived; then, while there is no hit, keeps the first solution of
        the first goal in clause order that has one as the hit."""
        fired = self._fired
        work = self.work
        for trigger, fact in work:  # grows while it is walked
            for fire in fired.get(trigger, ()):
                fire(fact)
        work.clear()
        if self.hit is None:
            for goal, run in self._goals:
                for sigma in run(()):
                    self.hit, self.hit_at = (goal, sigma), len(self.trail)
                    return


@record
class ModelViolation:
    """kind "closure": a definite clause body fires but its head tuple is
    missing.  kind "goal": a goal body is satisfiable.  assignment is the
    state of every flat variable of that clause."""

    clause_index: int
    kind: str
    assignment: Tuple[int, ...]


def check_model(
    a: TreeAutomaton,
    tables: PredicateTables,
    problem: Problem,
    plans: Optional[ClausePlans] = None,
) -> Optional[ModelViolation]:
    """First violation in clause order, assignments in plan order, or None
    when the tables are a model of every clause.  A clause holds for every
    assignment of its flat variables that the automaton and the tables
    allow, the generators ranging over the inhabited states and the other
    variables over every state their transitions reach, inhabited or not,
    as in least_tables.  One snapshot of the tables serves every clause,
    so each relation is sorted and indexed at most once per call."""
    if plans is None:
        plans = ClausePlans(problem)
    db = _Snapshot(a, tables, inhabitation(a))
    for plan in plans.clauses:
        if plan.flat.head is None:
            for sigma in _solutions(plan, db):
                return ModelViolation(plan.clause_index, "goal", tuple(sigma))
        else:
            pred, vs = plan.flat.head
            rows = tables.get(pred, set())
            for sigma in _solutions(plan, db):
                if tuple(sigma[v] for v in vs) not in rows:
                    return ModelViolation(plan.clause_index, "closure", tuple(sigma))
    return None


def interpret_atom(
    a: TreeAutomaton, tables: PredicateTables, atom: Atom
) -> bool:
    """Truth of a ground atom: run every argument to its state and look the
    tuple up."""
    row = tuple(run_term(a, t) for t in atom.args)
    return row in tables.get(atom.pred, set())
