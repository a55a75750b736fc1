"""Clause-level representation of Horn problems over algebraic data types.

A problem is a set of constrained Horn clauses whose terms are built from
free constructors.  Definite clauses have an atom head; goal clauses have
head None and assert that their body is unsatisfiable.  Everything here is
purely syntactic: bounded ground semantics and derivation replay live at
the bottom so that every other module can be checked against them.  The
bounded least model is computed semi-naively through indexed joins, which
the goal check shares; both visit solutions in the order of the plain
nested-loop join, so the atoms, the derivations and the goal violation
named are the ones that join gives.
"""

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union


class BudgetExceeded(Exception):
    """Raised when a bounded ground computation outgrows its atom cap."""


class SearchTimeout(Exception):
    """Raised when a search passes its deadline."""


# ---------------------------------------------------------------------------
# Terms, literals, clauses


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class App:
    ctor: str
    args: Tuple["Term", ...] = ()
    # Terms are set members and dict keys throughout, so the hash is taken
    # once, at construction, rather than over the whole tree per lookup.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.ctor, self.args)))

    def __hash__(self) -> int:
        return self._hash


Term = Union[Var, App]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Diseq:
    lhs: Term
    rhs: Term


Literal = Union[Atom, Eq, Diseq]


@dataclass(frozen=True)
class Clause:
    """head None encodes a goal: body => false."""

    head: Optional[Atom]
    body: Tuple[Literal, ...]

    @property
    def is_goal(self) -> bool:
        return self.head is None

    def literals(self) -> Iterator[Literal]:
        yield from self.body
        if self.head is not None:
            yield self.head


@dataclass(frozen=True)
class Constructor:
    name: str
    arg_sorts: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SortDecl:
    name: str
    constructors: Tuple[Constructor, ...]


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    arg_sorts: Tuple[str, ...]


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    else:
        for a in t.args:
            yield from term_vars(a)


def literal_terms(lit: Literal) -> Tuple[Term, ...]:
    if isinstance(lit, Atom):
        return lit.args
    return (lit.lhs, lit.rhs)


def clause_vars(clause: Clause) -> List[Var]:
    """Variables in first-occurrence order, body before head."""
    seen: Dict[str, Var] = {}
    out: List[Var] = []
    for lit in clause.literals():
        for t in literal_terms(lit):
            for v in term_vars(t):
                if v.name not in seen:
                    seen[v.name] = v
                    out.append(v)
    return out


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def term_depth(t: Term) -> int:
    """Constructor nesting depth; constants and variables have depth 0."""
    if isinstance(t, Var) or not t.args:
        return 0
    return 1 + max(term_depth(a) for a in t.args)


Subst = Dict[str, Term]


def apply_subst(t: Term, subst: Subst) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    return App(t.ctor, tuple(apply_subst(a, subst) for a in t.args))


def subst_atom(atom: Atom, subst: Subst) -> Atom:
    return Atom(atom.pred, tuple(apply_subst(a, subst) for a in atom.args))


def frozen_subst(subst: Subst) -> Tuple[Tuple[str, Term], ...]:
    return tuple(sorted(subst.items()))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.ctor
    return "%s(%s)" % (t.ctor, ", ".join(format_term(a) for a in t.args))


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return "%s(%s)" % (atom.pred, ", ".join(format_term(a) for a in atom.args))


# ---------------------------------------------------------------------------
# Problems


@dataclass
class Problem:
    sorts: Tuple[SortDecl, ...]
    predicates: Tuple[PredicateDecl, ...]
    clauses: Tuple[Clause, ...]
    _pred_by_name: Dict[str, PredicateDecl] = field(init=False, repr=False)
    _ctor_info: Dict[str, Tuple[Constructor, str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._pred_by_name = {p.name: p for p in self.predicates}
        self._ctor_info = {}
        for s in self.sorts:
            for c in s.constructors:
                # First declaration wins; validate() reports duplicates.
                self._ctor_info.setdefault(c.name, (c, s.name))

    def constructor(self, name: str) -> Tuple[Constructor, str]:
        """Returns (constructor, result sort)."""
        return self._ctor_info[name]

    def has_constructor(self, name: str) -> bool:
        return name in self._ctor_info

    def predicate(self, name: str) -> PredicateDecl:
        return self._pred_by_name[name]

    def has_predicate(self, name: str) -> bool:
        return name in self._pred_by_name

    def definite_clauses(self) -> List[Tuple[int, Clause]]:
        return [(i, c) for i, c in enumerate(self.clauses) if not c.is_goal]

    def goal_clauses(self) -> List[Tuple[int, Clause]]:
        return [(i, c) for i, c in enumerate(self.clauses) if c.is_goal]

    def term_sort(self, t: Term) -> str:
        if isinstance(t, Var):
            return t.sort
        return self._ctor_info[t.ctor][1]


@dataclass
class ValidationReport:
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(problem: Problem) -> ValidationReport:
    """Structural checks.  A problem with errors has no defined semantics;
    warnings flag odd but meaningful inputs (no goal clauses, say)."""
    report = ValidationReport()
    err = report.errors.append

    seen_sorts: Set[str] = set()
    for s in problem.sorts:
        if s.name in seen_sorts:
            err("duplicate sort declaration: %s" % s.name)
        seen_sorts.add(s.name)
        if not s.constructors:
            err("sort %s has no constructors" % s.name)

    seen_ctors: Set[str] = set()
    for s in problem.sorts:
        for c in s.constructors:
            if c.name in seen_ctors:
                err("duplicate constructor: %s" % c.name)
            seen_ctors.add(c.name)
            for a in c.arg_sorts:
                if a not in seen_sorts:
                    err("constructor %s uses undeclared sort %s" % (c.name, a))

    # Every sort must be inhabited by some finite ground term, otherwise
    # quantification over it is vacuous and the automaton view breaks down.
    inhabited: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for s in problem.sorts:
            if s.name in inhabited:
                continue
            for c in s.constructors:
                if all(a in inhabited for a in c.arg_sorts):
                    inhabited.add(s.name)
                    changed = True
                    break
    for s in problem.sorts:
        if s.name not in inhabited:
            err("sort %s has no finite ground terms" % s.name)

    seen_preds: Set[str] = set()
    for p in problem.predicates:
        if p.name in seen_preds:
            err("duplicate predicate declaration: %s" % p.name)
        seen_preds.add(p.name)
        for a in p.arg_sorts:
            if a not in seen_sorts:
                err("predicate %s uses undeclared sort %s" % (p.name, a))

    for i, clause in enumerate(problem.clauses):
        _validate_clause(problem, i, clause, report)

    if not any(c.is_goal for c in problem.clauses):
        report.warnings.append(
            "no goal clauses: every problem without goals is trivially satisfiable"
        )
    return report


def _validate_clause(
    problem: Problem, idx: int, clause: Clause, report: ValidationReport
) -> None:
    err = report.errors.append
    where = "clause %d" % idx

    var_sorts: Dict[str, str] = {}

    def check_term(t: Term, expected: str) -> None:
        if isinstance(t, Var):
            prev = var_sorts.setdefault(t.name, t.sort)
            if prev != t.sort:
                err(
                    "%s: variable %s used at sorts %s and %s"
                    % (where, t.name, prev, t.sort)
                )
            if t.sort != expected:
                err(
                    "%s: variable %s has sort %s where %s is required"
                    % (where, t.name, t.sort, expected)
                )
            return
        if not problem.has_constructor(t.ctor):
            err("%s: unknown constructor %s" % (where, t.ctor))
            return
        ctor, result = problem.constructor(t.ctor)
        if result != expected:
            err(
                "%s: constructor %s builds sort %s where %s is required"
                % (where, t.ctor, result, expected)
            )
        if len(t.args) != len(ctor.arg_sorts):
            err(
                "%s: constructor %s expects %d arguments, got %d"
                % (where, t.ctor, len(ctor.arg_sorts), len(t.args))
            )
            return
        for a, s in zip(t.args, ctor.arg_sorts):
            check_term(a, s)

    def check_atom(atom: Atom) -> None:
        if not problem.has_predicate(atom.pred):
            err("%s: unknown predicate %s" % (where, atom.pred))
            return
        decl = problem.predicate(atom.pred)
        if len(atom.args) != len(decl.arg_sorts):
            err(
                "%s: predicate %s expects %d arguments, got %d"
                % (where, atom.pred, len(decl.arg_sorts), len(atom.args))
            )
            return
        for a, s in zip(atom.args, decl.arg_sorts):
            check_term(a, s)

    for lit in clause.body:
        if isinstance(lit, Atom):
            check_atom(lit)
        else:
            lhs_sort = _term_sort_or_none(problem, lit.lhs, var_sorts)
            rhs_sort = _term_sort_or_none(problem, lit.rhs, var_sorts)
            target = lhs_sort or rhs_sort
            if target is None:
                err("%s: cannot determine the sort of an equation" % where)
                continue
            check_term(lit.lhs, target)
            check_term(lit.rhs, target)
    if clause.head is not None:
        check_atom(clause.head)


def _term_sort_or_none(
    problem: Problem, t: Term, var_sorts: Dict[str, str]
) -> Optional[str]:
    if isinstance(t, Var):
        return var_sorts.get(t.name, t.sort)
    if problem.has_constructor(t.ctor):
        return problem.constructor(t.ctor)[1]
    return None


# ---------------------------------------------------------------------------
# Bounded ground semantics

DEFAULT_ATOM_CAP = 200_000


def ground_terms(problem: Problem, sort: str, max_depth: int) -> List[App]:
    """All ground terms of the sort with depth <= max_depth, ordered by
    depth, then constructor declaration order, then argument order."""
    by_depth: Dict[Tuple[str, int], List[App]] = {}
    for d in range(max_depth + 1):
        for s in problem.sorts:
            exact: List[App] = []
            for c in s.constructors:
                if not c.arg_sorts:
                    if d == 0:
                        exact.append(App(c.name))
                    continue
                if d == 0:
                    continue
                pools = [
                    [
                        t
                        for dd in range(d)
                        for t in by_depth.get((arg_sort, dd), [])
                    ]
                    for arg_sort in c.arg_sorts
                ]
                for args in product(*pools):
                    if 1 + max(term_depth(a) for a in args) == d:
                        exact.append(App(c.name, tuple(args)))
            by_depth[(s.name, d)] = exact
    out: List[App] = []
    for d in range(max_depth + 1):
        out.extend(by_depth.get((sort, d), []))
    return out


# Provenance of a derived atom: clause index, substitution used, and the
# body atoms consumed, in body order.
Provenance = Dict[Atom, Tuple[int, Subst, Tuple[Atom, ...]]]

# The ground model and the goal check share one join.  A clause body is
# compiled into one step per body atom, in body order.  A step knows which
# argument positions the steps before it leave bound, and looks facts up in
# the bucket of its (predicate, bound positions) keyed by the terms at those
# positions; it matches the other positions.  Buckets keep facts in the
# order they were filed, so a lookup visits the facts that a scan of every
# fact of the predicate would match, in the same order.
#
# A step is (pred, key positions, key patterns with whether each is ground,
# (position, pattern) pairs to match).
_Step = Tuple[str, Tuple[int, ...], Tuple[Tuple[Term, bool], ...], Tuple[Tuple[int, Term], ...]]
_Buckets = Dict[Tuple[Term, ...], List[Atom]]  # key terms -> facts in filing order


class _Join(NamedTuple):
    steps: Tuple[_Step, ...]
    free: Tuple[Var, ...]  # in no body atom: they range over the universe
    constraints: Tuple[Literal, ...]


def _compile_join(clause: Clause) -> _Join:
    bound: Set[str] = set()
    steps: List[_Step] = []
    for lit in clause.body:
        if not isinstance(lit, Atom):
            continue
        positions, keys, rest = [], [], []
        for p, t in enumerate(lit.args):
            names = {v.name for v in term_vars(t)}
            if names <= bound:
                positions.append(p)
                keys.append((t, not names))
            else:
                rest.append((p, t))
        steps.append((lit.pred, tuple(positions), tuple(keys), tuple(rest)))
        bound.update(v.name for t in lit.args for v in term_vars(t))
    free = tuple(v for v in clause_vars(clause) if v.name not in bound)
    constraints = tuple(lit for lit in clause.body if not isinstance(lit, Atom))
    return _Join(tuple(steps), free, constraints)


class _Facts:
    """Ground atoms filed into the buckets the joins look up, in the order
    they were added.  born numbers every atom in that order, newest gives
    each predicate's highest number."""

    def __init__(self, joins: Sequence[_Join]):
        self.born: Dict[Atom, int] = {}
        self.newest: Dict[str, int] = {}
        self._buckets: Dict[Tuple[str, Tuple[int, ...]], _Buckets] = {}
        self._by_pred: Dict[str, List[Tuple[Tuple[int, ...], _Buckets]]] = {}
        for join in joins:
            for pred, positions, _, _ in join.steps:
                if (pred, positions) not in self._buckets:
                    buckets: _Buckets = {}
                    self._buckets[pred, positions] = buckets
                    self._by_pred.setdefault(pred, []).append((positions, buckets))

    def add(self, atom: Atom) -> None:
        self.born[atom] = self.newest[atom.pred] = len(self.born)
        self._file(atom)

    def _file(self, atom: Atom) -> None:
        args = atom.args
        for positions, buckets in self._by_pred.get(atom.pred, ()):
            buckets.setdefault(tuple([args[p] for p in positions]), []).append(atom)

    def lookup(self, pred: str, positions: Tuple[int, ...], key: Tuple[Term, ...]) -> Sequence[Atom]:
        return self._buckets[pred, positions].get(key, ())


class _SortedFacts(_Facts):
    """A fixed atom set read in (predicate, format_atom) order.  A bucket is
    sorted when first looked up, so only the facts a join visits are
    formatted; the deadline, if any, is read before each such sort."""

    def __init__(self, joins: Sequence[_Join], atoms: Set[Atom], deadline: Optional[float]):
        super().__init__(joins)
        for atom in atoms:
            self._file(atom)
        self._sorted: Set[Tuple[str, Tuple[int, ...], Tuple[Term, ...]]] = set()
        self.deadline = deadline

    def lookup(self, pred: str, positions: Tuple[int, ...], key: Tuple[Term, ...]) -> Sequence[Atom]:
        bucket = super().lookup(pred, positions, key)
        if bucket and (pred, positions, key) not in self._sorted:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SearchTimeout()
            self._sorted.add((pred, positions, key))
            bucket.sort(key=format_atom)  # type: ignore[union-attr]
        return bucket


def _solutions(
    join: _Join,
    facts: _Facts,
    universe: Dict[str, List[App]],
    since: Optional[int] = None,
) -> Iterator[Tuple[Subst, Tuple[Atom, ...]]]:
    """Ground substitutions satisfying the clause body, with the facts they
    use in body order: nested loops over the steps, each over its bucket as
    it stands when the step is entered, then every value of the free
    variables over the universe.  With since, only the solutions using a
    fact numbered since or later, without changing their order: a step
    skips the older facts of its bucket when it has used none so far and
    no later step's predicate has a fact that new."""
    steps = join.steps
    last = len(steps)
    names = [v.name for v in join.free]
    pools = [universe[v.sort] for v in join.free]
    born = facts.born
    newest = facts.newest
    subst: Subst = {}
    used: List[Atom] = []

    def run(i, fresh):  # unannotated: annotations are evaluated per _solutions call
        if i == last:
            if fresh:
                for values in product(*pools):
                    full = dict(subst)
                    full.update(zip(names, values))
                    if all(_constraint_holds(lit, full) for lit in join.constraints):
                        yield full, tuple(used)
            return
        pred, positions, keys, rest = steps[i]
        key = tuple([
            t if ground else subst[t.name] if isinstance(t, Var) else apply_subst(t, subst)
            for t, ground in keys
        ])
        bucket = facts.lookup(pred, positions, key)
        lo, hi = 0, len(bucket)
        if not fresh and all(newest.get(steps[j][0], -1) < since for j in range(i + 1, last)):
            lo = bisect_left(bucket, since, 0, hi, key=born.__getitem__)
        for k in range(lo, hi):
            fact = bucket[k]
            bound: List[str] = []
            if all(_match(t, fact.args[p], subst, bound) for p, t in rest):
                used.append(fact)
                yield from run(i + 1, fresh or born[fact] >= since)
                used.pop()
            for name in bound:
                del subst[name]

    return run(0, since is None)


def _match(pattern: Term, value: App, subst: Subst, bound: List[str]) -> bool:
    """Extends subst so that pattern instantiates to value, recording the
    variables it binds in bound; False on a mismatch."""
    if isinstance(pattern, Var):
        old = subst.get(pattern.name)
        if old is None:
            subst[pattern.name] = value
            bound.append(pattern.name)
            return True
        return old == value
    if value.ctor != pattern.ctor:
        return False
    return all(_match(p, v, subst, bound) for p, v in zip(pattern.args, value.args))


def ground_least_model(
    problem: Problem,
    depth_bound: int,
    atom_cap: int = DEFAULT_ATOM_CAP,
    deadline: Optional[float] = None,
) -> Tuple[Set[Atom], Provenance]:
    """Least model of the definite clauses restricted to ground terms of
    depth <= depth_bound.  Both clause variables and derived atoms range
    over the bounded universe only, so the result under-approximates the
    unbounded least model and is monotone in depth_bound.

    Rounds fire the clauses in clause order until one adds nothing, and
    each atom keeps the first derivation found.  Evaluation is semi-naive:
    a clause's later firings enumerate only the solutions that use an atom
    added since its previous firing began, as the others were enumerated
    then.  They are enumerated in the order of the full nested-loop join,
    so atoms, their order and their provenance are those of re-firing every
    clause over every fact.  Body-free clauses therefore fire once.

    With a deadline, a time.monotonic() value, the clock is read every 512
    added atoms and after each firing, and SearchTimeout is raised once it
    has passed."""
    universe: Dict[str, List[App]] = {
        s.name: ground_terms(problem, s.name, depth_bound) for s in problem.sorts
    }
    # Every universe term maps to itself.  A head argument built from a
    # pattern is looked up here: a miss lies beyond the bound, a hit is
    # replaced by the universe's own object, so facts share their subterms
    # and mostly compare by identity.  Variables are bound to subterms of
    # facts or to universe terms, which are universe objects already.
    canon: Dict[str, Dict[App, App]] = {k: {t: t for t in v} for k, v in universe.items()}
    definite = []
    for idx, clause in problem.definite_clauses():
        assert clause.head is not None
        pred = clause.head.pred
        head = tuple(zip(clause.head.args, problem.predicate(pred).arg_sorts))
        definite.append((idx, pred, head, _compile_join(clause)))
    facts = _Facts([join for _, _, _, join in definite])
    born = facts.born
    provenance: Provenance = {}
    # The atom count when each clause last began firing; None before it has.
    since: List[Optional[int]] = [None] * len(definite)

    changed = True
    while changed:
        changed = False
        for n, (idx, pred, head, join) in enumerate(definite):
            start = len(born)
            for subst, used in _solutions(join, facts, universe, since[n]):
                args: List[Term] = []
                for t, sort in head:
                    value = subst[t.name] if isinstance(t, Var) else canon[sort].get(apply_subst(t, subst))
                    if value is None:
                        break
                    args.append(value)
                else:
                    atom = Atom(pred, tuple(args))
                    if atom in born:
                        continue
                    facts.add(atom)
                    provenance[atom] = (idx, subst, used)
                    changed = True
                    if len(born) > atom_cap:
                        raise BudgetExceeded(
                            "ground model exceeds %d atoms at depth %d" % (atom_cap, depth_bound)
                        )
                    if deadline is not None and len(born) % 512 == 0:
                        if time.monotonic() > deadline:
                            raise SearchTimeout()
            since[n] = start
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout()
    return set(born), provenance


def _constraint_holds(lit: Literal, subst: Subst) -> bool:
    assert isinstance(lit, (Eq, Diseq))
    lhs = apply_subst(lit.lhs, subst)
    rhs = apply_subst(lit.rhs, subst)
    assert is_ground(lhs) and is_ground(rhs)
    if isinstance(lit, Eq):
        return lhs == rhs
    return lhs != rhs


# ---------------------------------------------------------------------------
# Derivations

SubstItems = Tuple[Tuple[str, Term], ...]


@dataclass(frozen=True)
class ProofTree:
    """Derivation of one ground atom: the definite clause applied, the
    grounding substitution, and proofs of the instantiated body atoms in
    body order."""

    atom: Atom
    clause_index: int
    substitution: SubstItems
    children: Tuple["ProofTree", ...]


@dataclass(frozen=True)
class Derivation:
    """Witness that a goal clause is violated: a grounding of the goal
    body together with proofs of its atoms."""

    goal_index: int
    substitution: SubstItems
    proofs: Tuple[ProofTree, ...]


def _build_proof(
    problem: Problem, atom: Atom, provenance: Provenance, depth_guard: int = 0
) -> ProofTree:
    if depth_guard > len(provenance) + 1:
        raise ValueError("cyclic provenance for %s" % format_atom(atom))
    clause_idx, subst, used = provenance[atom]
    children = tuple(
        _build_proof(problem, b, provenance, depth_guard + 1) for b in used
    )
    return ProofTree(atom, clause_idx, frozen_subst(subst), children)


def goal_violated(
    problem: Problem,
    atoms: Set[Atom],
    provenance: Provenance,
    deadline: Optional[float] = None,
) -> Optional[Derivation]:
    """First goal violated by the atom set, with a replayable derivation,
    or None.  Goals are tried in clause order, each through the join of
    ground_least_model over the atoms in (predicate, format_atom) order, so
    the goal and substitution named depend on the atom set alone.  Raises
    SearchTimeout once the deadline, if any, has passed."""
    goals = [(idx, _compile_join(goal)) for idx, goal in problem.goal_clauses()]
    facts = _SortedFacts([join for _, join in goals], atoms, deadline)
    universe: Dict[str, List[App]] = {}
    if any(join.free for _, join in goals):
        # Constraint-only variables in goals still need a universe to range
        # over; derive its depth from the atoms at hand.
        max_depth = max((term_depth(t) for atom in atoms for t in atom.args), default=0)
        universe = {s.name: ground_terms(problem, s.name, max_depth) for s in problem.sorts}
    for idx, join in goals:
        for subst, used in _solutions(join, facts, universe):
            proofs = tuple(_build_proof(problem, b, provenance) for b in used)
            return Derivation(idx, frozen_subst(subst), proofs)
    return None


def check_derivation(problem: Problem, derivation: Derivation) -> List[str]:
    """Replays a derivation from scratch; returns the list of defects, so
    empty means the derivation is valid.  Independent of how the
    derivation was produced: every step is re-substituted and compared."""
    errors: List[str] = []

    def check_proof(proof: ProofTree, path: str) -> None:
        if not (0 <= proof.clause_index < len(problem.clauses)):
            errors.append("%s: clause index %d out of range" % (path, proof.clause_index))
            return
        clause = problem.clauses[proof.clause_index]
        if clause.is_goal:
            errors.append("%s: clause %d is a goal, not definite" % (path, proof.clause_index))
            return
        subst = dict(proof.substitution)
        for name, t in subst.items():
            if not is_ground(t):
                errors.append("%s: substitution for %s is not ground" % (path, name))
                return
        assert clause.head is not None
        head = subst_atom(clause.head, subst)
        if head != proof.atom:
            errors.append(
                "%s: clause %d instantiates to %s, not %s"
                % (path, proof.clause_index, format_atom(head), format_atom(proof.atom))
            )
        body_atoms = [lit for lit in clause.body if isinstance(lit, Atom)]
        if len(body_atoms) != len(proof.children):
            errors.append(
                "%s: clause %d has %d body atoms but %d subproofs"
                % (path, proof.clause_index, len(body_atoms), len(proof.children))
            )
            return
        for i, (lit, child) in enumerate(zip(body_atoms, proof.children)):
            expected = subst_atom(lit, subst)
            if expected != child.atom:
                errors.append(
                    "%s: subproof %d proves %s where %s is required"
                    % (path, i, format_atom(child.atom), format_atom(expected))
                )
            check_proof(child, "%s.%d" % (path, i))
        for lit in clause.body:
            if isinstance(lit, (Eq, Diseq)) and not _constraint_holds(lit, subst):
                errors.append("%s: constraint in clause %d fails" % (path, proof.clause_index))

    if not (0 <= derivation.goal_index < len(problem.clauses)):
        return ["goal index %d out of range" % derivation.goal_index]
    goal = problem.clauses[derivation.goal_index]
    if not goal.is_goal:
        return ["clause %d is not a goal" % derivation.goal_index]
    subst = dict(derivation.substitution)
    body_atoms = [lit for lit in goal.body if isinstance(lit, Atom)]
    if len(body_atoms) != len(derivation.proofs):
        errors.append(
            "goal has %d body atoms but %d proofs" % (len(body_atoms), len(derivation.proofs))
        )
        return errors
    for i, (lit, proof) in enumerate(zip(body_atoms, derivation.proofs)):
        expected = subst_atom(lit, subst)
        if not is_ground_atom(expected):
            errors.append("goal atom %d is not fully instantiated" % i)
            continue
        if expected != proof.atom:
            errors.append(
                "proof %d derives %s where the goal needs %s"
                % (i, format_atom(proof.atom), format_atom(expected))
            )
        check_proof(proof, "proof %d" % i)
    for lit in goal.body:
        if isinstance(lit, (Eq, Diseq)):
            lhs = apply_subst(lit.lhs, subst)
            rhs = apply_subst(lit.rhs, subst)
            if not is_ground(lhs) or not is_ground(rhs):
                errors.append("goal constraint is not fully instantiated")
            elif not _constraint_holds(lit, subst):
                errors.append("goal constraint fails under the substitution")
    return errors


def is_ground_atom(atom: Atom) -> bool:
    return all(is_ground(t) for t in atom.args)
