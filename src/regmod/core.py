"""Clause-level representation of Horn problems over algebraic data types.

A problem is a set of constrained Horn clauses whose terms are built from
free constructors.  Definite clauses have an atom head; goal clauses have
head None and assert that their body is unsatisfiable.  Everything here is
purely syntactic: bounded ground semantics and derivation replay live at
the bottom so that every other module can be checked against them.
"""

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union


class BudgetExceeded(Exception):
    """Raised when a bounded ground computation outgrows its atom cap."""


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


def ground_least_model(
    problem: Problem,
    depth_bound: int,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> Tuple[Set[Atom], Provenance]:
    """Least model of the definite clauses restricted to ground terms of
    depth <= depth_bound.  Both clause variables and derived atoms range
    over the bounded universe only, so the result under-approximates the
    unbounded least model and is monotone in depth_bound."""
    universe: Dict[str, List[App]] = {
        s.name: ground_terms(problem, s.name, depth_bound) for s in problem.sorts
    }
    universe_sets: Dict[str, Set[App]] = {k: set(v) for k, v in universe.items()}

    atoms: Set[Atom] = set()
    provenance: Provenance = {}
    by_pred: Dict[str, List[Atom]] = {p.name: [] for p in problem.predicates}

    def add(atom: Atom, clause_idx: int, subst: Subst, used: Tuple[Atom, ...]) -> bool:
        if atom in atoms:
            return False
        for a, s in zip(atom.args, problem.predicate(atom.pred).arg_sorts):
            if a not in universe_sets[s]:
                return False
        atoms.add(atom)
        provenance[atom] = (clause_idx, dict(subst), used)
        by_pred[atom.pred].append(atom)
        if len(atoms) > atom_cap:
            raise BudgetExceeded(
                "ground model exceeds %d atoms at depth %d" % (atom_cap, depth_bound)
            )
        return True

    definite = problem.definite_clauses()
    changed = True
    while changed:
        changed = False
        for idx, clause in definite:
            assert clause.head is not None
            for subst, used in _body_solutions(problem, clause, by_pred, universe):
                head = subst_atom(clause.head, subst)
                if add(head, idx, subst, used):
                    changed = True
    return atoms, provenance


def _body_solutions(
    problem: Problem,
    clause: Clause,
    by_pred: Dict[str, List[Atom]],
    universe: Dict[str, List[App]],
) -> Iterator[Tuple[Subst, Tuple[Atom, ...]]]:
    """Ground substitutions satisfying the clause body, joining body atoms
    against the derived facts and enumerating leftover variables over the
    universe.  Deterministic: facts are scanned in derivation order."""
    atoms = [lit for lit in clause.body if isinstance(lit, Atom)]
    others = [lit for lit in clause.body if not isinstance(lit, Atom)]

    def match(pattern: Term, value: Term, subst: Subst) -> Optional[Subst]:
        if isinstance(pattern, Var):
            bound = subst.get(pattern.name)
            if bound is None:
                ext = dict(subst)
                ext[pattern.name] = value
                return ext
            return subst if bound == value else None
        if not isinstance(value, App) or value.ctor != pattern.ctor:
            return None
        for p, v in zip(pattern.args, value.args):
            nxt = match(p, v, subst)
            if nxt is None:
                return None
            subst = nxt
        return subst

    def join(i: int, subst: Subst, used: List[Atom]) -> Iterator[Tuple[Subst, Tuple[Atom, ...]]]:
        if i == len(atoms):
            # Variables appearing only in constraints or the head range
            # over the whole universe.
            free = [
                v
                for v in clause_vars(clause)
                if v.name not in subst
            ]
            pools = [universe[v.sort] for v in free]
            for values in product(*pools):
                full = dict(subst)
                for v, val in zip(free, values):
                    full[v.name] = val
                if all(_constraint_holds(lit, full) for lit in others):
                    yield full, tuple(used)
            return
        pat = atoms[i]
        for fact in list(by_pred.get(pat.pred, ())):
            ext: Optional[Subst] = subst
            for p, v in zip(pat.args, fact.args):
                assert ext is not None
                ext = match(p, v, ext)
                if ext is None:
                    break
            if ext is not None and len(pat.args) == len(fact.args):
                used.append(fact)
                yield from join(i + 1, ext, used)
                used.pop()

    yield from join(0, {}, [])


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
) -> Optional[Derivation]:
    """First goal violated by the atom set, with a replayable derivation,
    or None.  Goals are tried in clause order; substitutions in the
    deterministic order of _body_solutions."""
    by_pred: Dict[str, List[Atom]] = {p.name: [] for p in problem.predicates}
    for atom in sorted(atoms, key=lambda a: (a.pred, format_atom(a))):
        by_pred[atom.pred].append(atom)
    # Constraint-only variables in goals still need a universe to range
    # over; derive its depth from the atoms at hand.
    max_depth = 0
    for atom in atoms:
        for t in atom.args:
            max_depth = max(max_depth, term_depth(t))
    universe = {
        s.name: ground_terms(problem, s.name, max_depth) for s in problem.sorts
    }
    for idx, goal in problem.goal_clauses():
        for subst, used in _body_solutions(problem, goal, by_pred, universe):
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
