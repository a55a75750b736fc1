"""Clause-level representation of Horn problems over algebraic data types.

A problem is a set of constrained Horn clauses whose terms are built from
free constructors.  Definite clauses have an atom head; goal clauses have
head None and assert that their body is unsatisfiable.  Everything here is
purely syntactic: bounded ground semantics and derivation replay live at
the bottom so that every other module can be checked against them.  The
bounded least model is computed semi-naively through indexed joins over
interned term ids, generated as Python loops by plancode.ground_join,
which visit solutions in the order of the plain nested-loop join, so the
atoms and their derivations are the ones that join gives.  A definite
clause's join files its atoms into the model itself, skipping early the
heads too deep for the bound; a goal's join yields.  A GroundPlan holds
the term table and the joins of the definite clauses and the goals, so
that the depths of one solve share them; each depth adds its layer of
terms, each built with an argument from the layer below, and derives its
atoms afresh.
The ground model is a GroundModel, whose atoms and provenance stay as ids
and which is the store every join reads, the goals' included, so the
goal check is one more query over it, run once more over the named goal's
buckets, each sorted once by atom text; Atoms, substitutions and
derivation steps are built only on access, which for the goal check means
only for the derivation it names.  A derivation is a list of numbered
steps whose premises are earlier steps, so an atom used twice is one step,
and one loop replays it.  Every helper that can meet a derived term is a
loop over subterms, so none recurses.
"""

from __future__ import annotations

import time
from collections import abc
from itertools import product, repeat
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)


class BudgetExceeded(Exception):
    """Raised when a bounded ground computation outgrows its atom cap."""


class SearchTimeout(Exception):
    """Raised when a search passes its deadline."""


# ---------------------------------------------------------------------------
# Records

_set = object.__setattr__

_RECORD_TEMPLATE = """\
def __init__(self, {names}):
{sets}
def __repr__(self):
    return "{cls}({fmt})" % ({attrs},)
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({attrs},) == ({others},)
    return NotImplemented
def __hash__(self):
    return hash(({attrs},))
"""


def _no_setattr(self: object, name: str, value: object) -> None:
    raise AttributeError("cannot assign to field %r" % name)


def _no_delattr(self: object, name: str) -> None:
    raise AttributeError("cannot delete field %r" % name)


def record(cls: type) -> type:
    """Makes cls an immutable record.  The annotations of its body, in
    order, are its fields, and a class attribute of a field's name is that
    field's default.  __init__ takes the fields in order and then calls
    __post_init__, when cls has one, which sets any derived attribute with
    object.__setattr__.  __repr__, __eq__ and __hash__ are those of a frozen
    dataclass: equal records are of one class with equal fields, and the
    hash is that of the tuple of fields; these four methods come from one
    exec.  Assigning or deleting an attribute raises AttributeError."""
    names = list(cls.__dict__.get("__annotations__", {}))
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    if any(n not in cls.__dict__ for n in names[len(names) - len(defaults):]):
        raise TypeError("%s: a field without a default follows one with a default" % cls.__name__)
    sets = ["    _set(self, %r, %s)" % (n, n) for n in names]
    if "__post_init__" in cls.__dict__:
        sets.append("    self.__post_init__()")
    source = _RECORD_TEMPLATE.format(
        names=", ".join(names),
        sets="\n".join(sets),
        cls=cls.__qualname__,
        fmt=", ".join("%s=%%r" % n for n in names),
        attrs=", ".join("self." + n for n in names),
        others=", ".join("other." + n for n in names),
    )
    namespace: Dict[str, object] = {}
    exec(source, {"_set": _set}, namespace)
    namespace["__init__"].__defaults__ = defaults or None  # type: ignore[attr-defined]
    for name, fn in namespace.items():
        fn.__qualname__ = "%s.%s" % (cls.__qualname__, name)  # type: ignore[attr-defined]
        setattr(cls, name, fn)
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr  # type: ignore[assignment]
    return cls


# ---------------------------------------------------------------------------
# Terms, literals, clauses


@record
class Var:
    name: str
    sort: str


class App:
    """A constructor applied to argument terms.  Terms are set members and
    dict keys throughout, so the hash is taken once, at construction, rather
    than over the whole tree per lookup."""

    def __init__(self, ctor: str, args: Tuple[Term, ...] = ()) -> None:
        _set(self, "ctor", ctor)
        _set(self, "args", args)
        _set(self, "_hash", hash((ctor, args)))

    __setattr__, __delattr__ = _no_setattr, _no_delattr

    def __repr__(self) -> str:
        # The text repr gives the nested tuples, its tokens written in
        # pre-order from an explicit stack, as format_term writes a term.
        out: List[str] = []
        stack: List = [self]  # terms to write, and text
        while stack:
            u = stack.pop()
            if u.__class__ is not App:
                out.append(u)
                continue
            out.append("App(ctor=%r, args=(" % u.ctor)
            stack.append(",))" if len(u.args) == 1 else "))")
            for i in range(len(u.args) - 1, -1, -1):
                a = u.args[i]
                stack.append(a if a.__class__ is App else repr(a))
                if i:
                    stack.append(", ")
        return "".join(out)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Pair by pair on a stack, so that terms of any depth compare.
        if other.__class__ is not App:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            t, u = pairs.pop()
            if t.__class__ is not App or u.__class__ is not App:
                if t != u:
                    return False
            elif t is not u:
                if t._hash != u._hash or t.ctor != u.ctor or len(t.args) != len(u.args):
                    return False
                pairs.extend(zip(t.args, u.args))
        return True


Term = Union[Var, App]


@record
class Atom:
    pred: str
    args: Tuple[Term, ...]


@record
class Eq:
    lhs: Term
    rhs: Term


@record
class Diseq:
    lhs: Term
    rhs: Term


Literal = Union[Atom, Eq, Diseq]


@record
class Clause:
    """head None encodes a goal: body => false."""

    head: Optional[Atom]
    body: Tuple[Literal, ...]

    @property
    def is_goal(self) -> bool:
        return self.head is None


@record
class Constructor:
    name: str
    arg_sorts: Tuple[str, ...] = ()


@record
class SortDecl:
    name: str
    constructors: Tuple[Constructor, ...]


@record
class PredicateDecl:
    name: str
    arg_sorts: Tuple[str, ...]


def subterms(t: Term) -> List[Term]:
    """Every occurrence of a subterm of t, each after its arguments, left
    to right, built on an explicit stack rather than by recursion."""
    out: List[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if u.__class__ is App:
            stack.extend(u.args)  # type: ignore[union-attr]
    out.reverse()
    return out


def term_vars(t: Term) -> List[Var]:
    """Every occurrence of a variable in t, left to right."""
    if t.__class__ is Var:
        return [t]  # type: ignore[list-item]
    return [u for u in subterms(t) if u.__class__ is Var]


def clause_vars(clause: Clause) -> List[Var]:
    """Variables in first-occurrence order, body before head."""
    seen: Dict[str, Var] = {}
    for lit in clause.body + ((clause.head,) if clause.head is not None else ()):
        for t in lit.args if isinstance(lit, Atom) else (lit.lhs, lit.rhs):
            for v in term_vars(t):
                seen.setdefault(v.name, v)
    return list(seen.values())


def is_ground(t: Term) -> bool:
    return Var not in map(type, subterms(t))


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
    """The text of t, its tokens written in pre-order from an explicit stack
    and joined once, so that a term k deep costs O(k)."""
    out: List[str] = []
    stack: List = [t]  # terms, and the separators still to write
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif u.__class__ is Var:
            out.append(u.name)
        elif u.args:
            out.append(u.ctor + "(")
            stack.append(")")
            for a in u.args[:0:-1]:
                stack.append(a)
                stack.append(", ")
            stack.append(u.args[0])
        else:
            out.append(u.ctor)
    return "".join(out)


def format_atom(atom: Atom) -> str:
    return format_term(App(atom.pred, atom.args))


# ---------------------------------------------------------------------------
# Problems


@record
class Problem:
    sorts: Tuple[SortDecl, ...]
    predicates: Tuple[PredicateDecl, ...]
    clauses: Tuple[Clause, ...]

    def __post_init__(self) -> None:
        ctor_info: Dict[str, Tuple[Constructor, str]] = {}
        for s in self.sorts:
            for c in s.constructors:
                # First declaration wins; validate() reports duplicates.
                ctor_info.setdefault(c.name, (c, s.name))
        _set(self, "_pred_by_name", {p.name: p for p in self.predicates})
        _set(self, "_ctor_info", ctor_info)

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


@record
class ValidationReport:
    errors: List[str]
    warnings: List[str]

    @property
    def ok(self) -> bool:
        return not self.errors


# The deepest term nesting accepted, by the readers as S-expression levels
# and by validate as term depth; derived terms have no cap.  It bounds the
# recursion of apply_subst, flatten's walk, plancode's value and unpack, and
# frontend's _parse_term and _print_term, which see input only.
MAX_NESTING = 256


def validate(problem: Problem) -> ValidationReport:
    """Structural checks.  A problem with errors has no defined semantics;
    warnings flag odd but meaningful inputs (no goal clauses, say).  A term
    nested deeper than MAX_NESTING is an error."""
    report = ValidationReport([], [])
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

    def check_term(term: Term, sort: str) -> None:
        # On an explicit stack, so that a term too deep to solve is reported
        # rather than overflowing Python's recursion limit.
        stack = [(term, sort, 0)]
        while stack:
            t, expected, depth = stack.pop()
            if depth > MAX_NESTING:
                err("%s: a term is nested deeper than %d levels" % (where, MAX_NESTING))
                return
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
                continue
            if not problem.has_constructor(t.ctor):
                err("%s: unknown constructor %s" % (where, t.ctor))
                continue
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
                continue
            stack.extend(zip(reversed(t.args), reversed(ctor.arg_sorts), repeat(depth + 1)))

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
    table = TermTable(problem)
    table.extend(max_depth)
    return [table.term[i] for i in table.prefix(max_depth)[sort]]


class TermTable:
    """The ground terms of a problem up to some depth, interned as ids.
    Term i has constructor ctor[i], argument ids args[i], depth depth[i]
    and object term[i]; build maps (constructor, argument ids) to i.
    universe[sort] lists the sort's ids in ground_terms order, which is by
    depth, so the universe at depth d is its first ends[sort][d] ids.
    Layers are added one depth at a time, bottom-up, so nothing here
    recurses over a term."""

    def __init__(self, problem: Problem):
        self.sorts = problem.sorts
        self.ctor: List[str] = []
        self.args: List[Tuple[int, ...]] = []
        self.depth: List[int] = []
        self.term: List[App] = []
        self.build: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self.universe: Dict[str, List[int]] = {s.name: [] for s in problem.sorts}
        self.ends: Dict[str, List[int]] = {s.name: [] for s in problem.sorts}
        self.top = -1  # the deepest layer added

    def extend(self, depth: int, deadline: Optional[float] = None) -> None:
        """Adds the layers up to depth.  With a deadline, a time.monotonic()
        value, the clock is read every 512 terms tried, and SearchTimeout
        is raised once it has passed.  top and ends then stay at the last
        whole layer, and adding the cut layer again skips the terms it
        already added, which keep the ids and places of an uncut run.
        A term of layer d has an argument in layer d - 1 (the semi-naive
        delta rule), so the last argument ranges over that layer alone
        unless an earlier one is in it, and the others over all below d."""
        tried = 0
        while self.top < depth:
            d = self.top + 1
            for s in self.sorts:
                for c in s.constructors:
                    if not c.arg_sorts:
                        if d == 0:
                            self._add(s.name, c.name, (), 0)
                    elif d > 0:
                        init, last = c.arg_sorts[:-1], c.arg_sorts[-1]
                        lo = self.ends[last][d - 2] if d > 1 else 0
                        for head in product(*[self.universe[a][: self.ends[a][d - 1]] for a in init]):
                            start = 0 if head and d - 1 in map(self.depth.__getitem__, head) else lo
                            for a in self.universe[last][start : self.ends[last][d - 1]]:
                                tried += 1
                                if not tried % 512 and _past(deadline):
                                    raise SearchTimeout()
                                args = head + (a,)
                                if (c.name, args) not in self.build:
                                    self._add(s.name, c.name, args, d)
            for s in self.sorts:
                self.ends[s.name].append(len(self.universe[s.name]))
            self.top = d

    def _add(self, sort: str, ctor: str, args: Tuple[int, ...], depth: int) -> None:
        i = len(self.ctor)
        term = App(ctor, tuple([self.term[a] for a in args]))
        self.ctor.append(ctor)
        self.args.append(args)
        self.depth.append(depth)
        self.term.append(term)
        self.build[ctor, args] = i
        self.universe[sort].append(i)

    def prefix(self, depth: int) -> Dict[str, List[int]]:
        """Each sort's universe at the depth, which must have been added;
        empty below depth 0."""
        return {
            sort: ids[: self.ends[sort][depth]] if depth >= 0 else []
            for sort, ids in self.universe.items()
        }

    def intern(self, atom: Atom) -> Optional[Tuple[int, ...]]:
        """The ids of the atom's arguments; None when an argument is not a
        ground term in the layers added so far."""
        ids = [self._find(t) for t in atom.args]
        return None if None in ids else tuple(ids)  # type: ignore[arg-type]

    def _find(self, t: Term) -> Optional[int]:
        """The id of a term, found bottom-up through build, so that a deep
        term is never compared as a whole."""
        ids: List[int] = []
        for u in subterms(t):
            if not isinstance(u, App):
                return None
            k = len(ids) - len(u.args)
            i = self.build.get((u.ctor, tuple(ids[k:])))
            if i is None:
                return None
            ids[k:] = [i]
        return ids[0]


class GroundPlan:
    """The counterexample phase's compiled form of a problem, built once
    and shared by every depth bound: the term table, which each new bound
    extends by its new layers, and (clause index, head predicate, then the
    three values of plancode.ground_join) per definite clause, and per goal
    without the predicate; a definite clause's join files into the
    relations of its head predicate that a join reads.  Atoms are not
    shared: each bound derives its
    model afresh; atoms counts those of the last model built, or of the
    one being built when it stopped."""

    def __init__(self, problem: Problem):
        from .plancode import ground_join, ground_relations  # plancode imports automaton, which imports this module

        self.terms = TermTable(problem)
        self.atoms = 0
        read = sorted({rel for clause in problem.clauses for rel in ground_relations(clause)})
        self.definite = [
            (idx, clause.head.pred, *ground_join(clause, tuple(rel for rel in read if rel[1] == clause.head.pred)))
            for idx, clause in problem.definite_clauses()
        ]
        self.goals = [(idx, *ground_join(clause)) for idx, clause in problem.goal_clauses()]


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


class GroundModel(abc.Set):
    """The atoms of a bounded ground least model, as term ids of the plan's
    table, and the store that the plan's joins read, goals included.  Atom
    n is preds[n] over the argument ids args[n].  Its first derivation, by
    the join of plan.definite[k], is a run of ints in the flat list
    derived, from start[n] on: k, then the clause's slot values, then the
    numbers of the atoms it used, one per body atom.  numbers[pred] maps
    argument ids to atom numbers, the highest of which is newest[pred].
    indexes files atom numbers, under plancode.key_of's key, for each
    relation ("pred", p, positions) the plan's joins read, and universe,
    the table's prefix at depth bound, is what the variables in no body
    atom range over; the definite joins fill it, up to cap atoms.  With a
    deadline, a time.monotonic() value, a join reads the clock every 512
    of its steps (see plancode.ground_join) through tick(), which raises
    SearchTimeout once it has passed.
    As a read-only set of Atoms it iterates in the order the atoms were
    derived, building each Atom from the table's term objects when it is
    reached.  An atom with a term outside the table's layers is no member,
    and looking it up adds no layer."""

    def __init__(self, plan: GroundPlan, bound: int, cap: int, deadline: Optional[float]):
        self.plan = plan
        self.bound = bound
        self.cap = cap
        self.universe = plan.terms.prefix(bound)
        self.deadline = deadline
        self.preds: List[str] = []
        self.args: List[Tuple[int, ...]] = []
        self.derived: List[int] = []
        self.start: List[int] = []
        self.numbers: Dict[str, Dict[Tuple[int, ...], int]] = {pred: {} for _, pred, *_ in plan.definite}
        self.newest: Dict[str, int] = {}
        self.indexes = {rel: {} for *_, rels in plan.definite + plan.goals for rel in rels}

    def tick(self) -> None:
        if _past(self.deadline):
            raise SearchTimeout()

    @classmethod
    def _from_iterable(cls, it: Iterator[Atom]) -> Set[Atom]:
        return set(it)

    def __len__(self) -> int:
        return len(self.preds)

    def __iter__(self) -> Iterator[Atom]:
        return map(self.atom, range(len(self.preds)))

    def __contains__(self, atom: object) -> bool:
        return self.number(atom) is not None

    def atom(self, n: int) -> Atom:
        term = self.plan.terms.term
        return Atom(self.preds[n], tuple([term[i] for i in self.args[n]]))

    def number(self, atom: object) -> Optional[int]:
        """The atom's number, or None when it is not in the model."""
        if not isinstance(atom, Atom) or atom.pred not in self.numbers:
            return None
        return self.numbers[atom.pred].get(self.plan.terms.intern(atom))  # type: ignore[arg-type]

    def derivation(self, n: int) -> Tuple[int, Subst, Tuple[int, ...]]:
        """Atom n's clause index, substitution and used atom numbers, each
        of which is below n."""
        k, vals, used = self._entry(n)
        idx, _, _, names, _ = self.plan.definite[k]
        term = self.plan.terms.term
        return idx, dict(zip(names, [term[v] for v in vals])), tuple(used)

    def _entry(self, n: int) -> Tuple[int, List[int], List[int]]:
        """Atom n's k, slot values and used atom numbers, as derived holds them."""
        at = self.start[n]
        k = self.derived[at]
        _, _, _, names, rels = self.plan.definite[k]
        mid = at + 1 + len(names)
        return k, self.derived[at + 1 : mid], self.derived[mid : mid + len(rels)]

    def steps(self, numbers: Sequence[int]) -> Tuple[Tuple["Step", ...], Tuple[int, ...]]:
        """The steps that prove the atoms numbered, one per atom they need,
        in increasing atom number renumbered from 0, so each premise is an
        earlier step; and the steps of the atoms numbered."""
        needed = set(numbers)
        stack = list(needed)
        while stack:
            for m in self._entry(stack.pop())[2]:
                if m not in needed:
                    needed.add(m)
                    stack.append(m)
        order = sorted(needed)
        step_of = {n: i for i, n in enumerate(order)}
        steps = []
        for n in order:
            idx, subst, used = self.derivation(n)
            steps.append(Step(self.atom(n), idx, frozen_subst(subst), tuple([step_of[m] for m in used])))
        return tuple(steps), tuple([step_of[n] for n in numbers])


class GroundProvenance(abc.Mapping):
    """A GroundModel's provenance, built for each atom looked up."""

    def __init__(self, model: GroundModel):
        self.model = model

    def __len__(self) -> int:
        return len(self.model)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.model)

    def __getitem__(self, atom: Atom) -> Tuple[int, Subst, Tuple[Atom, ...]]:
        model = self.model
        n = model.number(atom)
        if n is None:
            raise KeyError(atom)
        idx, subst, used = model.derivation(n)
        return idx, subst, tuple(map(model.atom, used))


def ground_least_model(
    problem: Problem,
    depth_bound: int,
    atom_cap: int = DEFAULT_ATOM_CAP,
    deadline: Optional[float] = None,
    plan: Optional[GroundPlan] = None,
) -> Tuple[GroundModel, GroundProvenance]:
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
    clause over every fact.  Body-free clauses therefore fire once.  A
    firing is one call of the clause's join, which files its atoms itself
    and tries a variable nested k deep in the head only at depths up to
    depth_bound - k.

    The atoms and their provenance stay as term ids, the provenance in
    one flat list of ints: the result is a GroundModel and its provenance
    Mapping, which build Atoms, substitutions and used-atom tuples only
    for what is looked up or iterated over.

    plan is the problem's GroundPlan, made here when None; its term table
    is extended to depth_bound, and its atoms count is the model's, also
    when the cap or the deadline stops it.  With a deadline, a time.monotonic() value,
    the clock is read every 512 terms the table tries, every 512 steps of
    a join (one per body atom's step and one per candidate) and after each
    firing, and SearchTimeout is raised once it has passed."""
    if plan is None:
        plan = GroundPlan(problem)
    plan.atoms = 0
    plan.terms.extend(depth_bound, deadline)
    model = GroundModel(plan, depth_bound, atom_cap, deadline)
    preds, indexes = model.preds, model.indexes
    # The atom count when each clause last began firing; None before it has.
    since: List[Optional[int]] = [None] * len(plan.definite)
    try:
        while True:
            before = len(preds)
            for k, (_, _, join, _, _) in enumerate(plan.definite):
                start = len(preds)
                join(model, indexes, since[k], k)
                since[k] = start
                if _past(deadline):
                    raise SearchTimeout()
            if len(preds) == before:
                return model, GroundProvenance(model)
    finally:
        plan.atoms = len(preds)


# ---------------------------------------------------------------------------
# Derivations

SubstItems = Tuple[Tuple[str, Term], ...]


@record
class Step:
    """One step of a derivation: the atom that the definite clause numbered
    clause_index proves under the grounding substitution, from the steps
    numbered premises, one per body atom in body order."""

    atom: Atom
    clause_index: int
    substitution: SubstItems
    premises: Tuple[int, ...]


@record
class Derivation:
    """Witness that a goal clause is violated: a grounding of the goal
    body, numbered steps, each premise of which is an earlier step, and
    the steps that prove the goal's body atoms, in body order."""

    goal_index: int
    substitution: SubstItems
    steps: Tuple[Step, ...]
    premises: Tuple[int, ...]


def goal_violated(model: GroundModel) -> Optional[Derivation]:
    """First goal violated by the ground model, with a replayable
    derivation, or None.  Goals are tried in clause order, each through its
    join over the model; the first with a solution is then searched again
    over the atoms in (predicate, format_atom) order, so the goal and
    substitution named depend on the atom set alone: every bucket of more
    than one atom that the goal reads is sorted once, in place.  A variable
    in no goal atom ranges over the model's universe, the ground terms of
    depth <= its depth bound.  Atoms and steps are built only for the derivation named.
    Raises SearchTimeout once the model's deadline, the one
    ground_least_model was given, has passed: the clock is read in the
    joins as in ground_least_model, and before each sort."""
    plan, indexes = model.plan, model.indexes
    for idx, join, names, rels in plan.goals:
        if next(join(model, indexes, None), None) is not None:
            break
    else:
        return None
    # Each relation once, as a goal may read one twice; the model is
    # complete, so the definite joins no longer read these buckets.
    for rel in dict.fromkeys(rels):
        for bucket in indexes[rel].values():
            if len(bucket) > 1:
                model.tick()
                bucket.sort(key=lambda n: format_atom(model.atom(n)))
    vals, used = next(join(model, indexes, None))
    term = plan.terms.term
    subst = {name: term[v] for name, v in zip(names, vals)}
    return Derivation(idx, frozen_subst(subst), *model.steps(used))


def check_derivation(problem: Problem, derivation: Derivation) -> List[str]:
    """Replays a derivation from scratch; returns the list of defects, so
    empty means the derivation is valid.  Independent of how the
    derivation was produced: one loop replays each step once, in number
    order, and then the goal.  Each re-substitutes its clause, whose every
    variable needs a ground value, and compares the atom of each premise,
    which must be an earlier step, with the body atom it stands for."""
    steps = derivation.steps
    # (where, clause index, substitution, premises, the atom proved): each
    # step, then the goal, which proves none.
    rows = [("step %d" % n, s.clause_index, s.substitution, s.premises, s.atom) for n, s in enumerate(steps)]
    rows.append(("goal", derivation.goal_index, derivation.substitution, derivation.premises, None))
    errors: List[str] = []
    names: Dict[int, List[str]] = {}  # each clause's variables
    for n, (where, k, items, premises, atom) in enumerate(rows):
        if not 0 <= k < len(problem.clauses):
            errors.append("%s: clause index %d out of range" % (where, k))
            continue
        clause = problem.clauses[k]
        if clause.is_goal != (atom is None):
            errors.append("%s: clause %d is %s" % (where, k, "a goal" if clause.is_goal else "not a goal"))
            continue
        subst = dict(items)
        nonground = [name for name, t in items if not is_ground(t)]
        if nonground:
            errors.append("%s: substitution for %s is not ground" % (where, nonground[0]))
            continue
        if k not in names:
            names[k] = [v.name for v in clause_vars(clause)]
        unbound = [name for name in names[k] if name not in subst]
        if unbound:
            errors.append("%s: clause %d is not fully instantiated: %s has no value" % (where, k, unbound[0]))
            continue
        if atom is not None:
            head = subst_atom(clause.head, subst)  # type: ignore[arg-type]
            if head != atom:
                errors.append(
                    "%s: clause %d instantiates to %s, not %s" % (where, k, format_atom(head), format_atom(atom))
                )
        body = [lit for lit in clause.body if isinstance(lit, Atom)]
        if len(body) != len(premises):
            errors.append("%s: clause %d has %d body atoms but %d premises" % (where, k, len(body), len(premises)))
            continue
        for i, (lit, m) in enumerate(zip(body, premises)):
            if not 0 <= m < n:
                errors.append("%s: premise %d is %d, not an earlier step" % (where, i, m))
                continue
            expected = subst_atom(lit, subst)
            if expected != steps[m].atom:
                errors.append(
                    "%s: premise %d, step %d, proves %s where %s is required"
                    % (where, i, m, format_atom(steps[m].atom), format_atom(expected))
                )
        for lit in clause.body:
            if isinstance(lit, (Eq, Diseq)):
                lhs, rhs = apply_subst(lit.lhs, subst), apply_subst(lit.rhs, subst)
                if (lhs == rhs) != isinstance(lit, Eq):
                    errors.append("%s: a constraint in clause %d fails" % (where, k))
    return errors
