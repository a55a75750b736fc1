"""Clause bodies as generated Python code: the joins of both phases.

Two front ends write functions of nested loops through one emitter,
_Code: source() for the model engine's plans (see interpretation) and
ground_join() for the counterexample phase's joins over term ids (see
core).  Both write one form, a factory make(db) compiled once per shape
or clause and process, which its store, an engine or a ground model of
one depth, calls once; the run0 it returns reads nothing of db again.
Goal plans and goal joins yield their solutions, a goal's join in plain
nested loops, as it runs once over a complete model.  A definite plan or
clause join fires and files, adding each new head row or atom to its
store itself; a ground join skips early the heads too deep for the
model's bound.  Both count the steps of their loops in a local and call
tick() every 512th, which raises SearchTimeout past the run's deadline.
A failed test continues the innermost loop, or returns outside every
loop, so only loops nest and a long chain of tests stays flat.  CPython
refuses code that nests more than 20 loops, so after LOOPS loops the rest
of the body goes into a new function, which the loop calls (with yield
from in a generator), passing it every local bound so far.

The indexes of both phases' stores map each relation, a source such as
("pred", p) and then the positions it is looked up by, to the rows or
atom numbers filed under key_of's key of those positions.  make reads
each index the code needs once.

The certifier never runs this code: least_tables and check_model read
the same naive round, which interprets plans with _solutions in one loop,
and check_derivation replays a derivation term by term.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .automaton import EMPTY, diff_approx

# The most loops one generated function nests, below the 20 nested blocks
# CPython compiles.
LOOPS = 16


class _Code:
    """The text of make(db), which returns run0 and nests beside it the
    functions run0 chains to.  params are run0's own parameters, and the
    locals outer() binds in make its default arguments, so no closure cell
    holds them or db.  live lists the locals that the code still to be
    written may read; t counts the steps down to the next tick(), and
    every function returns it to its caller."""

    def __init__(self, params: List[str], yields: bool = True):
        self.params, self.live, self.prologue = params, dict.fromkeys(params), []
        self.chain = "t = yield from run%d(%s)" if yields else "t = run%d(%s)"
        self.functions: List[List[str]] = []
        self._open()
        self.let("t = 512")

    def _open(self) -> None:
        self.lines = ["def run%d(%s):" % (len(self.functions), ", ".join(self.live))]
        self.functions.append(self.lines)
        self.pad, self.loops = " ", 0

    def _close(self) -> None:
        self.lines.append(" return t")

    def line(self, text: str) -> None:
        self.lines.append(self.pad + text)

    def bind(self, *names: str) -> None:
        self.live.update(dict.fromkeys(names))

    def let(self, *assignments: str) -> None:
        """Writes each "name = value" line and keeps the name live."""
        for text in assignments:
            self.line(text)
            self.bind(text.split(" = ")[0])

    def outer(self, *assignments: str) -> None:
        """Writes each "name = value" line in make, before any loop."""
        self.prologue += assignments
        self.bind(*[text.split(" = ")[0] for text in assignments])

    def test(self, cond: str) -> None:
        skip = "continue" if self.loops else "return t"
        self.line("if not (%s): %s" % (cond, skip))

    def tick(self) -> None:
        """Counts one step; every 512th calls tick()."""
        self.line("t -= 1")
        self.line("if not t: tick(); t = 512")

    def loop(self, target: str, iterable: str) -> None:
        if self.loops == LOOPS:
            self.line(self.chain % (len(self.functions), ", ".join(self.live)))
            self._close()
            self._open()
        self.line("for %s in %s:" % (target, iterable))
        self.pad += " "
        self.loops += 1

    def text(self, item: str = "") -> str:
        """The whole code, run0 yielding item at its innermost point, if given."""
        if item:
            self.line("yield " + item)
        self._close()
        lines = [line for lines in self.functions for line in lines]
        names = [text.split(" = ")[0] for text in self.prologue]
        lines[0] = "def run0(%s):" % ", ".join(self.params + ["%s=%s" % (name, name) for name in names])
        lines = ["def make(db):"] + [" " + line for line in self.prologue + lines + ["return run0"]]
        return "".join(line + "\n" for line in lines)


def _define(text: str, **names) -> Callable:
    namespace = {"EMPTY": EMPTY, "diff_approx": diff_approx, "bisect_left": bisect_left, **names}
    exec(compile(text, "<plan>", "exec"), namespace)
    return namespace["make"]


def _row(names) -> str:
    return "(%s)" % "".join(name + ", " for name in names)


def key_of(positions: Sequence[int]) -> Callable[[tuple], object]:
    """The key under which every index that generated code reads files a
    row: its value at the one bound position, the tuple of its values at
    several, () at none.  _key writes the lookups' key the same way."""
    return itemgetter(*positions) if positions else lambda row: ()


def _key(names: List[str]) -> str:
    """The text of key_of's key over the locals named."""
    return names[0] if len(names) == 1 else _row(names)


def _read(write: Callable[..., None], indexes: str, relations: Iterable[tuple]) -> Dict[tuple, str]:
    """Binds a local to each relation's index in the mapping indexes."""
    names = {rel: "x%d" % i for i, rel in enumerate(dict.fromkeys(relations))}
    write(*["%s = %s[%r]" % (name, indexes, rel) for rel, name in names.items()])
    return names


def source(steps: Tuple[tuple, ...], out: Tuple[int, ...], head: Optional[tuple] = None) -> str:
    """The text of make(db), which binds a FixpointEngine db and returns
    run0(fact), fact being the seed of a seeded plan.  Each state variable
    is a local, each pred or enum join one for loop over the engine's live
    index list, and each fwd, diseq or gen step the test _solutions makes,
    in the same order, so both find the same solutions in the same order.
    Each iteration of a loop counts one step, and every 512th step calls
    db.tick().  Without head, run0 yields per solution the states of the
    variables out.
    With head, (pred, filed), out is a definite clause's head row, and run0
    puts each new row in db.tables[pred] and the indexes of filed, and
    (("pred", pred), row) on db.trail."""
    code = _Code(["fact"], yields=head is None)
    code.outer("a = db.automaton", "delta = a.delta", "inh = db.inh", "tick = db.tick")
    filed = head[1] if head else ()
    if head:
        code.outer("rows = db.tables[%r]" % head[0], "trail = db.trail", "e = ('pred', %r)" % head[0])
    rels = _read(code.outer, "db.indexes", [step[1] for step in steps if step[0] in ("pred", "enum")] + list(filed))
    for n, step in enumerate(steps):
        kind = step[0]
        if kind == "fwd":
            _, ctor, args, res, res_bound = step
            key = "(%r, %s)" % (ctor, _row("v%d" % v for v in args))
            if res_bound:
                code.test("delta.get(%s) == v%d" % (key, res))
            else:
                code.let("v%d = delta.get(%s)" % (res, key))
                code.test("v%d is not None" % res)
        elif kind == "diseq":
            code.test("diff_approx(v%d, v%d, inh)" % (step[1], step[2]))
        elif kind == "gen":
            _, sv, sort = step
            code.loop("v%d" % sv, "a.states_of(%r)" % sort)
            code.tick()
            code.test("inh[v%d] != EMPTY" % sv)
            code.bind("v%d" % sv)
        else:
            _, rel, key_vars, outs, checks = step
            names = ["_"] * (len(rel[2]) + len(outs) + len(checks))
            for p, v in outs:
                names[p] = "v%d" % v
            for p, _ in checks:
                names[p] = "c%d_%d" % (n, p)
            target = "".join(name + ", " for name in names) or "_"  # a nullary row
            if kind == "seed":
                code.line("%s = fact" % target)
            else:
                code.loop(target, "%s.get(%s, ())" % (rels[rel], _key(["v%d" % v for v in key_vars])))
                code.tick()
            for p, v in checks:
                code.test("c%d_%d == v%d" % (n, p, v))
            code.bind(*["v%d" % v for _, v in outs])
    if head is None:
        return code.text(_row("v%d" % v for v in out))
    code.let("h = %s" % _row("v%d" % v for v in out))
    code.test("h not in rows")
    code.line("rows.add(h)")
    for rel in filed:
        code.line("%s.setdefault(%s, []).append(h)" % (rels[rel], _key(["v%d" % out[p] for p in rel[2]])))
    code.line("trail.append((e, h))")
    return code.text()


@lru_cache(maxsize=1024)
def compiled(*shape) -> Callable:
    """make, the factory source(*shape) writes, compiled once per shape and
    process: the one place the engine's code is built."""
    return _define(source(*shape))


def ground_relations(clause) -> Tuple[tuple, ...]:
    """The relations the clause's ground join reads: ("pred", p, positions)
    per body atom of p, by the positions the atoms before it bind."""
    from .core import Atom, term_vars

    rels, bound = [], set()  # bound: the variables of the atoms so far
    for lit in clause.body:
        if isinstance(lit, Atom):
            names = [{v.name for v in term_vars(t)} for t in lit.args]
            rels.append(("pred", lit.pred, tuple(p for p, vs in enumerate(names) if vs <= bound)))
            bound.update(*names)
    return tuple(rels)


@lru_cache(maxsize=512)
def ground_join(clause, filed: Tuple[tuple, ...] = ()) -> Tuple[Callable, Tuple[str, ...], Tuple[tuple, ...]]:
    """make, the factory of the clause's join over term ids; the variable
    of each slot; and the relations the join reads.  filed lists the
    relations of a definite clause's head predicate that some join reads.
    make is generated once per clause, filed and process, when first asked
    for, and each core.GroundModel binds the join once, as make(model).

    Each variable has a fixed slot, bound where the join first reaches it.
    A goal's join is run as run0(), a plain nested loop over its buckets,
    and that of the definite clause plan.definite[k] as run0(since, k),
    since being None or an atom number.  With since, only the solutions
    that use an atom numbered since or later count, in the nested-loop
    order: a loop skips the older part of its bucket, found by bisection,
    when no atom used so far is that new and no later body atom's
    predicate has one, so whatever the last body atom's loop reaches
    counts.  The join counts a step when it starts, one per bucket entry of
    a body atom that passes the atom's tests, and one per value of the
    variables in no body atom (the solution candidates; without such
    variables the last body atom's steps are the candidates), and calls
    the model's tick() every 512 steps.

    A goal's join yields (slot values, used atom numbers) per solution; a
    built term beyond the table is a (constructor, argument values) tuple,
    which equals no id.  A definite clause's join fires and files: it
    appends each solution's head atom that is new and whose built terms
    are ids of depth <= model.bound to the model, with its provenance:
    start[n] marks where k, the slot values and the used atom numbers
    begin in the flat list model.derived.  It files the atom's number into
    the indexes of filed, the () bucket of a relation looked up by no
    position bound once per depth, and raises core.BudgetExceeded past
    model.cap atoms.  A head variable nested k >= 1 deep in the head is
    tested for depth <= bound - k when a body atom binds it, or else ranges
    over the universe of that depth only, so only too deep heads are
    skipped."""
    from .core import Atom, BudgetExceeded, Eq, Var, clause_vars, term_vars

    atoms = [lit for lit in clause.body if isinstance(lit, Atom)]
    rels, head = ground_relations(clause), clause.head
    nest: Dict[str, int] = {}  # each head variable's deepest nesting in the head
    todo = [] if head is None else [(t, 0) for t in head.args]
    while todo:
        t, at = todo.pop()
        if isinstance(t, Var):
            nest[t.name] = max(nest.get(t.name, 0), at)
        else:
            todo += [(a, at + 1) for a in t.args]
    in_atoms = {v.name for lit in atoms for t in lit.args for v in term_vars(t)}
    free = [v for v in clause_vars(clause) if v.name not in in_atoms]  # range over universes
    code = _Code([] if head is None else ["since", "k"], yields=head is None)
    code.outer("args = db.args", "universe = db.universe", "tick = db.tick", "build = db.plan.terms.build",
               "ctor = db.plan.terms.ctor", "targs = db.plan.terms.args")
    if head is not None:
        code.outer(
            "newest = db.newest", "bound = db.bound", "cap = db.cap", "depth = db.plan.terms.depth",
            "preds = db.preds", "derived = db.derived", "start = db.start", "seen = db.numbers[%r]" % head.pred,
            *["d%d = bound - %d" % (k, k) for k in sorted(set(nest.values()) - {0})],
            *["w%d = db.plan.terms.prefix(d%d)[%r]" % (i, nest[v.name], v.sort)
              for i, v in enumerate(free) if nest.get(v.name)],
        )
        code.let("f0 = since is None")
    index = _read(code.outer, "db.indexes", rels + filed)
    # x<i>_ is the () bucket of a relation filed by no position.
    code.outer(*["%s_ = %s.setdefault((), [])" % (index[rel], index[rel]) for rel in filed if not rel[2]])
    slots: Dict[str, int] = {}
    temps = count()

    def value(t) -> str:
        """The local holding the id of the term, or its stand-in tuple,
        writing the lookups of its constructors first."""
        if isinstance(t, Var):
            return "v%d" % slots[t.name]
        key = "(%r, %s)" % (t.ctor, _row([value(a) for a in t.args]))
        name = "u%d" % next(temps)
        code.line("%s = %s" % (name, key))
        code.line("%s = build.get(%s, %s)" % (name, name, name))
        return name

    def unpack(source: str, terms: list) -> None:
        """Unpacks the ids of source against the terms, None where an id is
        a key, binding the first occurrence of each variable, testing the
        depth of those nested in the head and then the other terms."""
        targets, later, deep = [], [], []
        for t in terms:
            if t is None:
                targets.append("_")
            elif isinstance(t, Var) and t.name not in slots:
                slots[t.name] = len(slots)
                targets.append("v%d" % slots[t.name])
                code.bind(targets[-1])
                deep += ["depth[%s] <= d%d" % (targets[-1], nest[t.name])] if nest.get(t.name) else []
            else:
                targets.append("u%d" % next(temps))
                later.append((targets[-1], t))
        if any(name != "_" for name in targets):
            code.line("%s, = %s" % (", ".join(targets), source))
        for cond in deep:
            code.test(cond)
        for name, t in later:
            if isinstance(t, Var):
                code.test("%s == v%d" % (name, slots[t.name]))
            else:
                code.test("ctor[%s] == %r" % (name, t.ctor))
                unpack("targs[%s]" % name, t.args)

    code.tick()
    for i, (lit, rel) in enumerate(zip(atoms, rels)):
        keys = [value(lit.args[p]) for p in rel[2]]
        code.let("b%d = %s.get(%s, ())" % (i, index[rel], _key(keys)))
        if head is None:
            code.loop("n%d" % i, "b%d" % i)
            code.bind("n%d" % i)
        else:
            newer = "".join(" or newest.get(%r, -1) >= since" % a.pred for a in atoms[i + 1:])
            code.let("lo = 0 if f%d%s else bisect_left(b%d, since)" % (i, newer, i))
            code.loop("j%d" % i, "range(lo, len(b%d))" % i)
            code.let("n%d = b%d[j%d]" % (i, i, i))
        unpack("args[n%d]" % i, [None if p in rel[2] else t for p, t in enumerate(lit.args)])
        if head is not None and i + 1 < len(atoms):
            code.let("f%d = f%d or n%d >= since" % (i + 1, i, i))
        code.tick()
    if head is not None and not atoms:
        code.test("f0")
    for i, v in enumerate(free):
        slots[v.name] = len(slots)
        code.loop("v%d" % slots[v.name], "w%d" % i if nest.get(v.name) else "universe[%r]" % v.sort)
        code.bind("v%d" % slots[v.name])
    if free:
        code.tick()
    for lit in clause.body:
        if not isinstance(lit, Atom):
            lhs, rhs = value(lit.lhs), value(lit.rhs)
            code.test("%s %s %s" % (lhs, "==" if isinstance(lit, Eq) else "!=", rhs))
    vals, used = ["v%d" % s for s in range(len(slots))], ["n%d" % i for i in range(len(atoms))]
    terms = [] if head is None else [value(t) for t in head.args]
    del value, unpack  # each refers to itself: dropped, compiling leaves no cycle
    if head is None:
        return _define(code.text("%s, %s" % (_row(vals), _row(used)))), tuple(slots), rels
    for name, t in zip(terms, head.args):
        if not isinstance(t, Var):
            code.test("%s.__class__ is int and depth[%s] <= bound" % (name, name))
    code.let("h = %s" % _row(terms))
    code.test("h not in seen")
    code.let("n = len(preds)")
    code.line("preds.append(%r); args.append(h); start.append(len(derived)); derived += %s"
              % (head.pred, _row(["k"] + vals + used)))
    code.line("seen[h] = n; newest[%r] = n" % head.pred)
    for rel in filed:
        if rel[2]:
            code.line("%s.setdefault(%s, []).append(n)" % (index[rel], _key([terms[p] for p in rel[2]])))
        else:
            code.line("%s_.append(n)" % index[rel])
    code.line("if n >= cap: raise BudgetExceeded(%r %% (cap, bound))" % "ground model exceeds %d atoms at depth %d")
    return _define(code.text(), BudgetExceeded=BudgetExceeded), tuple(slots), rels
