r"""Text interface to an external answer-set solver.

emit_model_search returns the text of the choice-rule program that guesses
a complete deterministic automaton plus predicate tables over a fixed state
budget; emit_counterexample_search returns the bounded ground search, which
is written out for --emit-asp only: both backends search for counterexamples
natively.  parse_answer_set reads the facts of an answer in one pass over
its line, and decode_model rebuilds the automaton and tables from them and
rejects answers that do not even fill the transition grid; everything else
about the answer is certified by driver.solve, as for the native backend.

An answer line is terms separated by blanks (str.isspace()): integers
(-?\d+), names ([a-z_][A-Za-z0-9_]*), applications (a name whose next
non-blank character is "(") and tuples (a bare "(", read with functor "").
Inside parentheses one comma may follow each term, so f(a b) and f(a,)
parse.  Anything else, and nesting deeper than core.MAX_NESTING, raises
AnswerParseError.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .automaton import PredicateTables, TreeAutomaton, state_ranges_for, transition_grid
from .core import (
    DEFAULT_ATOM_CAP,
    MAX_NESTING,
    App,
    Atom,
    BudgetExceeded,
    Diseq,
    Eq,
    Problem,
    Term,
    TermTable,
    Var,
    clause_vars,
    subterms,
)
from .interpretation import flatten

# Parsed solver terms: integers, constants, or functor applications.  Tuple
# terms like (x,y) come back with an empty functor name.
AspTerm = Union[int, str, Tuple[str, Tuple["AspTerm", ...]]]


class AspError(Exception):
    pass


class EmitError(AspError):
    pass


class AnswerParseError(AspError):
    pass


class NoAnswerSetError(AspError):
    """No answer set in the output; reason is "unsatisfiable" when the
    solver said so and "missing" when no answer could be located."""

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class DecodeError(AspError):
    pass


class SolverNotFoundError(AspError):
    pass


# Names claimed by the encoding itself; user symbols that collide with
# these (or are not valid ASP identifiers) get the c_ escape prefix.
_RESERVED = frozenset(
    {
        "state",
        "stateType",
        "rule",
        "inh",
        "inhTrans",
        "many",
        "diffApprox",
        "dom",
        "witness",
        "violated",
        "unit",
        "slot",
        "slotIdx",
        "argSeen",
        "seen",
        "nextState",
        "not",
    }
)

_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _escape(name: str) -> str:
    if _IDENT.match(name) and name not in _RESERVED:
        return name
    return "c_" + re.sub(r"[^A-Za-z0-9_]", "_", name)


def name_map(problem: Problem) -> Dict[str, str]:
    """Original name -> ASP-safe name for every sort, constructor and
    predicate.  Escaping must stay injective inside each category."""
    out: Dict[str, str] = {}
    for category in (
        [s.name for s in problem.sorts],
        [c.name for s in problem.sorts for c in s.constructors],
        [p.name for p in problem.predicates],
    ):
        seen: Dict[str, str] = {}
        for name in category:
            esc = _escape(name)
            if esc in seen and seen[esc] != name:
                raise EmitError(
                    "names %s and %s both escape to %s" % (seen[esc], name, esc)
                )
            seen[esc] = name
            out[name] = esc
    return out


def _ctor_term(cname: str, args: List[str]) -> str:
    if not args:
        return cname
    return "%s(%s)" % (cname, ", ".join(args))


def emit_model_search(
    problem: Problem,
    n_states: Union[int, Dict[str, int]],
    symmetry_breaking: bool = False,
) -> str:
    """The automaton-guessing program.  Sections in order: state ranges,
    transition choice rules, predicate choice rules, the diffApprox
    definition, the flattened clauses, optional ordering constraints, and
    #show directives.  Single-sort problems guard with state/1, multi-sort
    with stateType/2."""
    ranges = state_ranges_for(problem, n_states)
    names = name_map(problem)
    single = len(problem.sorts) == 1
    total = ranges[-1][2]

    def guard(qv: str, sort: str) -> str:
        if single:
            return "state(%s)" % qv
        return "stateType(%s, %s)" % (qv, names[sort])

    header = ["#const maxState=%d." % total, "state(1..maxState)."]
    for sort, lo, hi in ranges:
        header.append("stateType(%d..%d, %s)." % (lo, hi, names[sort]))

    choices: List[str] = []
    for s in problem.sorts:
        for c in s.constructors:
            argvars = ["Q%d" % i for i in range(len(c.arg_sorts))]
            head = "1 {rule(%s, Q): %s} 1" % (
                _ctor_term(names[c.name], argvars),
                guard("Q", s.name),
            )
            if argvars:
                body = ", ".join(guard(v, a) for v, a in zip(argvars, c.arg_sorts))
                choices.append("%s :- %s." % (head, body))
            else:
                choices.append(head + ".")

    pred_choices: List[str] = []
    for p in problem.predicates:
        argvars = ["Q%d" % i for i in range(len(p.arg_sorts))]
        atom = _ctor_term(names[p.name], argvars)
        if argvars:
            body = ", ".join(guard(v, a) for v, a in zip(argvars, p.arg_sorts))
            pred_choices.append("{%s} :- %s." % (atom, body))
        else:
            pred_choices.append("{%s}." % atom)

    diff = _diff_approx_rules(problem, names)
    clauses = [_model_clause(problem, cl, names, guard) for cl in problem.clauses]

    sections: List[List[str]] = [header, choices, pred_choices, diff, clauses]
    if symmetry_breaking:
        sections.append(_ordering_constraints(problem, ranges, names))

    shows = ["#show rule/2."]
    for p in problem.predicates:
        shows.append("#show %s/%d." % (names[p.name], len(p.arg_sorts)))
    sections.append(shows)

    return "\n\n".join("\n".join(sec) for sec in sections if sec) + "\n"


def _diff_approx_rules(problem: Problem, names: Dict[str, str]) -> List[str]:
    """diffApprox(Q1,Q2) holds when states Q1 and Q2 recognize at least two
    different terms between them: distinct inhabited states, or one state
    with two or more terms.  inhTrans reifies a transition whose argument
    states are all inhabited; two distinct inhabited transitions into the
    same state, or one argument with two terms, give many/1."""
    rules: List[str] = []
    ctors = [(c, s) for s in problem.sorts for c in s.constructors]
    for c, _ in ctors:
        argvars = ["Q%d" % i for i in range(len(c.arg_sorts))]
        cterm = _ctor_term(names[c.name], argvars)
        body = ["rule(%s, Q)" % cterm] + ["inh(%s)" % v for v in argvars]
        rules.append("inhTrans(%s, Q) :- %s." % (cterm, ", ".join(body)))
    rules.append("inh(Q) :- inhTrans(T, Q).")
    rules.append("many(Q) :- inhTrans(T1, Q), inhTrans(T2, Q), T1 != T2.")
    for c, _ in ctors:
        argvars = ["Q%d" % i for i in range(len(c.arg_sorts))]
        cterm = _ctor_term(names[c.name], argvars)
        for i in range(len(argvars)):
            body = ["rule(%s, Q)" % cterm, "many(%s)" % argvars[i]]
            body += ["inh(%s)" % v for j, v in enumerate(argvars) if j != i]
            rules.append("many(Q) :- %s." % ", ".join(body))
    rules.append(
        "diffApprox(Q1, Q2) :- inh(Q1), inh(Q2), Q1 != Q2, "
        "stateType(Q1, T), stateType(Q2, T)."
    )
    rules.append("diffApprox(Q, Q) :- many(Q).")
    return rules


def _model_clause(problem, clause, names, guard) -> str:
    flat = flatten(problem, clause)
    q = lambda v: "Q%d" % v
    parts: List[str] = []
    for pred, vs in flat.pred_literals:
        parts.append(_ctor_term(names[pred], [q(v) for v in vs]))
    for ctor, vs, res in flat.transitions:
        parts.append("rule(%s, %s)" % (_ctor_term(names[ctor], [q(v) for v in vs]), q(res)))
    for v1, v2 in flat.diseqs:
        parts.append("diffApprox(%s, %s)" % (q(v1), q(v2)))
    for g in flat.generators:
        parts.append(guard(q(g), flat.var_sorts[g]))
    body = ", ".join(parts)
    if flat.head is None:
        return ":- %s." % (body or "#true")
    pred, vs = flat.head
    head = _ctor_term(names[pred], [q(v) for v in vs])
    if body:
        return "%s :- %s." % (head, body)
    return head + "."


def _ordering_constraints(problem, ranges, names) -> List[str]:
    """First-occurrence ordering over the fixed slot grid: a state may be
    the target of slot K only if its same-sort predecessor was already seen
    as an argument of a slot <= K or as the target of a slot < K.  Prunes
    to the prefix-ordered representatives without losing any isomorphism
    class."""
    grid = transition_grid(problem, ranges)
    lines: List[str] = ["slot(0..%d)." % (len(grid) - 1)]
    for k, (ctor, args) in enumerate(grid):
        cterm = _ctor_term(names[ctor], [str(a) for a in args])
        lines.append("slotIdx(%s, %d)." % (cterm, k))
    first_arg: Dict[int, int] = {}
    for k, (_, args) in enumerate(grid):
        for a in args:
            if a not in first_arg:
                first_arg[a] = k
    for a in sorted(first_arg):
        lines.append("argSeen(%d, %d)." % (a, first_arg[a]))
    for _, lo, hi in ranges:
        for a in range(lo, hi):
            lines.append("nextState(%d, %d)." % (a, a + 1))
    lines.append("seen(Q, K) :- argSeen(Q, J), slot(K), J <= K.")
    lines.append("seen(Q, K) :- rule(T, Q), slotIdx(T, J), slot(K), J < K.")
    lines.append(":- rule(T, Q), slotIdx(T, K), nextState(P, Q), not seen(P, K).")
    return lines


def emit_counterexample_search(
    problem: Problem, depth_bound: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> str:
    """Bounded ground refutation search: dom/2 reifies the term universe up
    to depth_bound, clause rules are guarded so every head stays inside it,
    and each goal body derives a witness/2 fact.  The answer set exists iff
    some goal is violated in the bounded least model."""
    names = name_map(problem)
    if _universe_size(problem, depth_bound, atom_cap) > atom_cap:
        raise BudgetExceeded(
            "universe to depth %d exceeds the %d atom cap" % (depth_bound, atom_cap)
        )
    table = TermTable(problem)
    table.extend(depth_bound)
    dom = [
        "dom(%s, %s)." % (names[sort], _term_str(table.term[i], {}, names))
        for sort, ids in table.prefix(depth_bound).items()
        for i in ids
    ]

    rules: List[str] = []
    gi = 0
    for clause in problem.clauses:
        vs = clause_vars(clause)
        vmap = {v.name: "X%d" % i for i, v in enumerate(vs)}
        parts: List[str] = []
        for lit in clause.body:
            if isinstance(lit, Atom):
                parts.append(_atom_str(lit, vmap, names))
            elif isinstance(lit, Eq):
                parts.append(
                    "%s == %s" % (_term_str(lit.lhs, vmap, names), _term_str(lit.rhs, vmap, names))
                )
            elif isinstance(lit, Diseq):
                parts.append(
                    "%s != %s" % (_term_str(lit.lhs, vmap, names), _term_str(lit.rhs, vmap, names))
                )
        for v in vs:
            parts.append("dom(%s, %s)" % (names[v.sort], vmap[v.name]))
        if clause.head is not None:
            for arg in clause.head.args:
                if isinstance(arg, App):
                    parts.append(
                        "dom(%s, %s)" % (names[problem.term_sort(arg)], _term_str(arg, vmap, names))
                    )
            head = _atom_str(clause.head, vmap, names)
            rules.append("%s :- %s." % (head, ", ".join(parts)) if parts else head + ".")
        else:
            wvars = [vmap[v.name] for v in vs]
            if not wvars:
                wterm = "unit"
            elif len(wvars) == 1:
                wterm = "(%s,)" % wvars[0]
            else:
                wterm = "(%s)" % ", ".join(wvars)
            head = "witness(%d, %s)" % (gi, wterm)
            rules.append("%s :- %s." % (head, ", ".join(parts)) if parts else head + ".")
            gi += 1

    closing = ["violated :- witness(G, W).", ":- not violated."]
    shows = ["#show witness/2."]
    sections = [dom, rules, closing, shows]
    return "\n\n".join("\n".join(sec) for sec in sections if sec) + "\n"


def _universe_size(problem: Problem, depth_bound: int, cap: int) -> int:
    """Number of ground terms up to the depth bound, computed by counting
    only, saturated just above cap so huge universes stay cheap."""
    limit = cap + 1
    counts = {s.name: 0 for s in problem.sorts}
    for _ in range(depth_bound + 1):
        nxt: Dict[str, int] = {}
        for s in problem.sorts:
            n = 0
            for c in s.constructors:
                prod = 1
                for a in c.arg_sorts:
                    prod = min(prod * counts[a], limit)
                n = min(n + prod, limit)
            nxt[s.name] = n
        if nxt == counts:
            break
        counts = nxt
    return min(sum(counts.values()), limit)


def _term_str(t: Term, vmap: Dict[str, str], names: Dict[str, str]) -> str:
    done: List[str] = []
    for u in subterms(t):
        if isinstance(u, Var):
            done.append(vmap[u.name])
        else:
            k = len(done) - len(u.args)
            done[k:] = [_ctor_term(names[u.ctor], done[k:])]
    return done[0]


def _atom_str(atom: Atom, vmap: Dict[str, str], names: Dict[str, str]) -> str:
    return _term_str(App(atom.pred, atom.args), vmap, names)


# One match per token of an answer line, with the blanks before it; group 3
# is the "(" that makes a name an application.  The last two alternatives,
# any other character and the end, always match, so no character is skipped.
_ANSWER_TOKEN = re.compile(r"\s*(?:(-?\d+)|([a-z_][A-Za-z0-9_]*)(\s*\()?|(\()|(\))|(,)|(\S)|\Z)")


def _parse_fact_line(line: str) -> Tuple[AspTerm, ...]:
    """The terms of one answer line, built on an explicit stack."""
    facts: List[AspTerm] = []
    items = facts
    stack: List[Tuple[List[AspTerm], str]] = []  # the enclosing items, functor
    comma = False  # whether a comma may come next
    for m in _ANSWER_TOKEN.finditer(line):
        kind = m.lastindex
        if kind == 1:
            try:
                items.append(int(m[1]))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise AnswerParseError("integer too long at %d" % m.start(1)) from None
        elif kind == 2:
            items.append(m[2])
        elif kind in (3, 4):
            if len(stack) == MAX_NESTING:
                raise AnswerParseError("nesting deeper than %d levels at %d" % (MAX_NESTING, m.end() - 1))
            stack.append((items, m[2] or ""))
            items = []
        elif kind == 5 and stack:
            parent, functor = stack.pop()
            parent.append((functor, tuple(items)))
            items = parent
        elif kind == 6 and comma:
            pass
        elif kind is None:  # the end of the line
            break
        else:
            raise AnswerParseError("unexpected %r at %d" % (m[kind], m.start(kind)))
        comma = kind in (1, 2, 5) and bool(stack)  # a term ended inside parentheses
    if stack:
        raise AnswerParseError("unbalanced parentheses: %d left open" % len(stack))
    return tuple(facts)


def parse_answer_set(raw: str) -> Tuple[AspTerm, ...]:
    """The facts of the first answer set in solver output.  Prefers the line
    after an "Answer:" marker, where a malformed line raises
    AnswerParseError; without one, falls back to the first line that parses
    entirely as ground facts.  Raises NoAnswerSetError on UNSATISFIABLE
    output or when nothing parses."""
    lines = raw.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith("Answer"):
            rest = lines[i + 1] if i + 1 < len(lines) else ""
            return _parse_fact_line(rest)
    for line in lines:
        if line.strip() == "UNSATISFIABLE":
            raise NoAnswerSetError("solver reports unsatisfiable", "unsatisfiable")
    for line in lines:
        if not line.strip():
            continue
        try:
            facts = _parse_fact_line(line)
        except AnswerParseError:
            continue
        if facts:
            return facts
    raise NoAnswerSetError("no answer set found in solver output", "missing")


def parse_model_count(raw: str) -> Optional[Tuple[int, bool]]:
    """(count, exact) from a "Models : N" or "Models : N+" summary line."""
    m = re.search(r"Models\s*:\s*(\d+)\s*(\+?)", raw)
    if not m:
        return None
    return int(m.group(1)), m.group(2) != "+"


def _fact_parts(fact: AspTerm) -> Tuple[str, Tuple[AspTerm, ...]]:
    if isinstance(fact, str):
        return fact, ()
    if isinstance(fact, tuple):
        return fact[0], fact[1]
    raise DecodeError("bare integer %r is not a fact" % (fact,))


def decode_model(
    facts: Tuple[AspTerm, ...], problem: Problem, n_states: Union[int, Dict[str, int]]
) -> Tuple[TreeAutomaton, PredicateTables]:
    """Rebuild (automaton, tables) from the rule/2 and predicate facts.  Raises
    DecodeError on malformed facts and on missing, conflicting or
    out-of-grid transitions; the answer is not otherwise checked here."""
    ranges = state_ranges_for(problem, n_states)
    names = name_map(problem)
    ctor_of = {names[c.name]: c.name for s in problem.sorts for c in s.constructors}
    pred_of = {names[p.name]: p.name for p in problem.predicates}

    parsed: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    tables: PredicateTables = {p.name: set() for p in problem.predicates}
    for fact in facts:
        name, args = _fact_parts(fact)
        if name == "rule":
            if len(args) != 2 or not isinstance(args[1], int):
                raise DecodeError("malformed transition fact %r" % (fact,))
            cname, cargs = _fact_parts(args[0]) if not isinstance(args[0], int) else ("", ())
            if cname not in ctor_of:
                raise DecodeError("unknown constructor %r in %r" % (cname, fact))
            if not all(isinstance(a, int) for a in cargs):
                raise DecodeError("non-state argument in %r" % (fact,))
            key = (ctor_of[cname], tuple(cargs))  # type: ignore[arg-type]
            if key in parsed and parsed[key] != args[1]:
                raise DecodeError("conflicting targets for %s" % (key,))
            parsed[key] = args[1]
        elif name in pred_of:
            if not all(isinstance(a, int) for a in args):
                raise DecodeError("non-state argument in %r" % (fact,))
            tables[pred_of[name]].add(tuple(args))  # type: ignore[arg-type]

    grid = transition_grid(problem, ranges)
    delta: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    for slot in grid:
        if slot not in parsed:
            raise DecodeError("no transition for slot %s(%s)" % (slot[0], ", ".join(map(str, slot[1]))))
        delta[slot] = parsed[slot]
    extra = set(parsed) - set(grid)
    if extra:
        raise DecodeError("transitions outside the grid: %s" % sorted(extra))

    return TreeAutomaton(ranges, delta), tables


@dataclass(frozen=True)
class SolverConfig:
    """External solver invocation.  Exit-code conventions default to the
    clingo family (10/30 sat, 20 unsat) and can be overridden."""

    path: str
    time_limit: Optional[float] = None
    extra_args: Tuple[str, ...] = ()
    sat_codes: FrozenSet[int] = frozenset({10, 30})
    unsat_codes: FrozenSet[int] = frozenset({20})


@dataclass(frozen=True)
class SolverRun:
    exit_status: Optional[int]
    wall_seconds: float
    output: str
    errors: str
    outcome: str  # sat, unsat, timeout or unknown


def _as_text(data: object) -> str:
    if data is None:
        return ""
    if isinstance(data, bytes):
        return data.decode("utf-8", "replace")
    return str(data)


def run_external(program_text: str, config: SolverConfig) -> SolverRun:
    """Run the solver with the program on standard input.  The solver
    starts in a session of its own, so that a timeout, which yields outcome
    "timeout", kills it together with every process it started."""
    argv = (config.path,) + tuple(config.extra_args)
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
    except FileNotFoundError as exc:
        raise SolverNotFoundError("solver binary not found: %s" % config.path) from exc
    with proc:
        try:
            stdout, stderr = proc.communicate(program_text, timeout=config.time_limit)
        except subprocess.TimeoutExpired as exc:
            _kill_group(proc)
            elapsed = time.monotonic() - start
            return SolverRun(None, elapsed, _as_text(exc.stdout), _as_text(exc.stderr), "timeout")
        except BaseException:
            _kill_group(proc)
            raise
    elapsed = time.monotonic() - start
    if proc.returncode in config.sat_codes:
        outcome = "sat"
    elif proc.returncode in config.unsat_codes:
        outcome = "unsat"
    else:
        outcome = "unknown"
    return SolverRun(proc.returncode, elapsed, stdout, stderr, outcome)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kills the solver's process group and reaps the solver."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
