"""Dovetailed satisfiability procedure.

Under the state cap n (max_states) the counterexample phase looks for a
ground counterexample within depth 1, 2, ... up to n or max_depth, and the
native model phase walks once over the automata with at most n states per
sort; that walk holds the walk at every lower bound, and its first model
in walk order is the answer.  The phases are dovetailed by counted work,
never by the clock: a depth is charged the terms its universe gains and the
atoms of its ground model, the walk the facts its engine derives, one for
one, and the phase charged less runs next, the counterexample phase on a
tie.  Charging the terms keeps a depth whose universe explodes, as binary
trees' does, from running early for a few atoms.  The depths run where the
walk calls back after each assignment (search_model's between), in the
order a bound loop runs them, so an Unsat answer names the same
derivation; the walk is charged at most one assignment's facts past them.
A depth that ends the run raises its answer, through the walk if need be,
and the loop catches it.
Both backends run in one loop over a sequence of caps: the native walk's
is the cap alone, the asp backend's 1, 2, ... up to the cap, one solver
call with exactly n states per sort for each, after one more depth.  Once
every phase is exhausted the depths left run.

The log has one event per depth run and one model event per cap (found,
none or timeout), unless a depth ends the run first, with a derivation or
at the time limit; natively that is one event at the cap, charged the
walk's facts, and an asp call is charged nothing.  The counterexample
phase is native for both backends.  Whichever backend answered, solve
certifies the answer before it returns it: a Sat answer must pass
check_automaton, check_tables and check_model, an Unsat answer's
derivation must replay under check_derivation.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .automaton import PredicateTables, TreeAutomaton, check_automaton, check_tables
from .core import (
    BudgetExceeded,
    Derivation,
    GroundPlan,
    Problem,
    SearchTimeout,
    check_derivation,
    format_atom,
    format_term,
    record,
    validate,
)
from .interpretation import ClausePlans, check_model
from .native import find_counterexample, search_model

if TYPE_CHECKING:
    from . import asp


@record
class Sat:
    automaton: TreeAutomaton
    tables: PredicateTables


@record
class Unsat:
    derivation: Derivation


@record
class Unknown:
    reason: str  # "timeout" or "budget"
    detail: str = ""


SolveOutcome = Union[Sat, Unsat, Unknown]


@record
class PhaseEvent:
    phase: str  # "counterexample" or "model"
    bound: int  # the depth, or the states per sort
    seconds: float
    verdict: str  # "found", "none", "budget" or "timeout"
    # What the schedule charged the phase: a depth the terms its universe
    # gained and the atoms of its ground model, the native walk the facts
    # its engine derived, an asp call 0.
    work: int = 0


RunLog = Tuple[PhaseEvent, ...]


@record
class SolveOptions:
    backend: str = "native"
    max_states: int = 8
    # None ties the counterexample depth to the state bound; a number caps
    # it, 0 disables the counterexample phases entirely.
    max_depth: Optional[int] = None
    time_limit: Optional[float] = None
    # The asp backend's ordering constraints; the native walk has no switch.
    symmetry_breaking: bool = True
    solver: Optional[asp.SolverConfig] = None


class DriverError(Exception):
    pass


class SolverError(DriverError):
    """The external solver failed, or gave output that cannot be read."""


class CertificateError(Exception):
    """An answer failed certification: a fault in a backend, never a
    verdict about the problem."""


def check_bounds(max_states: int, max_depth: Optional[int], time_limit: Optional[float]) -> None:
    """Raises DriverError for a bound out of range, on every solve path."""
    if max_states < 1:
        raise DriverError("max_states must be at least 1")
    if max_depth is not None and max_depth < 0:
        raise DriverError("max_depth must not be negative")
    if time_limit is not None and not time_limit >= 0:  # NaN included
        raise DriverError("time_limit must be a number of seconds >= 0")


def solve(problem: Problem, options: Optional[SolveOptions] = None) -> Tuple[SolveOutcome, RunLog]:
    opts = options or SolveOptions()
    report = validate(problem)
    if not report.ok:
        raise DriverError("invalid problem: " + "; ".join(report.errors))
    if opts.backend not in ("native", "asp"):
        raise DriverError("unknown backend %r" % opts.backend)
    if opts.backend == "asp" and opts.solver is None:
        raise DriverError("the asp backend needs a solver configuration")
    check_bounds(opts.max_states, opts.max_depth, opts.time_limit)
    if opts.backend == "native" and not opts.symmetry_breaking:
        raise DriverError("turning symmetry breaking off is an option of the asp backend only")

    events: List[PhaseEvent] = []
    plans = ClausePlans(problem)
    outcome = _Schedule(problem, opts, plans, events).run()
    errors = _certificate_errors(problem, outcome, plans)
    if errors:
        raise CertificateError(
            "the %s backend's answer fails certification: %s"
            % (opts.backend, "; ".join(errors))
        )
    return outcome, tuple(events)


Found = Optional[Tuple[TreeAutomaton, PredicateTables]]


class _Answered(Exception):
    """The answer, Unsat or Unknown, with which a depth ends the run."""


class _Schedule:
    """One solve's two phases; appends their events to events.  The depths
    run up to the state cap or max_depth, whichever is lower, or up to the
    first whose ground model passes the atom cap; a depth is charged the
    terms its universe gains and the atoms of its ground model.  A depth
    that ends the run, with a derivation or at the time limit, raises its
    answer as _Answered, through the walk when it runs in between."""

    def __init__(self, problem: Problem, opts: SolveOptions, plans: ClausePlans, events: List[PhaseEvent]):
        self.problem, self.opts, self.plans, self.events = problem, opts, plans, events
        self.ground = GroundPlan(problem)
        self.deadline = None
        if opts.time_limit is not None:
            self.deadline = time.monotonic() + opts.time_limit
        self.timeout = Unknown("timeout", _limit_text(opts))
        cap = opts.max_states
        self.last = cap if opts.max_depth is None else min(cap, opts.max_depth)
        self.depth = 0
        self.charged = 0  # terms and atoms, summed over the depths run
        self.walked = 0  # facts the walk was charged at the last call of between
        self.seconds = 0.0  # spent in the depths run

    def run(self) -> SolveOutcome:
        """The one loop over model phases, one phase per cap: before each
        the depths due run, natively those charged no more than 0 facts,
        on the asp backend one; then the depths left run."""
        cap = self.opts.max_states
        if self.opts.backend == "native":
            caps, due = (cap,), lambda: self.between(0)
            model = lambda n: search_model(self.problem, n, self.plans, self.deadline, self.between)
        else:
            caps, due = range(1, cap + 1), self.step
            model = lambda n: _asp_model(self.problem, n, self.opts, self.deadline)
        try:
            for n in caps:
                due()
                start = time.monotonic() - self.seconds
                found, verdict = None, "timeout"
                try:
                    found = model(n)
                    verdict = "none" if found is None else "found"
                except SearchTimeout:
                    pass
                dt = time.monotonic() - self.seconds - start
                self.events.append(PhaseEvent("model", n, dt, verdict, self.walked))
                if verdict != "none":
                    return self.timeout if found is None else Sat(*found)
            self.between(math.inf)
        except _Answered as answered:
            return answered.args[0]
        return Unknown("budget", "state bound %d exhausted" % cap)

    def between(self, facts: int) -> None:
        """The walk has been charged facts: runs every depth that has been
        charged no more, ties included."""
        self.walked = facts
        while self.depth < self.last and self.charged <= facts:
            self.step()

    def step(self) -> None:
        """Runs and logs the next depth, if one is left; raises _Answered
        when it, or the time limit before it, ends the run."""
        if self.depth >= self.last:
            return
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _Answered(self.timeout)
        self.depth += 1
        terms = len(self.ground.terms.term)
        t0 = time.monotonic()
        answer = None
        try:
            derivation = find_counterexample(self.problem, self.depth, self.deadline, self.ground)
        except BudgetExceeded:
            self.last = self.depth  # a deeper ground model is larger still
            verdict = "budget"
        except SearchTimeout:
            answer, verdict = self.timeout, "timeout"
        else:
            verdict = "none"
            if derivation is not None:
                answer, verdict = Unsat(derivation), "found"
        dt = time.monotonic() - t0
        work = self.ground.atoms + len(self.ground.terms.term) - terms
        self.seconds += dt
        self.charged += work
        self.events.append(PhaseEvent("counterexample", self.depth, dt, verdict, work))
        if answer is not None:
            raise _Answered(answer)


def _certificate_errors(
    problem: Problem, outcome: SolveOutcome, plans: ClausePlans
) -> List[str]:
    """Everything wrong with an answer's certificate; empty when it holds.
    The one place where answers are checked, whichever backend gave them."""
    if isinstance(outcome, Unsat):
        return check_derivation(problem, outcome.derivation)
    if not isinstance(outcome, Sat):
        return []
    a, tables = outcome.automaton, outcome.tables
    errors = check_automaton(a, problem) + check_tables(tables, a, problem)
    if errors:
        return errors
    violation = check_model(a, tables, problem, plans)
    if violation is not None:
        return [
            "the tables violate clause %d (%s)" % (violation.clause_index, violation.kind)
        ]
    return []


def _limit_text(opts: SolveOptions) -> str:
    if opts.time_limit is not None:
        return "time limit of %g seconds reached" % opts.time_limit
    return "time limit reached"


def _asp_model(
    problem: Problem,
    n: int,
    opts: SolveOptions,
    deadline: Optional[float],
) -> Found:
    from . import asp

    prog = asp.emit_model_search(problem, n, opts.symmetry_breaking)
    solver = opts.solver
    if deadline is not None:
        remaining = max(deadline - time.monotonic(), 0.01)
        if solver.time_limit is None or solver.time_limit > remaining:
            solver = asp.SolverConfig(
                solver.path,
                time_limit=remaining,
                extra_args=solver.extra_args,
                sat_codes=solver.sat_codes,
                unsat_codes=solver.unsat_codes,
            )
    run = asp.run_external(prog, solver)
    if run.outcome == "timeout":
        raise SearchTimeout()
    if run.outcome == "unsat":
        return None
    if run.outcome != "sat":
        raise SolverError(
            "solver failed on the model program (exit %s): %s"
            % (run.exit_status, (run.errors or run.output).strip()[:500])
        )
    return asp.decode_model(asp.parse_answer_set(run.output), problem, n)


def count_models(
    problem: Problem, n: int, solver: asp.SolverConfig, symmetry_breaking: bool
) -> Tuple[int, bool]:
    """Answer-set count for the model program at bound n, as (count, exact).
    The solver must be asked to enumerate; pass its enumerate-all flag in
    extra_args (clingo: "0", ideally with "-q")."""
    from . import asp

    run = asp.run_external(asp.emit_model_search(problem, n, symmetry_breaking), solver)
    if run.outcome == "timeout":
        raise SearchTimeout()
    counted = asp.parse_model_count(run.output)
    if counted is None:
        raise SolverError(
            "no model count in solver output (exit %s)" % run.exit_status
        )
    return counted


def trace_lines(log: RunLog) -> List[str]:
    """The console trace, one line per phase event."""
    lines = []
    for e in log:
        plural = "state" if e.bound == 1 else "states"
        lines.append("Searching for a %s with %d %s" % (e.phase, e.bound, plural))
    return lines


def _two_column_model(a: TreeAutomaton, tables: PredicateTables) -> List[str]:
    """Transitions on the left, predicate rows flowed into columns on the
    right, mirroring the solver console layout."""
    trans = []
    for (ctor, args), target in a.delta.items():
        name = ctor[0].upper() + ctor[1:] if ctor else ctor
        if args:
            trans.append("%s(%s) -> %d" % (name, ",".join(map(str, args)), target))
        else:
            trans.append("%s -> %d" % (name, target))
    rows = []
    for pred in tables:
        for row in sorted(tables[pred]):
            rows.append("%s(%s)" % (pred, ",".join(map(str, row))))
    height = max(len(trans), 1)
    columns = [rows[i : i + height] for i in range(0, len(rows), height)]
    head_left = "ADT Transitions:"
    widths = [max(len(head_left), max((len(t) for t in trans), default=0))]
    for col in columns:
        widths.append(max(len(c) for c in col))
    lines = []
    header = [head_left] + (["Predicates:"] if rows else [])
    for i in range(-1, height):
        if i < 0:
            cells = header
        else:
            cells = [trans[i] if i < len(trans) else ""]
            for col in columns:
                cells.append(col[i] if i < len(col) else "")
        line = ""
        for cell, width in zip(cells, widths):
            line += cell.ljust(width + 8)
        lines.append(line.rstrip())
    return lines


def _render_steps(d: Derivation, lines: List[str]) -> None:
    """The steps that prove the goal, as trees: one line per step, depth
    first, indented two spaces per level below the goal, on an explicit
    stack, as a derivation can be deeper than Python's recursion limit.  A
    step met again gets one line that says so, and its premises are not
    printed again."""
    printed = set()
    stack = [(m, 1) for m in reversed(d.premises)]
    while stack:
        n, depth = stack.pop()
        step = d.steps[n]
        note = ", as above" if n in printed else ""
        lines.append("%s%s   [clause %d%s]" % ("  " * depth, format_atom(step.atom), step.clause_index, note))
        if not note:
            printed.add(n)
            stack.extend((m, depth + 1) for m in reversed(step.premises))


def states_per_sort(a: TreeAutomaton) -> Dict[str, int]:
    return {sort: hi - lo + 1 for sort, lo, hi in a.state_ranges}


def render_outcome(outcome: SolveOutcome, log: RunLog = ()) -> str:
    lines = trace_lines(log)
    if isinstance(outcome, Sat):
        lines.extend(_two_column_model(outcome.automaton, outcome.tables))
        lines.append("")
        counts = states_per_sort(outcome.automaton)
        total = sum(counts.values())
        per_sort = ", ".join("%s: %d" % item for item in counts.items())
        lines.append(
            "Success! Clauses are satisfiable by a Herbrand model recognized "
            "by a tree automaton with %d state%s (%s)" % (total, "" if total == 1 else "s", per_sort)
        )
    elif isinstance(outcome, Unsat):
        d = outcome.derivation
        subst = ", ".join("%s = %s" % (v, format_term(t)) for v, t in d.substitution)
        lines.append("")
        lines.append(
            "Counterexample! Goal clause %d is violated%s"
            % (d.goal_index, " with " + subst if subst else "")
        )
        _render_steps(d, lines)
        lines.append("Clauses are unsatisfiable.")
    else:
        lines.append("")
        lines.append("Gave up: %s" % (outcome.detail or outcome.reason))
    return "\n".join(lines)


def outcome_to_json(outcome: SolveOutcome, log: RunLog = ()) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "log": [dict(vars(e), seconds=round(e.seconds, 6)) for e in log]
    }
    if isinstance(outcome, Sat):
        a = outcome.automaton
        doc["verdict"] = "sat"
        doc["states"] = states_per_sort(a)
        doc["state_ranges"] = [
            {"sort": s, "lo": lo, "hi": hi} for s, lo, hi in a.state_ranges
        ]
        doc["transitions"] = [
            {"ctor": ctor, "args": list(args), "target": q}
            for (ctor, args), q in a.delta.items()
        ]
        doc["tables"] = {
            pred: sorted(list(row) for row in rows)
            for pred, rows in outcome.tables.items()
        }
    elif isinstance(outcome, Unsat):
        d = outcome.derivation
        doc["verdict"] = "unsat"
        doc["goal_clause"] = d.goal_index
        doc["substitution"] = {v: format_term(t) for v, t in d.substitution}
        doc["premises"] = list(d.premises)
        doc["steps"] = [
            {
                "atom": format_atom(step.atom),
                "clause": step.clause_index,
                "substitution": {v: format_term(t) for v, t in step.substitution},
                "premises": list(step.premises),
            }
            for step in d.steps
        ]
    else:
        doc["verdict"] = "unknown"
        doc["reason"] = outcome.reason
        doc["detail"] = outcome.detail
    return doc
