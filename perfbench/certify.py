"""Independent checks of every answer the benchmark receives.

A Sat answer must pass check_automaton, check_tables and check_model, and
every atom of the depth-3 ground least model must hold under it.  An Unsat
answer's derivation must replay with no defects.  Every verdict is compared
with the instance's expected one.  The checks run outside the timed region.
"""

import contextlib
from typing import Callable, ContextManager, List

ORACLE_DEPTH = 3


def verdict_of(outcome) -> str:
    from regmod.driver import Sat, Unsat

    if isinstance(outcome, Sat):
        return "sat"
    if isinstance(outcome, Unsat):
        return "unsat"
    return "unknown"


def no_span(name: str) -> ContextManager:
    return contextlib.nullcontext()


def faults(inst, problem, outcome, doc, span: Callable[[str], ContextManager] = no_span) -> List[str]:
    """Everything wrong with one answer; empty when it is certified and
    expected.  span(name) brackets each check.  Every span is entered for
    every answer, so a workload without, say, Unsat answers reports the
    bare cost of the replay step rather than a constant zero."""
    from regmod.automaton import check_automaton, check_tables
    from regmod.core import check_derivation, ground_least_model
    from regmod.interpretation import check_model, interpret_atom

    verdict = verdict_of(outcome)
    found: List[str] = []
    if verdict not in inst.expected:
        found.append("verdict %s, expected one of %s" % (verdict, sorted(inst.expected)))
    if doc.get("verdict") != verdict:
        found.append("JSON says %r for a %s answer" % (doc.get("verdict"), verdict))
    if verdict == "unknown" and inst.unknown_detail and outcome.detail != inst.unknown_detail:
        found.append("Unknown %r, expected %r" % (outcome.detail, inst.unknown_detail))
    sat = verdict == "sat"
    with span("automaton.check"):
        if sat:
            found += check_automaton(outcome.automaton, problem)
            found += check_tables(outcome.tables, outcome.automaton, problem)
    with span("interpretation.check_model"):
        violation = check_model(outcome.automaton, outcome.tables, problem) if sat else None
    if violation is not None:
        found.append("model check: %s" % (violation,))
    with span("core.oracle"):
        missing = 0
        if sat:
            atoms, _ = ground_least_model(problem, ORACLE_DEPTH)
            missing = sum(
                1 for atom in atoms if not interpret_atom(outcome.automaton, outcome.tables, atom)
            )
    if missing:
        found.append("%d atoms of the depth-%d ground model fail" % (missing, ORACLE_DEPTH))
    with span("core.replay"):
        if verdict == "unsat":
            found += check_derivation(problem, outcome.derivation)
    if verdict == "unsat" and inst.goal_index is not None:
        if outcome.derivation.goal_index != inst.goal_index:
            found.append(
                "derivation names goal %d, expected %d"
                % (outcome.derivation.goal_index, inst.goal_index)
            )
    return found
