"""Satisfiability of constrained Horn clauses over algebraic data types.

Sat answers come with a finite tree automaton recognizing a regular model
of the clauses; Unsat answers come with a ground derivation of a goal
violation that replays independently.
"""

from __future__ import annotations

from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    Derivation,
    Eq,
    Diseq,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
    check_derivation,
    ground_least_model,
    validate,
)
from regmod.frontend import ParseError, parse_problem, print_problem
from regmod.automaton import TreeAutomaton, check_automaton, run_term
from regmod.interpretation import check_model, interpret_atom, least_tables
from regmod.driver import (
    Sat,
    SolveOptions,
    Unknown,
    Unsat,
    render_outcome,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "Atom",
    "Clause",
    "Constructor",
    "Derivation",
    "Diseq",
    "Eq",
    "ParseError",
    "PredicateDecl",
    "Problem",
    "Sat",
    "SolveOptions",
    "SortDecl",
    "TreeAutomaton",
    "Unknown",
    "Unsat",
    "Var",
    "check_automaton",
    "check_derivation",
    "check_model",
    "ground_least_model",
    "interpret_atom",
    "least_tables",
    "parse_problem",
    "print_problem",
    "render_outcome",
    "run_term",
    "solve",
    "validate",
]
