import importlib
import stat
import sys
from pathlib import Path

import pytest

from regmod import plancode
from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
)

Z = App("z")


def s(t):
    return App("s", (t,))


def nat(n):
    t = Z
    for _ in range(n):
        t = s(t)
    return t


X = Var("x", "nat")
Y = Var("y", "nat")
W = Var("r", "nat")


def make_nat_problem(goals=()):
    """even/odd/plus over nat, plus the supplied goal clauses."""
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (
        PredicateDecl("even", ("nat",)),
        PredicateDecl("odd", ("nat",)),
        PredicateDecl("plus", ("nat", "nat", "nat")),
    )
    clauses = (
        Clause(Atom("even", (Z,)), ()),
        Clause(Atom("even", (s(X),)), (Atom("odd", (X,)),)),
        Clause(Atom("odd", (s(X),)), (Atom("even", (X,)),)),
        Clause(Atom("plus", (Z, Y, Y)), ()),
        Clause(
            Atom("plus", (s(X), Y, s(W))),
            (Atom("plus", (X, Y, W)),),
        ),
    ) + tuple(goals)
    return Problem(sorts, preds, clauses)


@pytest.fixture
def nat_problem():
    """even/odd/plus with the goal even(x), even(y), plus(x,y,z), odd(z) => false."""
    goal = Clause(
        None,
        (
            Atom("even", (X,)),
            Atom("even", (Y,)),
            Atom("plus", (X, Y, W)),
            Atom("odd", (W,)),
        ),
    )
    return make_nat_problem((goal,))


@pytest.fixture
def unsat_toy():
    """even(z); even(s(s(X))) :- even(X); goal even(s(s(z))) => false."""
    sorts = (SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",)))),)
    preds = (PredicateDecl("even", ("nat",)),)
    clauses = (
        Clause(Atom("even", (Z,)), ()),
        Clause(Atom("even", (s(s(X)),)), (Atom("even", (X,)),)),
        Clause(None, (Atom("even", (s(s(Z)),)),)),
    )
    return Problem(sorts, preds, clauses)


@pytest.fixture
def problems_dir():
    import pathlib

    return pathlib.Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def chained(monkeypatch):
    """Generated code nests one loop per function, so that every further
    loop runs in a function of its own, called with yield from."""
    monkeypatch.setattr(plancode, "LOOPS", 1)
    plancode.compiled.cache_clear()
    plancode.ground_join.cache_clear()
    yield
    plancode.compiled.cache_clear()
    plancode.ground_join.cache_clear()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PERFBENCH_MODULES = ("run", "spans", "speed", "workloads", "certify")


def _regmod_modules():
    return {k: v for k, v in sys.modules.items() if k == "regmod" or k.startswith("regmod.")}


@pytest.fixture
def perfbench():
    """Imports a module of perfbench/ by name: perfbench("workloads").
    Nothing is written under perfbench/.  run.run_workload re-imports
    regmod; the modules every other test imported are put back after."""
    saved_modules, saved_path = _regmod_modules(), list(sys.path)
    saved_flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module
    finally:
        for name in list(_regmod_modules()) + list(PERFBENCH_MODULES):
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def write_fake_solver(tmp_path, name, script):
    """A stand-in solver executable; script is sh after the shebang."""
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


# Answers the even/odd/plus programs the way a real solver would: unsat for every
# counterexample program and the one-state model program, the known
# two-state model for maxState=2.
EVEN_ODD_PLUS_MODEL_LINE = (
    "rule(z,2) rule(s(1),2) rule(s(2),1) even(2) odd(1) "
    "plus(2,1,1) plus(1,2,1) plus(1,1,2) plus(2,2,2)"
)

EVEN_ODD_PLUS_SCRIPT = """\
in=$(cat -)
case "$in" in
  *"dom("*) echo "UNSATISFIABLE"; exit 20;;
esac
if echo "$in" | grep -q "maxState=2"; then
  echo "Answer: 1"
  echo "%s"
  exit 30
fi
echo "UNSATISFIABLE"
exit 20
""" % EVEN_ODD_PLUS_MODEL_LINE


# test_acceptance.py appends one line per criterion; shown after the run so
# the verdicts survive output capture.
acceptance_report = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)
