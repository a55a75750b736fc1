"""What the benchmark in perfbench/ needs from regmod.

perfbench times regmod from outside src/: it wraps entry points by module
attribute (perfbench/spans.py WRAPPED) and runs whole workloads.  These
tests read perfbench/ and change nothing there; they fail when a change to
src/ would leave the benchmark measuring nothing or failing.
"""

import importlib

import pytest

from conftest import PERFBENCH
from regmod import native
from regmod.benchmarks import gen_member_rev
from regmod.core import Atom
from regmod.frontend import parse_problem


def test_every_wrapped_entry_point_resolves(perfbench):
    spans = perfbench("spans")
    for module, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_counterexample_phase_calls_through_native(monkeypatch):
    # The tracer wraps regmod.native.ground_least_model and goal_violated, so
    # find_counterexample must look both up there, and the ground model must
    # come back as a pair whose first is the atoms, with len(atoms) its atom
    # count; the second is the model's derivation, read by atom number.  The
    # goal check gets the model itself, not a copy, so that it can stay on
    # term ids.
    calls = []

    def recording(name):
        original = getattr(native, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        return wrapper

    monkeypatch.setattr(native, "ground_least_model", recording("ground_least_model"))
    monkeypatch.setattr(native, "goal_violated", recording("goal_violated"))
    problem = parse_problem((PERFBENCH.parent / "problems" / "even_ssz_unsat.smt2").read_text())
    assert native.find_counterexample(problem, 3) is not None
    assert [name for name, _, _ in calls] == ["ground_least_model", "goal_violated"]
    atoms, derivation = calls[0][2]
    assert atoms and all(isinstance(atom, Atom) for atom in atoms)
    assert len(atoms) == len(set(atoms))
    assert derivation == atoms.derivation
    assert calls[1][1][0] is atoms


def test_ground_atom_counts_of_mr3_unsat_are_pinned(perfbench):
    # perfbench's core.ground_atoms is len() of the ground model, summed
    # over the depths of mr3-unsat: how the atoms are kept must not move it.
    workloads = perfbench("workloads")
    problem = workloads.mr3_unsat_problem(workloads.draw_list(1))
    counts = [len(native.ground_least_model(problem, depth)[0]) for depth in range(1, 6)]
    assert counts == [23, 86, 302, 1031, 3461]


@pytest.mark.parametrize("name", ["fixtures", "mr3-unsat"])
def test_a_traced_workload_run_has_no_failures(perfbench, name):
    run = perfbench("run")
    _, _, passes, tracer = run.run_workload(name, 11, 0.0, trace=True)
    assert [p.traced for p in passes] == [False, True]
    assert sum(p.failed for p in passes) == 0, [f for p in passes for f in p.faults]
    layers = run.per_layer(passes, tracer)
    assert layers["core.ground_atoms"] > 0
    # The counterexample phase's spans nest inside it.
    names = {record[0]: i for i, record in enumerate(tracer.spans)}
    inside = {
        tracer.spans[record[3]][0]
        for record in tracer.spans
        if record[0] in ("core.ground_model", "core.goal_check")
    }
    assert {"core.ground_model", "core.goal_check"} <= set(names)
    assert inside == {"native.counterexample"}


@pytest.mark.parametrize(
    "bound, checks, pruned, nodes, found",
    [(5, 53, 33, 21, False), (6, 79, 55, 25, False), (7, 167, 131, 37, False), (8, 162, 124, 38, True)],
)
def test_goal_checks_of_member_rev_3_are_pinned(monkeypatch, bound, checks, pruned, nodes, found):
    # perfbench's interpretation.goal_checks and prune_ratio count the calls
    # of regmod.native.violated_goal and the ones that found a goal, once per
    # node of the search; where the goal work is done must not move them.
    results = []
    searches = []

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    class Recorded(native._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    original = native.violated_goal
    monkeypatch.setattr(native, "violated_goal", counting)
    monkeypatch.setattr(native, "_Search", Recorded)
    model = native.search_model(gen_member_rev(3), bound)
    assert (model is not None) == found
    assert len(results) == checks
    assert sum(hit is not None for hit in results) == pruned
    assert [search.nodes for search in searches] == [nodes]
