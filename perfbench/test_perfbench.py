"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import signal
import time

import pytest

import run
import spans
import speed
import workloads


@pytest.fixture(scope="module", autouse=True)
def regmod():
    return run.import_regmod()


def test_workloads_are_deterministic_per_seed():
    for name, build in workloads.BY_NAME.items():
        for seed in (0, 7):
            assert build(run.ROOT, seed) == build(run.ROOT, seed), name
    lists = {tuple(workloads.draw_list(seed)) for seed in range(20)}
    assert len(lists) > 1
    assert all(len(l) == workloads.UNSAT_LIST_LENGTH for l in lists)


def test_generated_text_parses_back_to_the_problem():
    from regmod.frontend import parse_problem

    elements = workloads.draw_list(3)
    text = workloads.mr3_unsat(run.ROOT, 3).instances[0].text
    assert parse_problem(text) == workloads.mr3_unsat_problem(elements)


def test_mr3_unsat_derivation_names_the_added_goal():
    from regmod.core import check_derivation
    from regmod.driver import SolveOptions, Unsat, solve
    from regmod.frontend import parse_problem

    inst = workloads.mr3_unsat(run.ROOT, 5).instances[0]
    problem = parse_problem(inst.text)
    outcome, log = solve(problem, SolveOptions(max_states=inst.max_states, max_depth=inst.max_depth))
    assert isinstance(outcome, Unsat)
    assert outcome.derivation.goal_index == inst.goal_index == len(problem.clauses) - 1
    assert check_derivation(problem, outcome.derivation) == []
    assert max(e.bound for e in log) == workloads.MR3_BOUND


def _current():
    import importlib

    return [getattr(importlib.import_module(m), a) for m, a, _, _ in spans.WRAPPED]


def test_wrappers_restore_the_original_functions():
    before = _current()
    tracer = spans.Tracer()
    with tracer.installed():
        during = _current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _current()))
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(before, _current()))


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 5.0, 0, None],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 6.0, 7.0, 0, 0],
    ]
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0]
    totals = spans.layer_totals(tracer.spans, tracer.self_times(), 0, 4)
    assert totals["b"] == 5.0 and totals["b#self"] == 4.0 and totals["b#n"] == 2
    assert totals["c#count"] == 1


def test_sampler_leaves_out_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0, n0 = time.perf_counter(), sampler.now()
        while time.perf_counter() < t0 + 3.5 * speed.INTERVAL:
            pass
        t1, n1 = time.perf_counter(), sampler.now()
        stolen = sampler.stolen
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 4  # entry, three ticks, exit
    assert 0 < (t1 - t0) - (n1 - n0) <= stolen


def test_scale_averages_the_samples_in_or_nearest_a_region():
    sampler = speed.Sampler()
    sampler.samples = [(float(t), float(t)) for t in range(20)]
    assert sampler.scale(2.5, 13.5) == 8.0  # the 11 samples inside
    assert speed.MIN_SAMPLES == 8
    assert sampler.scale(0.2, 0.4) == 3.5  # the 8 nearest: 0..7


@pytest.mark.parametrize("name", ["fixtures", "mr3-unsat"])
def test_counts_repeat_exactly_across_runs(name):
    counts = []
    for _ in range(2):
        _, _, passes, tracer = run.run_workload(name, 11, 0.0, trace=True)
        assert [p.traced for p in passes] == [False, True]
        assert sum(p.failed for p in passes) == 0
        layers = run.per_layer(passes, tracer)
        counts.append(
            {k: layers[k] for k in ("interpretation.goal_checks", "core.ground_atoms", "driver.bounds")}
        )
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BY_NAME)
