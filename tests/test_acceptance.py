"""End-to-end acceptance gates.  Each test covers one shipping criterion
and records a single PASS/FAIL/SKIP line, printed after the run (see
pytest_terminal_summary in conftest)."""

import itertools
import json
import os
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import conftest
from test_asp import GOLDEN, REFERENCE_CLAUSE_SECTION, alpha_normal, clause_section
from test_driver import assert_even_odd_plus_model, shape

from regmod.asp import SolverConfig, emit_model_search
from regmod.automaton import (
    TreeAutomaton,
    check_automaton,
    diff_approx,
    inhabitation,
    run_term,
    state_ranges_for,
    transition_grid,
)
from regmod.benchmarks import gen_member_rev
from regmod.core import (
    Atom,
    Diseq,
    Eq,
    apply_subst,
    check_derivation,
    clause_vars,
    ground_least_model,
    ground_terms,
    subst_atom,
)
from regmod.driver import (
    Sat,
    SolveOptions,
    Unsat,
    count_models,
    outcome_to_json,
    solve,
    states_per_sort,
)
from regmod.frontend import parse_problem
from regmod.interpretation import check_model, interpret_atom
from regmod.native import enumerate_automata
from tests.brute_force import all_automata, orbit_key, reachable

PROBLEMS = Path(__file__).parent.parent / "problems"
GOLDEN_DIR = Path(__file__).parent / "golden"
SOLVER = shutil.which(os.environ.get("REGMOD_SOLVER", "clingo"))


def load(name):
    return parse_problem((PROBLEMS / name).read_text())


def fixture_suite():
    """Every committed problem plus the generated k=1 instance."""
    suite = [(f.name, load(f.name)) for f in sorted(PROBLEMS.glob("*.smt2"))]
    suite.append(("member-rev(1)", gen_member_rev(1)))
    return suite


@contextmanager
def criterion(name):
    info = {"detail": ""}
    try:
        yield info
    except pytest.skip.Exception as e:
        conftest.acceptance_report.append("SKIP  %s: %s" % (name, e))
        raise
    except BaseException:
        conftest.acceptance_report.append(
            "FAIL  %s%s" % (name, ": " + info["detail"] if info["detail"] else "")
        )
        raise
    conftest.acceptance_report.append("PASS  %s: %s" % (name, info["detail"]))


def test_even_odd_plus_sat_two_states():
    with criterion("even/odd/plus solved with a 2-state automaton") as info:
        problem = load("even_odd_plus.smt2")
        t0 = time.monotonic()
        outcome, log = solve(problem, SolveOptions(backend="native"))
        dt = time.monotonic() - t0
        assert dt < 5.0
        # The failed depths must be on the log before the walk's hit.
        assert shape(log) == [
            ("counterexample", 1, "none"),
            ("counterexample", 2, "none"),
            ("model", 8, "found"),
        ]
        assert_even_odd_plus_model(outcome)
        info["detail"] = "Sat, 2 states, failed depths logged (%.2fs)" % dt


def test_member_rev_2_within_budget():
    with criterion("member/rev(2) solved by the native backend") as info:
        problem = gen_member_rev(2)
        t0 = time.monotonic()
        outcome, _ = solve(problem, SolveOptions(backend="native"))
        dt = time.monotonic() - t0
        assert isinstance(outcome, Sat)
        assert dt < 60.0
        info["detail"] = "Sat, states %s (%.2fs)" % (states_per_sort(outcome.automaton), dt)


def test_member_rev_3_within_budget():
    with criterion("member/rev(3) solved by the native backend") as info:
        problem = gen_member_rev(3)
        t0 = time.monotonic()
        outcome, _ = solve(problem, SolveOptions(backend="native"))
        dt = time.monotonic() - t0
        # solve certifies the answer; check_model here is a second look.
        assert isinstance(outcome, Sat)
        assert check_model(outcome.automaton, outcome.tables, problem) is None
        assert dt < 60.0
        info["detail"] = "Sat, states %s (%.2fs)" % (states_per_sort(outcome.automaton), dt)


def test_member_rev_4_at_16_states():
    with criterion("member/rev(4) solved at 16 states by the native backend") as info:
        # member-rev(4) needs 16 list states, past the default cap of 8.
        # The whole answer but its log is pinned.
        t0 = time.monotonic()
        outcome, log = solve(gen_member_rev(4), SolveOptions(backend="native", max_states=16))
        dt = time.monotonic() - t0
        assert isinstance(outcome, Sat)
        assert dt < 20.0
        doc = outcome_to_json(outcome, log)
        del doc["log"]
        assert doc == json.loads((GOLDEN_DIR / "member_rev_4_at_16.json").read_text())
        info["detail"] = "Sat, states %s (%.2fs)" % (states_per_sort(outcome.automaton), dt)


@pytest.mark.skipif(
    not os.environ.get("REGMOD_STRETCH"), reason="stretch target, set REGMOD_STRETCH=1"
)
def test_member_rev_5_stretch():
    # Not a gate: member-rev(5) needs 32 list states and is run only when
    # explicitly requested.
    t0 = time.monotonic()
    outcome, _ = solve(gen_member_rev(5), SolveOptions(backend="native", max_states=32))
    dt = time.monotonic() - t0
    assert isinstance(outcome, Sat)
    assert dt < 600.0


def test_symmetry_breaking_count_collapse():
    with criterion("ordering constraints collapse the model count") as info:
        if SOLVER is None:
            pytest.skip("no external ASP solver on PATH")
        problem = gen_member_rev(2)
        outcome, _ = solve(problem, SolveOptions(backend="native"))
        assert isinstance(outcome, Sat)
        bound = max(states_per_sort(outcome.automaton).values())
        cfg = SolverConfig(SOLVER, extra_args=("0", "-q", "--time-limit=300"))
        with_sb, with_exact = count_models(problem, bound, cfg, True)
        without_sb, without_exact = count_models(problem, bound, cfg, False)
        assert with_exact
        assert with_sb >= 1
        # An interrupted enumeration reports a lower bound, which is enough.
        assert without_sb >= 1000 * with_sb
        info["detail"] = "%d vs %d%s at bound %d (%.0fx)" % (
            with_sb,
            without_sb,
            "" if without_exact else "+",
            bound,
            without_sb / with_sb,
        )


def test_unsat_toy_replays():
    with criterion("unsat toy refuted with a replayable derivation") as info:
        problem = load("even_ssz_unsat.smt2")
        t0 = time.monotonic()
        outcome, _ = solve(problem, SolveOptions(backend="native"))
        dt = time.monotonic() - t0
        assert dt < 1.0
        assert isinstance(outcome, Unsat)
        assert check_derivation(problem, outcome.derivation) == []
        info["detail"] = "Unsat, derivation replays (%.2fs)" % dt


def _ground_assignments(problem, variables, depth):
    pools = [ground_terms(problem, v.sort, depth) for v in variables]
    for combo in itertools.product(*pools):
        yield {v.name: t for v, t in zip(variables, combo)}


def _body_holds(problem, a, tables, clause, subst):
    for lit in clause.body:
        if isinstance(lit, Atom):
            if not interpret_atom(a, tables, subst_atom(lit, subst)):
                return False
        elif isinstance(lit, Eq):
            if apply_subst(lit.lhs, subst) != apply_subst(lit.rhs, subst):
                return False
        elif isinstance(lit, Diseq):
            if apply_subst(lit.lhs, subst) == apply_subst(lit.rhs, subst):
                return False
    return True


def test_soundness_suite():
    with criterion("every Sat outcome re-verifies as a model") as info:
        sat_count = 0
        checked_atoms = 0
        checked_goals = 0
        for name, problem in fixture_suite():
            outcome, _ = solve(problem, SolveOptions(backend="native"))
            if not isinstance(outcome, Sat):
                continue
            sat_count += 1
            a, tables = outcome.automaton, outcome.tables
            assert check_model(a, tables, problem) is None, name
            atoms, _ = ground_least_model(problem, 4)
            for atom in atoms:
                assert interpret_atom(a, tables, atom), (name, atom)
            checked_atoms += len(atoms)
            for idx, goal in problem.goal_clauses():
                for subst in _ground_assignments(problem, clause_vars(goal), 4):
                    assert not _body_holds(problem, a, tables, goal, subst), (
                        name,
                        idx,
                        subst,
                    )
                    checked_goals += 1
        assert sat_count >= 3
        info["detail"] = (
            "%d Sat fixtures, %d least-model atoms hold, %d ground goal"
            " instantiations stay refuted" % (sat_count, checked_atoms, checked_goals)
        )


def test_canonical_enumeration_matches_orbit_oracle():
    with criterion("canonical enumeration is one automaton per orbit") as info:
        problem = load("even_odd_plus.smt2")
        expected = {1: 1, 2: 3, 3: 6}
        t0 = time.monotonic()
        for n in (1, 2, 3):
            # Brute force: every complete automaton with at most n states,
            # kept when all its states are reachable, grouped by isomorphism.
            orbits = {}
            for a in all_automata(problem, n):
                if reachable(a):
                    orbits.setdefault(orbit_key(a), []).append(a)
            walked = list(enumerate_automata(problem, n))
            keys = [orbit_key(a) for a in walked]
            # Each class exactly once, by a reachable, well-formed automaton.
            assert len(keys) == len(set(keys)) == len(orbits) == expected[n]
            assert set(keys) == set(orbits)
            for a in walked:
                assert check_automaton(a, problem) == [] and reachable(a)
        dt = time.monotonic() - t0
        assert dt < 10.0
        info["detail"] = "1/3/6 reachable classes over at most 1..3 states (%.2fs)" % dt


def test_backend_parity():
    with criterion("native and external-solver verdicts agree") as info:
        if SOLVER is None:
            pytest.skip("no external ASP solver on PATH")
        cfg = SolverConfig(SOLVER, time_limit=60.0)
        agreed = 0
        for name, problem in fixture_suite():
            native_out, native_log = solve(problem, SolveOptions(backend="native"))
            asp_out, asp_log = solve(
                problem, SolveOptions(backend="asp", solver=cfg)
            )
            assert type(native_out) is type(asp_out), name
            if isinstance(native_out, Sat):
                # The native walk takes at most n states per sort, the asp
                # program exactly n, so it may answer at an earlier bound.
                asp_bound = max(e.bound for e in asp_log if e.phase == "model")
                assert max(states_per_sort(native_out.automaton).values()) <= asp_bound, name
            elif isinstance(native_out, Unsat):
                # Both run the same native depths in the same order.
                assert native_out.derivation == asp_out.derivation, name
            else:
                assert native_out == asp_out, name
            agreed += 1
        info["detail"] = "verdicts agree on %d fixtures" % agreed


def _random_automaton(problem, n, rng):
    ranges = state_ranges_for(problem, n)
    by_sort = {sort: (lo, hi) for sort, lo, hi in ranges}
    delta = {}
    for slot in transition_grid(problem, ranges):
        ctor, _ = slot
        lo, hi = by_sort[problem.constructor(ctor)[1]]
        delta[slot] = rng.randint(lo, hi)
    return TreeAutomaton(ranges, delta)


def test_diff_approx_soundness():
    with criterion("state disequality over-approximation is sound") as info:
        nat_problem = load("even_odd_plus.smt2")
        list_problem = gen_member_rev(2)
        anchor = TreeAutomaton(
            state_ranges_for(nat_problem, 2),
            {("z", ()): 1, ("s", (1,)): 2, ("s", (2,)): 1},
        )
        rng = random.Random(8)
        subjects = [(nat_problem, anchor)]
        for problem in (nat_problem, list_problem):
            for _ in range(3):
                subjects.append(
                    (problem, _random_automaton(problem, rng.randint(1, 3), rng))
                )
        pairs = 0
        for problem, a in subjects:
            assert check_automaton(a, problem) == []
            inh = inhabitation(a)
            for sort, _, _ in a.state_ranges:
                terms = ground_terms(problem, sort, 4)
                for t1, t2 in itertools.combinations(terms, 2):
                    assert diff_approx(run_term(a, t1), run_term(a, t2), inh)
                    pairs += 1
        info["detail"] = "%d distinct ground pairs across %d automata, 0 misses" % (
            pairs,
            len(subjects),
        )


def test_emission_golden():
    with criterion("solver program emission is pinned") as info:
        problem = load("even_odd_plus.smt2")
        text = emit_model_search(problem, 2)
        assert text == GOLDEN.read_text()
        emitted = [alpha_normal(l) for l in clause_section(text)]
        reference = [alpha_normal(l) for l in REFERENCE_CLAUSE_SECTION]
        assert emitted == reference
        info["detail"] = "byte-identical golden file, clause rules match the reference listing"
