import json
import time
from pathlib import Path

import pytest

from conftest import EVEN_ODD_PLUS_SCRIPT, write_fake_solver
from regmod import driver
from regmod.cli import (
    EXIT_INPUT,
    EXIT_SAT,
    EXIT_SOFTWARE,
    EXIT_UNKNOWN,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)
from regmod.benchmarks import gen_member_rev
from regmod.core import check_derivation
from regmod.frontend import MAX_NESTING, parse_problem, print_problem

PROBLEMS = Path(__file__).parent.parent / "problems"
SAT_FILE = str(PROBLEMS / "even_odd_plus.smt2")
UNSAT_FILE = str(PROBLEMS / "even_ssz_unsat.smt2")


def test_solve_sat_exit_and_output(capsys):
    assert main(["solve", SAT_FILE]) == EXIT_SAT
    out = capsys.readouterr().out
    assert "Searching for a counterexample with 1 state" in out
    assert "Success!" in out and "2 states" in out
    assert "Z -> " in out


def test_solve_unsat_exit_and_output(capsys):
    assert main(["solve", UNSAT_FILE]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "Clauses are unsatisfiable." in out
    assert "[clause" in out


def test_solve_unknown_on_budget(capsys):
    assert main(["solve", SAT_FILE, "--max-states", "1"]) == EXIT_UNKNOWN
    assert "Gave up" in capsys.readouterr().out


def test_solve_json(capsys):
    assert main(["solve", SAT_FILE, "--json"]) == EXIT_SAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "sat"
    assert doc["states"] == {"nat": 2}
    assert [(e["phase"], e["bound"], e["verdict"]) for e in doc["log"]] == [
        ("counterexample", 1, "none"),
        ("counterexample", 2, "none"),
        ("model", 8, "found"),
    ]
    assert all(isinstance(e["work"], int) and e["work"] > 0 for e in doc["log"])


def pinned_answer(capsys, argv, name, code):
    """The --json answer to argv, minus the log's seconds, must equal
    tests/golden/<name>.json."""
    assert main(["solve"] + argv + ["--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    for event in doc["log"]:
        del event["seconds"]
    golden = Path(__file__).parent / "golden" / (name + ".json")
    assert doc == json.loads(golden.read_text())


@pytest.mark.parametrize("name", ["member_rev_2", "even_odd_plus"])
def test_solve_json_matches_pinned_answer(capsys, name):
    # The whole Sat answer is pinned, so a change to the model search that
    # finds another first automaton or other tables shows up here.
    pinned_answer(capsys, [str(PROBLEMS / (name + ".smt2"))], name, EXIT_SAT)


@pytest.mark.parametrize("name", ["diseq_pair_unsat", "even_ssz_unsat"])
def test_solve_json_matches_pinned_unsat_answer(capsys, name):
    # Pins the goal, the substitution and every proof the counterexample
    # phase names.
    pinned_answer(capsys, [str(PROBLEMS / (name + ".smt2"))], name, EXIT_UNSAT)


def test_member_rev_3_with_a_ground_goal_matches_pinned_unsat_answer(tmp_path, capsys, perfbench):
    # The mr3-unsat benchmark input at seed 1: member-rev(3) plus
    # rev(L, reverse L) => false for a five-element L.  The first
    # counterexample is at depth 5, through the ground model of every depth
    # up to it.
    workloads = perfbench("workloads")
    problem = workloads.mr3_unsat_problem(workloads.draw_list(1))
    f = tmp_path / "mr3_unsat.smt2"
    f.write_text(print_problem(problem))
    pinned_answer(capsys, [str(f), "--max-states", "5"], "mr3_unsat_seed1", EXIT_UNSAT)


def test_solve_json_unsat(capsys):
    assert main(["solve", UNSAT_FILE, "--json"]) == EXIT_UNSAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "unsat"
    assert doc["goal_clause"] == 2


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/x.smt2"]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_reports_position(tmp_path, capsys):
    f = tmp_path / "bad.smt2"
    f.write_text("(assert (=> (and) (foo))\n")
    assert main(["solve", str(f)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "bad.smt2:1:" in err


def test_parse_error_in_a_crlf_file_reports_line_and_column(tmp_path, capsys):
    f = tmp_path / "crlf.smt2"
    f.write_bytes(
        b"(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))\r\n"
        b"(declare-fun even (nat) Bool)\r\n"
        b"(assert (even (s y)))\r\n"
    )
    assert main(["solve", str(f)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s:3:18: unbound symbol y (variables must be bound by forall)\n" % f


def test_parse_error_after_a_lone_cr_reports_the_parsers_position(tmp_path, capsys):
    """A lone CR is one column, not a line end, as parse_problem counts it."""
    f = tmp_path / "cr.smt2"
    f.write_bytes("(declare-fun p (u) Bool)\r(assert (p é))\r".encode())
    assert main(["solve", str(f)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s:1:37: unexpected character 'é'\n" % f


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "latin1.smt2"
    f.write_bytes(b"(declare-fun p (u) Bool)\n(assert (p \xff))\n")
    assert main(["solve", str(f)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: not UTF-8 at byte 36 (invalid start byte)\n" % f


def test_invalid_problem_rejected(tmp_path, capsys):
    f = tmp_path / "empty_sort.smt2"
    f.write_text(
        "(declare-datatypes ((u 0)) (((f (f_0 u)))))\n(check-sat)\n"
    )
    assert main(["solve", str(f)]) == EXIT_INPUT
    assert "invalid problem" in capsys.readouterr().err


def test_validation_warnings_go_to_stderr(tmp_path, capsys):
    f = tmp_path / "no_goal.smt2"
    f.write_text(
        "(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))\n"
        "(declare-fun even (nat) Bool)\n"
        "(assert (even z))\n"
        "(check-sat)\n"
    )
    assert main(["solve", str(f)]) == EXIT_SAT
    captured = capsys.readouterr()
    assert "Success!" in captured.out
    assert captured.err == "warning: %s: no goal clauses: every problem without goals is trivially satisfiable\n" % f
    assert main(["solve", SAT_FILE]) == EXIT_SAT
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-depth", "-1"],
        ["--timeout", "-1"],
        ["--timeout", "nan"],
        ["--emit-asp", "{out}", "--max-depth", "-2"],
        ["--emit-asp", "{out}", "--timeout", "-1"],
        ["--count-models", "--backend", "asp", "--timeout", "-1"],
        ["--emit-asp", "{out}", "--max-states", "0"],
    ],
)
def test_out_of_range_bounds_are_usage_errors(tmp_path, capsys, flags):
    out_dir = tmp_path / "programs"
    argv = ["solve", SAT_FILE] + [flag.format(out=out_dir) for flag in flags]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dir.exists()
    assert captured.err.startswith("error: max_") or captured.err.startswith("error: time_limit")
    assert captured.err.count("\n") == 1


def deep_file(tmp_path, depth):
    """even/odd over nat with the goal even(s^depth(z)) => false, which is
    nested depth + 3 levels deep."""
    f = tmp_path / "deep.smt2"
    f.write_text(
        "(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))\n"
        "(declare-fun even (nat) Bool)\n"
        "(assert (even z))\n"
        "(assert (=> (even %sz%s) false))\n"
        "(check-sat)\n" % ("(s " * depth, ")" * depth)
    )
    return str(f)


def test_crash_exits_70_not_unsat(monkeypatch, capsys):
    # A crash must not exit 1, which would claim Unsat.
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(driver, "solve", crash)
    assert main(["solve", SAT_FILE]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1


def test_nesting_at_the_limit_solves_and_one_past_is_an_input_error(tmp_path, capsys):
    assert main(["solve", deep_file(tmp_path, MAX_NESTING - 3)]) == EXIT_SAT
    assert "Success!" in capsys.readouterr().out
    assert main(["solve", deep_file(tmp_path, MAX_NESTING - 2)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "deep.smt2:4:" in err and "nesting deeper than %d levels" % MAX_NESTING in err


def test_a_term_nested_3000_deep_is_an_input_error(tmp_path, capsys):
    assert main(["solve", deep_file(tmp_path, 3000)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def chain_file(tmp_path, k):
    """p0(z), p(i+1)(x) <= p(i)(x) for i < k, and p(k)(x) => false: Unsat
    through a derivation k + 1 atoms deep."""
    lines = ["(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))"]
    lines += ["(declare-fun p%d (nat) Bool)" % i for i in range(k + 1)]
    lines.append("(assert (p0 z))")
    lines += ["(assert (forall ((x nat)) (=> (p%d x) (p%d x))))" % (i, i + 1) for i in range(k)]
    lines.append("(assert (forall ((x nat)) (=> (p%d x) false)))" % k)
    path = tmp_path / "chain.smt2"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_a_derivation_deeper_than_the_recursion_limit_is_answered_and_replays(tmp_path, capsys):
    k = 600
    path = chain_file(tmp_path, k)
    assert main(["solve", str(path)]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "Counterexample! Goal clause %d is violated with x = z" % (k + 1) in out
    assert out.count("[clause") == k + 1
    assert "  " * (k + 1) + "p0(z)   [clause 0]" in out
    assert main(["solve", str(path), "--json"]) == EXIT_UNSAT
    text = capsys.readouterr().out
    assert '"verdict": "unsat"' in text and '"goal_clause": %d' % (k + 1) in text
    assert text.count('"atom"') == k + 1
    problem = parse_problem(path.read_text())
    outcome, _ = driver.solve(problem)
    assert check_derivation(problem, outcome.derivation) == []


def s_chain(n, base="z"):
    return "(s " * n + base + ")" * n


def nat_file(tmp_path, declarations, asserts):
    path = tmp_path / "deep.smt2"
    lines = ["(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))"] + declarations
    path.write_text("\n".join(lines + ["(assert %s)" % a for a in asserts]) + "\n")
    return path


def unsat_as_text_and_json(monkeypatch, capsys, path, argv):
    """The output of `regmod solve` on path, as text and with --json, each
    of which must exit with the Unsat code, and the problem and derivation.
    The input is solved once: the --json run is given the text run's answer."""
    answers = []
    solve = driver.solve

    def solve_once(*args):
        if not answers:
            answers.append(solve(*args))
        return answers[0]

    monkeypatch.setattr(driver, "solve", solve_once)
    assert main(["solve", str(path)] + argv) == EXIT_UNSAT
    text = capsys.readouterr().out
    assert main(["solve", str(path), "--json"] + argv) == EXIT_UNSAT
    json_text = capsys.readouterr().out
    return text, json_text, parse_problem(path.read_text()), answers[0][0].derivation


def test_a_counterexample_deeper_than_the_recursion_limit_is_answered_and_replays(
    monkeypatch, capsys, tmp_path
):
    # The goal's atoms are d(s^150(z), s^350(z)) and e(s^150(z)): derived
    # terms 350 levels deep from input nested at most 202.
    path = nat_file(
        tmp_path,
        ["(declare-fun d (nat nat) Bool)", "(declare-fun e (nat) Bool)"],
        [
            "(d z %s)" % s_chain(200),
            "(forall ((x nat) (y nat)) (=> (d x y) (d (s x) (s y))))",
            "(e %s)" % s_chain(150),
            "(forall ((x nat) (y nat)) (=> (and (d x y) (e x)) false))",
        ],
    )
    text, json_text, problem, derivation = unsat_as_text_and_json(
        monkeypatch, capsys, path, ["--max-states", "400"]
    )
    assert "Counterexample! Goal clause 3 is violated with x = %s" % ("s(" * 150) in text
    assert "  d(%sz%s, %sz%s)   [clause 1]" % ("s(" * 150, ")" * 150, "s(" * 350, ")" * 350) in text
    assert '"verdict": "unsat"' in json_text and '"goal_clause": 3' in json_text
    assert check_derivation(problem, derivation) == []


def test_a_goal_on_an_atom_nested_254_deep_is_answered_and_replays(monkeypatch, capsys, tmp_path):
    # Input at the nesting limit, whose replay compares two 254-deep terms.
    path = nat_file(
        tmp_path,
        ["(declare-fun p (nat) Bool)"],
        ["(p %s)" % s_chain(254), "(forall ((x nat)) (=> (p %s) false))" % s_chain(250, "x")],
    )
    text, json_text, problem, derivation = unsat_as_text_and_json(
        monkeypatch, capsys, path, ["--max-states", "260"]
    )
    assert "Counterexample! Goal clause 1 is violated with x = s(s(s(s(z))))\n" in text
    assert '"verdict": "unsat"' in json_text and '"goal_clause": 1' in json_text
    assert check_derivation(problem, derivation) == []


@pytest.mark.parametrize("n", [20, 100])
def test_a_premise_used_twice_is_one_step(monkeypatch, capsys, tmp_path, n):
    # p(z), p(x) and p(x) => p(s(x)), p(s^n(z)) => false: n + 1 atoms, each
    # used twice by the next.  A derivation walked as a tree would double
    # at every level; as steps it replays and prints in time linear in n.
    path = nat_file(
        tmp_path,
        ["(declare-fun p (nat) Bool)"],
        ["(p z)", "(forall ((x nat)) (=> (and (p x) (p x)) (p (s x))))",
         "(forall ((x nat)) (=> (p %s) false))" % s_chain(n)],
    )
    answers = []
    solve = driver.solve

    def solve_and_keep(*args):
        answers.append(solve(*args))
        return answers[-1]

    monkeypatch.setattr(driver, "solve", solve_and_keep)
    problem = parse_problem(path.read_text())
    argv = ["solve", str(path), "--max-states", str(n + 2), "--timeout", "5"]
    for form in ([], ["--json"]):
        start = time.monotonic()
        assert main(argv + form) == EXIT_UNSAT
        assert time.monotonic() - start < 2
        out = capsys.readouterr().out
        if form:
            doc = json.loads(out)
            assert len(doc["steps"]) == n + 1
            assert [step["premises"] for step in doc["steps"]] == [[]] + [[k, k] for k in range(n)]
            assert out.count("\n") < 20 * (n + 1) + 50
        else:
            # Each step once with its premises, and once more as above.
            assert out.count("[clause") == 2 * n + 1
            assert out.count(", as above]") == n
        assert check_derivation(problem, answers[-1][0].derivation) == []


# Clauses with over a thousand constructor occurrences, S being s^200(z):
# a goal with five p(S) atoms, and the fact p(S, S, S, S, S).  Each clause's
# plan has a step per occurrence, which certification walks in one loop.
LONG_CLAUSES = {
    "long_goal": (
        ["(declare-fun p (nat) Bool)", "(declare-fun q (nat) Bool)"],
        ["(p z)", "(forall ((x nat)) (=> (p x) (p (s (s x)))))",
         "(=> (and %s (q z)) false)" % " ".join(["(p %s)" % s_chain(200)] * 5)],
    ),
    "long_fact": (
        ["(declare-fun p (nat nat nat nat nat) Bool)", "(declare-fun q (nat) Bool)"],
        ["(p %s)" % " ".join([s_chain(200)] * 5), "(q z)", "(forall ((x nat)) (=> (q (s x)) false))"],
    ),
}


@pytest.mark.parametrize("name", sorted(LONG_CLAUSES))
def test_a_clause_with_a_thousand_constructors_is_answered_a_certified_sat(capsys, tmp_path, name):
    path = nat_file(tmp_path, *LONG_CLAUSES[name])
    for form in ([], ["--json"]):
        start = time.monotonic()
        assert main(["solve", str(path)] + form) == EXIT_SAT
        assert time.monotonic() - start < 2
        out = capsys.readouterr().out
        if form:
            assert json.loads(out)["verdict"] == "sat"
        else:
            assert "Success! Clauses are satisfiable" in out


# Nullary predicates in bodies: a plan joins over stop's row of no
# positions, or is seeded on q's.  Both problems have a model.
NULLARY_INPUTS = {
    "nullary_goal": [
        "(declare-fun p (nat) Bool)",
        "(declare-fun stop () Bool)",
        "(assert (p z))",
        "(assert (forall ((x nat)) (=> (p (s x)) (stop))))",
        "(assert (=> (stop) false))",
    ],
    "nullary_body": [
        "(declare-fun p (nat) Bool)",
        "(declare-fun q () Bool)",
        "(assert (forall ((x nat)) (=> (q) (p x))))",
        "(assert (forall ((x nat)) (=> (and (p x) (q)) false)))",
    ],
}


@pytest.mark.parametrize("form", [[], ["--json"], ["--max-depth", "0"]], ids=["text", "json", "depth0"])
@pytest.mark.parametrize("name", sorted(NULLARY_INPUTS))
def test_a_nullary_predicate_in_a_body_is_answered_sat(tmp_path, capsys, name, form):
    path = tmp_path / (name + ".smt2")
    path.write_text("\n".join(["(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))"] + NULLARY_INPUTS[name]) + "\n")
    # solve certifies every answer before it is printed; one that fails
    # exits 70.
    assert main(["solve", str(path)] + form) == EXIT_SAT
    out = capsys.readouterr().out
    if form == ["--json"]:
        assert json.loads(out)["verdict"] == "sat"
    else:
        assert "Success!" in out


# A nullary predicate written as its bare name, the SMT-LIB form, in a
# body, a head, a goal and a fact.
BARE_NULLARY_INPUTS = {
    "bare_body": (EXIT_SAT, [
        "(declare-fun p (nat) Bool)",
        "(declare-fun q () Bool)",
        "(assert (p z))",
        "(assert (forall ((x nat)) (=> (and (p x) q) false)))",
    ]),
    "bare_head": (EXIT_SAT, [
        "(declare-fun p (nat) Bool)",
        "(declare-fun stop () Bool)",
        "(assert (p z))",
        "(assert (forall ((x nat)) (=> (p (s x)) stop)))",
        "(assert (=> (stop) false))",
    ]),
    "bare_goal": (EXIT_UNSAT, [
        "(declare-fun p (nat) Bool)",
        "(declare-fun stop () Bool)",
        "(assert (p z))",
        "(assert (forall ((x nat)) (=> (p x) stop)))",
        "(assert (=> stop false))",
    ]),
}


@pytest.mark.parametrize("name", sorted(BARE_NULLARY_INPUTS))
def test_a_nullary_predicate_may_be_its_bare_name(tmp_path, capsys, name):
    code, lines = BARE_NULLARY_INPUTS[name]
    path = tmp_path / (name + ".smt2")
    path.write_text("\n".join(["(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))"] + lines) + "\n")
    assert main(["solve", str(path)]) == code
    assert ("Success!" if code == EXIT_SAT else "Clauses are unsatisfiable.") in capsys.readouterr().out


def test_native_backend_rejects_no_symmetry_breaking(capsys):
    assert main(["solve", SAT_FILE, "--no-symmetry-breaking"]) == EXIT_USAGE
    assert "asp backend only" in capsys.readouterr().err


def test_failed_certificate_exits_70(monkeypatch, capsys):
    search_model = driver.search_model

    def emptied(*args):
        found = search_model(*args)
        return found and (found[0], {pred: set() for pred in found[1]})

    monkeypatch.setattr(driver, "search_model", emptied)
    assert main(["solve", SAT_FILE]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert "Success!" not in captured.out
    assert "fails certification" in captured.err


def test_usage_error_unknown_flag(capsys):
    assert main(["solve", SAT_FILE, "--wat"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_backend_requires_solver_binary(capsys):
    code = main(
        ["solve", SAT_FILE, "--backend", "asp", "--solver-path", "/nonexistent/clingo"]
    )
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_failed_solver_run_exits_70(tmp_path, capsys):
    path = write_fake_solver(tmp_path, "crash.sh", "cat - > /dev/null\necho boom >&2\nexit 1\n")
    code = main(["solve", SAT_FILE, "--backend", "asp", "--solver-path", path])
    assert code == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert "Success!" not in captured.out
    assert "boom" in captured.err and captured.err.count("\n") == 1


def test_malformed_solver_answer_exits_70(tmp_path, capsys):
    # At one state per sort, s(2) names a state outside the grid.
    script = 'cat - > /dev/null\necho "Answer: 1"\necho "rule(z,1) rule(s(1),1) rule(s(2),1)"\nexit 30\n'
    path = write_fake_solver(tmp_path, "outside.sh", script)
    code = main(["solve", SAT_FILE, "--backend", "asp", "--solver-path", path])
    assert code == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert "fails certification: transition s[2] is outside the signature grid" in captured.err
    assert captured.err.count("\n") == 1


def test_asp_backend_with_stub_solver(tmp_path, capsys):
    path = write_fake_solver(tmp_path, "eop.sh", EVEN_ODD_PLUS_SCRIPT)
    code = main(["solve", SAT_FILE, "--backend", "asp", "--solver-path", path])
    assert code == EXIT_SAT
    assert "Success!" in capsys.readouterr().out


def test_emit_asp_writes_programs(tmp_path, capsys):
    out_dir = tmp_path / "programs"
    code = main(["solve", SAT_FILE, "--emit-asp", str(out_dir), "--max-states", "2"])
    assert code == EXIT_SAT
    listed = capsys.readouterr().out.splitlines()
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "counterexample_01.lp",
        "counterexample_02.lp",
        "model_01.lp",
        "model_02.lp",
    ]
    assert sorted(listed) == sorted(str(out_dir / n) for n in names)
    assert "#const maxState=2." in (out_dir / "model_02.lp").read_text()
    assert "dom(nat, z)." in (out_dir / "counterexample_01.lp").read_text()
    # default emission carries the ordering constraints
    assert "slotIdx" in (out_dir / "model_01.lp").read_text()


def test_emit_asp_respects_no_symmetry(tmp_path):
    out_dir = tmp_path / "programs"
    main(
        [
            "solve",
            SAT_FILE,
            "--emit-asp",
            str(out_dir),
            "--max-states",
            "1",
            "--no-symmetry-breaking",
        ]
    )
    assert "slotIdx" not in (out_dir / "model_01.lp").read_text()


def test_emit_asp_dedupes_capped_depth(tmp_path):
    out_dir = tmp_path / "programs"
    main(
        [
            "solve",
            SAT_FILE,
            "--emit-asp",
            str(out_dir),
            "--max-states",
            "3",
            "--max-depth",
            "1",
        ]
    )
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "counterexample_01.lp",
        "model_01.lp",
        "model_02.lp",
        "model_03.lp",
    ]


def test_count_models_requires_asp_backend(capsys):
    assert main(["solve", SAT_FILE, "--count-models"]) == EXIT_USAGE
    assert "asp" in capsys.readouterr().err


def test_count_models_with_stub(tmp_path, capsys):
    script = """\
in=$(cat -)
if echo "$in" | grep -q "slotIdx"; then
  echo "Models       : 4"
else
  echo "Models       : 8"
fi
exit 30
"""
    path = write_fake_solver(tmp_path, "count.sh", script)
    code = main(
        [
            "solve",
            SAT_FILE,
            "--backend",
            "asp",
            "--solver-path",
            path,
            "--count-models",
            "--max-states",
            "2",
        ]
    )
    assert code == EXIT_SAT
    out = capsys.readouterr().out
    assert "with symmetry breaking: 4" in out
    assert "without symmetry breaking: 8" in out


def test_count_models_json(tmp_path, capsys):
    script = 'cat - > /dev/null\necho "Models : 5"\nexit 30\n'
    path = write_fake_solver(tmp_path, "count.sh", script)
    code = main(
        [
            "solve",
            SAT_FILE,
            "--backend",
            "asp",
            "--solver-path",
            path,
            "--count-models",
            "--json",
        ]
    )
    assert code == EXIT_SAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["with_symmetry_breaking"] == 5
    assert doc["without_symmetry_breaking"] == 5


def test_count_models_timeout_is_unknown(tmp_path, capsys):
    path = write_fake_solver(tmp_path, "slow.sh", "sleep 5\n")
    argv = ["solve", SAT_FILE, "--backend", "asp", "--solver-path", path]
    assert main(argv + ["--count-models", "--timeout", "0.3"]) == EXIT_UNKNOWN
    assert capsys.readouterr().err == "error: time limit reached\n"


def test_emit_and_count_are_exclusive(tmp_path, capsys):
    code = main(
        ["solve", SAT_FILE, "--emit-asp", str(tmp_path / "d"), "--count-models"]
    )
    assert code == EXIT_USAGE


def test_gen_to_stdout(capsys):
    assert main(["gen", "member-rev", "2"]) == EXIT_SAT
    out = capsys.readouterr().out
    assert parse_problem(out) == gen_member_rev(2)


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "mr3.smt2"
    assert main(["gen", "member-rev", "3", "-o", str(target)]) == EXIT_SAT
    assert parse_problem(target.read_text()) == gen_member_rev(3)
    assert str(target) in capsys.readouterr().out


def test_gen_rejects_bad_k(capsys):
    assert main(["gen", "member-rev", "0"]) == EXIT_USAGE
    assert "element" in capsys.readouterr().err


def test_gen_rejects_unknown_generator(capsys):
    assert main(["gen", "nope", "2"]) == EXIT_USAGE


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
