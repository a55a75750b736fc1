import hashlib
import json
import os
import random
import re
import stat
import textwrap
import time
from pathlib import Path

import pytest

from conftest import make_nat_problem, X, Y, W
from regmod.asp import (
    AnswerParseError,
    BudgetExceeded,
    DecodeError,
    EmitError,
    NoAnswerSetError,
    SolverConfig,
    SolverNotFoundError,
    decode_model,
    emit_counterexample_search,
    emit_model_search,
    name_map,
    parse_answer_set,
    parse_model_count,
    run_external,
)
from regmod.automaton import TreeAutomaton, state_ranges_for, transition_grid
from regmod.benchmarks import gen_member_rev
from regmod.core import (
    Atom,
    Clause,
    Constructor,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
)
from regmod.frontend import parse_problem
from regmod.interpretation import least_tables
from regmod.native import search_model
from tests.brute_force import complete_automata, isomorphs

GOLDEN = Path(__file__).parent / "golden" / "even_odd_plus_maxstate2.lp"
PROBLEMS = Path(__file__).parent.parent / "problems"


def nat_goal_problem():
    goal = Clause(
        None,
        (Atom("even", (X,)), Atom("even", (Y,)), Atom("plus", (X, Y, W)), Atom("odd", (W,))),
    )
    return make_nat_problem((goal,))


# The reference automaton-guessing listing for even/odd/plus at two states,
# clause section only.  Variable numbering there is not produced by any one
# allocator (the base plus clause and the recursive one disagree), so the
# comparison is per-line up to a bijective renaming of the Q variables.
REFERENCE_CLAUSE_SECTION = [
    "even(Q0) :- rule(z, Q0).",
    "even(Q2) :- odd(Q1), rule(s(Q1), Q2).",
    "odd(Q2) :- even(Q1), rule(s(Q1), Q2).",
    "plus(Q1, Q0, Q0) :- rule(z, Q1), state(Q0).",
    "plus(Q6, Q3, Q7) :- plus(Q1, Q3, Q5), rule(s(Q1), Q6), rule(s(Q5), Q7).",
    ":- even(Q0), even(Q1), plus(Q0, Q1, Q2), odd(Q2).",
]

REFERENCE_PREAMBLE = [
    "#const maxState=2.",
    "state(1..maxState).",
    "1 {rule(z, Q): state(Q)} 1.",
    "1 {rule(s(Q0), Q): state(Q)} 1 :- state(Q0).",
    "{even(Q0)} :- state(Q0).",
    "{odd(Q0)} :- state(Q0).",
    "{plus(Q0, Q1, Q2)} :- state(Q0), state(Q1), state(Q2).",
]


def alpha_normal(line: str) -> str:
    """Rename Q-variables to first-occurrence order and collapse spacing,
    so two rules are equal iff they differ only by a variable bijection."""
    line = re.sub(r"\s+", " ", line.strip())
    seen = {}

    def sub(m):
        name = m.group()
        if name not in seen:
            seen[name] = "A%d" % len(seen)
        return seen[name]

    return re.sub(r"Q\d+|\bQ\b", sub, line)


def clause_section(text: str) -> list:
    sections = text.split("\n\n")
    for sec in sections:
        lines = sec.splitlines()
        if any(l.startswith(":- ") for l in lines) and "rule(" in sec and "{" not in sec:
            if not any(l.startswith("slot") for l in lines):
                return lines
    raise AssertionError("no clause section found")


def test_emission_matches_golden_bytes():
    assert emit_model_search(nat_goal_problem(), 2) == GOLDEN.read_text()


def test_clause_section_alpha_equivalent_to_reference_listing():
    lines = clause_section(GOLDEN.read_text())
    assert len(lines) == len(REFERENCE_CLAUSE_SECTION)
    for got, want in zip(lines, REFERENCE_CLAUSE_SECTION):
        assert alpha_normal(got) == alpha_normal(want)
    # the fact and the goal line carry no renaming at all
    assert lines[0] == REFERENCE_CLAUSE_SECTION[0]
    assert lines[-1] == REFERENCE_CLAUSE_SECTION[-1]


def test_preamble_lines_match_reference_listing():
    text = GOLDEN.read_text()
    for line in REFERENCE_PREAMBLE:
        assert line in text.splitlines()


def test_emission_deterministic():
    a = emit_model_search(nat_goal_problem(), 2, symmetry_breaking=True)
    b = emit_model_search(nat_goal_problem(), 2, symmetry_breaking=True)
    assert a == b
    c = emit_model_search(gen_member_rev(2), 4)
    d = emit_model_search(gen_member_rev(2), 4)
    assert c == d


def test_emission_shape():
    text = emit_model_search(gen_member_rev(2), 3, symmetry_breaking=True)
    assert text.endswith("\n") and not text.endswith("\n\n")
    for line in text.splitlines():
        assert line == "" or line.endswith("."), line
    assert "\n\n\n" not in text


def test_symmetry_section_only_when_requested():
    off = emit_model_search(nat_goal_problem(), 2)
    on = emit_model_search(nat_goal_problem(), 2, symmetry_breaking=True)
    assert "slotIdx" not in off
    assert "slotIdx" in on
    assert off.split("\n\n#show")[0] in on  # shared prefix up to the shows


def test_multi_sort_emission_uses_state_types():
    text = emit_model_search(gen_member_rev(2), {"elt": 2, "list": 4})
    assert "stateType(1..2, elt)." in text
    assert "stateType(3..6, list)." in text
    assert (
        "1 {rule(cons(Q0, Q1), Q): stateType(Q, list)} 1 :- "
        "stateType(Q0, elt), stateType(Q1, list)." in text
    )
    assert "diffApprox(Q0, Q2)" in text  # the notMember step guard
    # clause bodies never guard with bare state/1 in the multi-sort case
    for line in clause_section(text):
        assert "state(" not in line.replace("stateType(", "")


def test_ordering_facts_match_grid():
    problem = gen_member_rev(2)
    ranges = state_ranges_for(problem, {"elt": 2, "list": 4})
    grid = transition_grid(problem, ranges)
    text = emit_model_search(problem, {"elt": 2, "list": 4}, symmetry_breaking=True)
    assert "slot(0..%d)." % (len(grid) - 1) in text
    first = {}
    for k, (_, args) in enumerate(grid):
        for a in args:
            first.setdefault(a, k)
    for a, k in first.items():
        assert "argSeen(%d, %d)." % (a, k) in text
    for sort, lo, hi in ranges:
        for a in range(lo, hi):
            assert "nextState(%d, %d)." % (a, a + 1) in text
    assert "nextState(2, 3)." not in text  # no cross-sort successor


def _ordering_allows(grid, ranges, delta):
    """Test-side evaluation of the emitted ordering constraint."""
    pred = {}
    for _, lo, hi in ranges:
        for q in range(lo + 1, hi + 1):
            pred[q] = q - 1
    first_arg = {}
    for k, (_, args) in enumerate(grid):
        for a in args:
            first_arg.setdefault(a, k)
    for k, slot in enumerate(grid):
        q = delta[slot]
        if q not in pred:
            continue
        p = pred[q]
        seen = first_arg.get(p, len(grid)) <= k
        seen = seen or any(delta[grid[j]] == p for j in range(k))
        if not seen:
            return False
    return True


def test_ordering_constraint_keeps_an_isomorph_of_every_automaton():
    """Every complete automaton has an isomorph, found by trying every
    per-sort state bijection, that passes the emitted ordering constraint,
    so the constraint never loses an isomorphism class; and it rejects some
    automata, so it prunes."""
    problem = make_nat_problem()
    for n in (2, 3):
        ranges = state_ranges_for(problem, n)
        grid = transition_grid(problem, ranges)
        automata = list(complete_automata(problem, ranges))
        assert len(automata) == n ** len(grid)
        passing = 0
        for a in automata:
            passing += _ordering_allows(grid, ranges, a.delta)
            assert any(_ordering_allows(grid, ranges, b.delta) for b in isomorphs(a))
        assert 0 < passing < len(automata)


def test_escaping_reserved_and_invalid_names():
    sorts = (SortDecl("Rule", (Constructor("rule"), Constructor("S-t", ("Rule",)))),)
    preds = (PredicateDecl("not", ("Rule",)),)
    v = Var("v", "Rule")
    clauses = (Clause(Atom("not", (v,)), ()),)
    problem = Problem(sorts, preds, clauses)
    names = name_map(problem)
    assert names["rule"] == "c_rule"
    assert names["Rule"] == "c_Rule"
    assert names["S-t"] == "c_S_t"
    assert names["not"] == "c_not"
    text = emit_model_search(problem, 1)
    assert "c_not(Q0) :- state(Q0)." in text
    assert "1 {rule(c_rule, Q): state(Q)} 1." in text


def test_escaping_collision_rejected():
    sorts = (SortDecl("t", (Constructor("a-b"), Constructor("a.b", ("t",)))),)
    problem = Problem(sorts, (), ())
    with pytest.raises(EmitError):
        name_map(problem)


# --- answer set parsing ---


def test_parse_answer_set_with_marker():
    raw = textwrap.dedent(
        """\
        clingo version 5.4.0
        Reading from stdin
        Solving...
        Answer: 1
        rule(z,2) rule(s(1),2) rule(s(2),1) even(2) odd(1)
        SATISFIABLE

        Models       : 1+
        """
    )
    ans = parse_answer_set(raw)
    assert ("rule", ("z", 2)) in ans  # constants parse as bare names
    assert ("rule", ((("s", (1,))), 2)) in ans
    assert ("even", (2,)) in ans


def test_parse_answer_set_tolerates_spaces_inside_facts():
    ans = parse_answer_set("Answer: 1\nrule(s(1) ,2) even( 1 )\n")
    assert ans == (("rule", (("s", (1,)), 2)), ("even", (1,)))


def test_parse_answer_set_bare_fact_line_without_marker():
    ans = parse_answer_set("rule(z,1) even(1)\n")
    assert len(ans) == 2


def test_parse_answer_set_unsatisfiable():
    with pytest.raises(NoAnswerSetError) as e:
        parse_answer_set("Solving...\nUNSATISFIABLE\n\nModels : 0\n")
    assert e.value.reason == "unsatisfiable"


def test_parse_answer_set_nothing_found():
    with pytest.raises(NoAnswerSetError) as e:
        parse_answer_set("clingo version 5.4.0\n*** ERROR\n")
    assert e.value.reason == "missing"


def test_parse_answer_set_empty_answer():
    ans = parse_answer_set("Answer: 1\n\nSATISFIABLE\n")
    assert ans == ()


@pytest.mark.parametrize(
    "line, facts",
    [
        ("f(a b) g(a,) h (1) (x,-2) k()", (("f", ("a", "b")), ("g", ("a",)), ("h", (1,)), ("", ("x", -2)), ("k", ()))),
        ("p(1)  q 3(4)", (("p", (1,)), "q", 3, ("", (4,)))),
        ("f(,a)", None),
        ("f(a,,b)", None),
        ("a, b", None),
        ("f(a))", None),
        ("f((a)", None),
        ("F(a)", None),
        ("f(- 1)", None),
    ],
)
def test_parse_answer_set_grammar(line, facts):
    raw = "Answer: 1\n%s\n" % line
    if facts is None:
        with pytest.raises(AnswerParseError):
            parse_answer_set(raw)
    else:
        assert parse_answer_set(raw) == facts


def test_parse_answer_set_nesting_boundary():
    at_limit = "f(" * 256 + "a" + ")" * 256
    facts = parse_answer_set("Answer: 1\n%s\n" % at_limit)
    for _ in range(256):
        assert facts[0][0] == "f" and len(facts) == 1
        facts = facts[0][1]
    assert facts == ("a",)
    with pytest.raises(AnswerParseError, match="nesting deeper than 256 levels"):
        parse_answer_set("Answer: 1\n(%s)\n" % at_limit)


def test_parse_answer_set_deep_term_is_a_parse_error():
    deep = "f(" * 3000 + "a" + ")" * 3000
    with pytest.raises(AnswerParseError):
        parse_answer_set("Answer: 1\n%s\nSATISFIABLE\n" % deep)


def test_parse_answer_set_long_integer_is_never_a_value_error():
    digits = "7" * 5000
    try:
        facts = parse_answer_set("Answer: 1\np(%s)\n" % digits)
    except AnswerParseError:
        return  # past sys.get_int_max_str_digits()
    assert facts == (("p", (int(digits),)),)


def test_parse_answer_set_reads_a_long_line():
    facts = tuple(
        [("rule", (("s", (i % 8,)), -i)), ("p", (("", (i, "nil")),)), "q"][i % 3] for i in range(40000)
    )
    line = " ".join(fact_text(f) for f in facts)
    assert parse_answer_set("Answer: 1\n%s\nSATISFIABLE\n" % line) == facts


def test_parse_model_count():
    assert parse_model_count("Models       : 12\n") == (12, True)
    assert parse_model_count("Models : 700000000+\n") == (700000000, False)
    assert parse_model_count("no summary here") is None


# --- decoding ---


def known_model_line():
    return "rule(z,2) rule(s(1),2) rule(s(2),1) even(2) odd(1) " + " ".join(
        "plus(%d,%d,%d)" % row for row in [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)]
    )


def test_decode_model_round_trip():
    problem = nat_goal_problem()
    ans = parse_answer_set("Answer: 1\n%s\n" % known_model_line())
    a, tables = decode_model(ans, problem, 2)
    assert a.delta == {("z", ()): 2, ("s", (1,)): 2, ("s", (2,)): 1}
    assert tables["even"] == {(2,)}
    assert tables["odd"] == {(1,)}
    assert tables["plus"] == {(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)}
    assert tables == least_tables(a, problem)


def test_decode_model_rejects_missing_transition():
    problem = nat_goal_problem()
    ans = parse_answer_set("Answer: 1\nrule(z,2) rule(s(2),1) even(2) odd(1)\n")
    with pytest.raises(DecodeError, match="no transition"):
        decode_model(ans, problem, 2)


def test_decode_model_rejects_out_of_grid_transition():
    problem = nat_goal_problem()
    line = known_model_line() + " rule(s(5),1)"
    ans = parse_answer_set("Answer: 1\n%s\n" % line)
    with pytest.raises(DecodeError, match="outside the grid"):
        decode_model(ans, problem, 2)


def test_decode_model_rejects_conflicting_targets():
    problem = nat_goal_problem()
    line = known_model_line() + " rule(z,1)"
    ans = parse_answer_set("Answer: 1\n%s\n" % line)
    with pytest.raises(DecodeError, match="conflicting"):
        decode_model(ans, problem, 2)


def test_decode_accepts_unknown_auxiliary_facts():
    problem = nat_goal_problem()
    line = known_model_line() + " seen(1,2) stateType(1,nat)"
    ans = parse_answer_set("Answer: 1\n%s\n" % line)
    a, _ = decode_model(ans, problem, 2)
    assert a.delta[("z", ())] == 2


def test_encode_decode_inverse_with_native_model():
    """A model found natively, rendered as an answer set, decodes back to
    the same automaton and tables."""
    problem = nat_goal_problem()
    found = search_model(problem, 2)
    assert found is not None
    a, tables = found
    facts = []
    for (ctor, args), q in a.delta.items():
        facts.append(
            "rule(%s,%d)" % (ctor if not args else "%s(%s)" % (ctor, ",".join(map(str, args))), q)
        )
    for pred, rows in sorted(tables.items()):
        for row in sorted(rows):
            facts.append("%s(%s)" % (pred, ",".join(map(str, row))))
    ans = parse_answer_set("Answer: 1\n%s\n" % " ".join(facts))
    b, tables2 = decode_model(ans, problem, 2)
    assert b.delta == a.delta and b.state_ranges == a.state_ranges
    assert tables2 == tables


# --- counterexample programs ---


def test_counterexample_emission_shape(unsat_toy):
    text = emit_counterexample_search(unsat_toy, 2)
    assert "dom(nat, z)." in text
    assert "dom(nat, s(s(z)))." in text
    assert "dom(nat, s(s(s(z))))." not in text
    assert "witness(0, unit) :- even(s(s(z)))." in text
    assert ":- not violated." in text


def test_counterexample_head_guard_blocks_deep_terms(nat_problem):
    text = emit_counterexample_search(nat_problem, 3)
    assert "even(s(X0)) :- odd(X0), dom(nat, X0), dom(nat, s(X0))." in text
    assert "witness(0, (X0, X1, X2))" in text


def test_counterexample_diseq_uses_plain_inequality():
    problem = gen_member_rev(2)
    text = emit_counterexample_search(problem, 2)
    assert "X0 != X1" in text


def test_counterexample_budget():
    with pytest.raises(BudgetExceeded):
        emit_counterexample_search(gen_member_rev(2), 40, atom_cap=1000)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.smt2")), ids=lambda p: p.stem)
def test_counterexample_program_matches_golden(path, depth):
    golden = GOLDEN.parent / "counterexample" / ("%s_depth%d.lp" % (path.stem, depth))
    assert emit_counterexample_search(parse_problem(path.read_text()), depth) == golden.read_text()


# --- external solver protocol, exercised with stand-in executables ---


def fake_solver(tmp_path, name, script):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_external_reads_stdin_and_maps_sat_code(tmp_path):
    path = fake_solver(
        tmp_path,
        "sat.sh",
        'if grep -q "#show rule/2." -; then\n'
        'echo "Answer: 1"\necho "rule(z,1) even(1)"\nexit 30\n'
        "else\nexit 65\nfi\n",
    )
    run = run_external(emit_model_search(nat_goal_problem(), 2), SolverConfig(path))
    assert run.outcome == "sat"
    assert run.exit_status == 30
    assert "rule(z,1)" in run.output
    assert parse_answer_set(run.output)[0] == ("rule", ("z", 1))


def test_run_external_maps_unsat_code(tmp_path):
    path = fake_solver(tmp_path, "unsat.sh", 'cat - > /dev/null\necho "UNSATISFIABLE"\nexit 20\n')
    run = run_external("p.\n", SolverConfig(path))
    assert run.outcome == "unsat"


def test_run_external_unknown_code(tmp_path):
    path = fake_solver(tmp_path, "odd.sh", "cat - > /dev/null\nexit 7\n")
    run = run_external("p.\n", SolverConfig(path))
    assert run.outcome == "unknown"
    assert run.exit_status == 7


def test_run_external_custom_exit_codes(tmp_path):
    path = fake_solver(tmp_path, "zero.sh", 'cat - > /dev/null\necho ok\nexit 0\n')
    cfg = SolverConfig(path, sat_codes=frozenset({0}), unsat_codes=frozenset({1}))
    assert run_external("p.\n", cfg).outcome == "sat"


def test_run_external_timeout(tmp_path):
    path = fake_solver(tmp_path, "slow.sh", "cat - > /dev/null\nsleep 10\n")
    run = run_external("p.\n", SolverConfig(path, time_limit=0.3))
    assert run.outcome == "timeout"
    assert run.exit_status is None
    assert run.wall_seconds < 5


def _running(pid):
    """Whether the process exists and is not a zombie waiting to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        state = Path("/proc/%d/stat" % pid).read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state != "Z"


def test_run_external_timeout_kills_the_solvers_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    path = fake_solver(tmp_path, "spawner.sh", "sleep 30 &\necho $! > %s\nwait\n" % pid_file)
    run = run_external("p.\n", SolverConfig(path, time_limit=0.5))
    assert run.outcome == "timeout"
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)


def test_run_external_missing_binary(tmp_path):
    with pytest.raises(SolverNotFoundError):
        run_external("p.\n", SolverConfig(str(tmp_path / "nope")))


def test_run_external_passes_extra_args(tmp_path):
    path = fake_solver(
        tmp_path,
        "args.sh",
        'cat - > /dev/null\necho "Models       : $1"\nexit 30\n',
    )
    run = run_external("p.\n", SolverConfig(path, extra_args=("12",)))
    assert parse_model_count(run.output) == (12, True)


# ---------------------------------------------------------------------------
# Every answer line pinned: its facts, or an error.

GOLDEN_ANSWER_LINES = Path(__file__).parent / "golden" / "answer_lines.json"
# The native Sat answers of diseq_unit, even_odd_plus and member_rev_2 in
# problems/, written as clingo facts through name_map.
SAT_ANSWERS = (
    "rule(a,1) p(1)",
    "rule(z,1) rule(s(1),2) rule(s(2),1) even(1) odd(2) plus(1,1,1) plus(1,2,2) plus(2,1,2) plus(2,2,1)",
    "rule(e1,1) rule(e2,2) rule(nil,3) rule(cons(1,3),4) rule(cons(1,4),4) rule(cons(1,5),6) "
    "rule(cons(1,6),6) rule(cons(2,3),5) rule(cons(2,4),6) rule(cons(2,5),5) rule(cons(2,6),6) "
    "member(1,4) member(1,6) member(2,5) member(2,6) notMember(1,3) notMember(1,5) notMember(2,3) "
    "notMember(2,4) revAcc(3,3,3) revAcc(3,4,4) revAcc(3,5,5) revAcc(3,6,6) revAcc(4,3,4) "
    "revAcc(4,4,4) revAcc(4,5,6) revAcc(4,6,6) revAcc(5,3,5) revAcc(5,4,6) revAcc(5,5,5) "
    "revAcc(5,6,6) revAcc(6,3,6) revAcc(6,4,6) revAcc(6,5,6) revAcc(6,6,6) rev(3,3) rev(4,4) "
    "rev(5,5) rev(6,6)",
)
# Blanks that do not end a line (space, tab, unit separator, no-break and em
# spaces), both parentheses, the comma, digits, the minus, letters of both
# cases, the underscore, a period and a non-ASCII letter, a superscript two
# (str.isdigit accepts it, \d does not) and an Arabic-Indic three (\d and
# int accept it).
ANSWER_ALPHABET = " \t\x1f\u00a0\u2003(),019-azAZ_.\u00e9\u00b2\u0663"


def answer_line_inputs():
    """Seeded inputs for the answer-line golden: one-place mutations (1-4
    characters inserted or deleted) of the SAT_ANSWERS lines, 1,200, 1,200
    and 400 of them, then 2,200 short strings over ANSWER_ALPHABET,
    parentheses and commas weighted.  None nests more than 30 levels."""
    rng = random.Random(1)
    for base, count in zip(SAT_ANSWERS, (1200, 1200, 400)):
        for _ in range(count):
            at = rng.randrange(len(base) + 1)
            n = rng.randint(1, 4)
            if rng.random() < 0.5:
                yield base[:at] + "".join(rng.choice(ANSWER_ALPHABET) for _ in range(n)) + base[at:]
            else:
                yield base[:at] + base[at + n:]
    weighted = ANSWER_ALPHABET + "((((,,))))aaa"
    for _ in range(2200):
        yield "".join(rng.choice(weighted) for _ in range(rng.randint(0, 30)))


def fact_text(fact):
    """Clingo's text for a parsed term; parse_answer_set reads it back."""
    if isinstance(fact, tuple):
        return "%s(%s)" % (fact[0], ",".join(fact_text(a) for a in fact[1]))
    return str(fact)


def answer_outcome(line):
    try:
        facts = parse_answer_set("Answer: 1\n%s\nSATISFIABLE\n" % line)
    except AnswerParseError:
        return "error"
    return [fact_text(f) for f in facts]


def answer_lines_digest(lines):
    return hashlib.sha256("\0".join(lines).encode()).hexdigest()


def test_answer_lines_match_golden():
    lines = list(answer_line_inputs())
    golden = json.loads(GOLDEN_ANSWER_LINES.read_text())
    assert golden["inputs_sha256"] == answer_lines_digest(lines), "the inputs changed: capture again"
    assert [answer_outcome(line) for line in lines] == golden["outcomes"]


if __name__ == "__main__":
    # PYTHONPATH=src:tests python -m tests.test_asp writes the answer-line golden anew.
    lines = list(answer_line_inputs())
    outcomes = [json.dumps(answer_outcome(line)) for line in lines]
    GOLDEN_ANSWER_LINES.write_text(
        '{"inputs_sha256": "%s",\n "outcomes": [\n%s\n]}\n' % (answer_lines_digest(lines), ",\n".join(outcomes))
    )
