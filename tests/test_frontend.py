import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod.core import (
    App,
    Atom,
    Clause,
    Constructor,
    Diseq,
    Eq,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
    validate,
)
from regmod.frontend import MAX_NESTING, ParseError, SourceSpan, parse_problem, print_problem
from tests.conftest import Z, s


def test_parse_even_odd_plus_fixture(problems_dir, nat_problem):
    text = (problems_dir / "even_odd_plus.smt2").read_text()
    problem = parse_problem(text)
    assert len(problem.sorts) == 1
    assert len(problem.predicates) == 3
    assert len(problem.clauses) == 6
    assert problem == nat_problem
    assert validate(problem).ok


def test_parse_unsat_fixture(problems_dir, unsat_toy):
    text = (problems_dir / "even_ssz_unsat.smt2").read_text()
    assert parse_problem(text) == unsat_toy


def test_parse_diseq_fixtures(problems_dir):
    for name in ("diseq_unit.smt2", "diseq_pair_unsat.smt2"):
        problem = parse_problem((problems_dir / name).read_text())
        assert validate(problem).ok
        goal = problem.clauses[-1]
        assert goal.is_goal
        assert isinstance(goal.body[-1], Diseq)


def test_parse_empty_input():
    problem = parse_problem("")
    assert problem == Problem((), (), ())
    assert any("no goal" in w for w in validate(problem).warnings)


def test_parse_not_equals_literal():
    text = """
(declare-datatypes ((u 0)) (((a) (b))))
(declare-fun p (u) Bool)
(assert (forall ((x u) (y u)) (=> (and (not (= x y))) (p x))))
(check-sat)
"""
    problem = parse_problem(text)
    assert problem.clauses[0].body == (Diseq(Var("x", "u"), Var("y", "u")),)


def test_parse_equality_literal():
    text = """
(declare-datatypes ((u 0)) (((a))))
(declare-fun p (u) Bool)
(assert (forall ((x u)) (=> (and (= x a)) (p x))))
"""
    problem = parse_problem(text)
    assert problem.clauses[0].body == (Eq(Var("x", "u"), App("a")),)


def test_parse_single_literal_body():
    text = """
(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))
(declare-fun even (nat) Bool)
(assert (forall ((x nat)) (=> (even x) (even (s (s x))))))
"""
    problem = parse_problem(text)
    assert problem.clauses[0].body == (Atom("even", (Var("x", "nat"),)),)


def test_selectors_are_ignored():
    text = """
(declare-datatypes ((nat 0)) (((z) (s (pred nat)))))
"""
    problem = parse_problem(text)
    assert problem.sorts[0].constructors == (
        Constructor("z"),
        Constructor("s", ("nat",)),
    )


@pytest.mark.parametrize(
    "text,needle",
    [
        ("(assert", "unclosed"),
        ("(check-sat))", "unmatched"),
        ("(set-logic HORN)", "unsupported form"),
        ("(declare-datatypes ((p 1)) (((c))))", "parametric"),
        ("(declare-fun p (u) u)", "must return Bool"),
        ("(assert (p x))", "unbound symbol x"),
        ("(assert (forall ((x u) (x u)) (=> (and) false)))", "duplicate binder"),
        ("(assert (forall ((x u)) (=> (and (not (p x))) false)))", "(not (= t1 t2))"),
        ("(assert false)", "expected a predicate application"),
        ("(check-sat extra)", "no arguments"),
        ("(assert (forall ((x u)) (=> (and (= x)) false)))", "= takes two terms"),
    ],
)
def test_parse_errors_are_spanned(text, needle):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert needle in str(info.value)
    assert info.value.span.line >= 1
    assert info.value.span.column >= 1


def test_variable_shadows_constructor():
    # A binder may reuse a constructor name; the binder wins in its scope.
    text = """
(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))
(declare-fun p (nat) Bool)
(assert (forall ((z nat)) (p z)))
"""
    problem = parse_problem(text)
    assert problem.clauses[0].head == Atom("p", (Var("z", "nat"),))


def test_round_trip_fixture_problems(problems_dir):
    for path in sorted(problems_dir.glob("*.smt2")):
        problem = parse_problem(path.read_text())
        assert parse_problem(print_problem(problem)) == problem


def test_round_trip_preserves_names(nat_problem):
    text = print_problem(nat_problem)
    assert "(forall ((y nat))" in text
    assert parse_problem(text) == nat_problem


def test_print_goal_as_implication_to_false(unsat_toy):
    text = print_problem(unsat_toy)
    assert "(=> (and (even (s (s z)))) false)" in text


NULLARY_TEXT = """
(declare-datatypes ((nat 0)) (((z) (s (s_0 nat)))))
(declare-fun p (nat) Bool)
(declare-fun stop () Bool)
(declare-fun go () Bool)
(assert go)
(assert (forall ((x nat)) (=> (and go (p x)) (p (s x)))))
(assert (forall ((x nat)) (=> (p (s x)) stop)))
(assert (=> stop false))
"""


def test_a_nullary_predicate_is_its_bare_name():
    problem = parse_problem(NULLARY_TEXT)
    go, stop = Atom("go", ()), Atom("stop", ())
    assert problem.clauses[0] == Clause(go, ())
    assert problem.clauses[1].body[0] == go
    assert problem.clauses[2].head == stop
    assert problem.clauses[3] == Clause(None, (stop,))
    # The application form (p) reads the same.
    applied = re.sub(r"(?<!fun )\b(go|stop)\b", r"(\1)", NULLARY_TEXT)
    assert applied.count("(go)") == 2 and applied.count("(stop)") == 2
    assert parse_problem(applied) == problem


def test_print_writes_a_nullary_atom_bare():
    problem = parse_problem(NULLARY_TEXT)
    text = print_problem(problem)
    assert "(assert go)" in text
    assert "(=> (and go (p x)) (p (s x)))" in text
    assert "(=> (and (p (s x))) stop)" in text
    assert "(=> (and stop) false)" in text
    assert "(stop)" not in text and "(go)" not in text
    assert parse_problem(text) == problem


def test_a_nullary_predicate_named_false_is_refused():
    with pytest.raises(ParseError) as info:
        parse_problem("(declare-fun false () Bool)")
    assert info.value.message == "a nullary predicate cannot be named false"
    assert parse_problem("(declare-fun false (nat) Bool)").predicates[0].name == "false"


def test_a_bare_predicate_with_arguments_is_refused():
    text = NULLARY_TEXT.replace("(=> stop false)", "(=> p false)")
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.message == "expected a predicate application, got p"


def test_nesting_boundary():
    # 256 nested lists pass the reader and fail only as a form.
    with pytest.raises(ParseError) as info:
        parse_problem("(" * MAX_NESTING + ")" * MAX_NESTING)
    assert info.value.message == "expected a form name"
    # The 257th "(" is the error, at its own line and column.
    deep = "(" * MAX_NESTING + "\n  (" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as info:
        parse_problem(deep)
    assert info.value.message == "nesting deeper than %d levels" % MAX_NESTING
    assert info.value.span == SourceSpan(MAX_NESTING + 3, MAX_NESTING + 4, 2, 3)
    # A bad character anywhere after it is still reported first.
    with pytest.raises(ParseError) as info:
        parse_problem(deep + "\n\u00e9")
    assert info.value.message == "unexpected character '\u00e9'"
    assert info.value.span == SourceSpan(len(deep) + 1, len(deep) + 2, 3, 1)


# ---------------------------------------------------------------------------
# Totality and round-trip on generated inputs.


@given(
    st.text(
        alphabet=st.one_of(
            st.characters(min_codepoint=32, max_codepoint=126),
            st.sampled_from("\n\t\r\v\f"),
            st.characters(min_codepoint=128),
        ),
        max_size=200,
    )
)
@settings(max_examples=150, deadline=None)
def test_parser_is_total(text):
    try:
        parse_problem(text)
    except ParseError as e:
        assert 0 <= e.span.start <= len(text)
        # Only "\n" ends a line; every other character is one column.
        before = text[: e.span.start]
        assert e.span.line == before.count("\n") + 1
        assert e.span.column == len(before.split("\n")[-1]) + 1


def small_problems():
    nat = SortDecl("nat", (Constructor("z"), Constructor("s", ("nat",))))
    pair = SortDecl("pr", (Constructor("mk", ("nat", "nat")),))
    x, y = Var("x", "nat"), Var("y", "nat")

    terms = st.recursive(
        st.sampled_from([Z, x, y]),
        lambda inner: inner.map(lambda t: s(t)),
        max_leaves=3,
    )

    def atom(args):
        return Atom("q", tuple(args))

    literals = st.one_of(
        st.tuples(terms).map(atom),
        st.tuples(terms, terms).map(lambda ts: Eq(*ts)),
        st.tuples(terms, terms).map(lambda ts: Diseq(*ts)),
    )
    heads = st.one_of(st.none(), st.tuples(terms).map(atom))
    clauses = st.tuples(
        heads, st.lists(literals, max_size=3).map(tuple)
    ).map(lambda hb: Clause(hb[0], hb[1]))
    return st.lists(clauses, max_size=4).map(
        lambda cs: Problem(
            (nat, pair),
            (PredicateDecl("q", ("nat",)),),
            tuple(cs),
        )
    )


@given(small_problems())
@settings(max_examples=100, deadline=None)
def test_round_trip_random_problems(problem):
    assert parse_problem(print_problem(problem)) == problem


# ---------------------------------------------------------------------------
# Every parse error pinned: message, offsets, line and column.

GOLDEN_PARSE_ERRORS = Path(__file__).parent / "golden" / "parse_errors.json"
PROBLEMS = Path(__file__).parent.parent / "problems"
# Whitespace, comment, both parentheses, characters the lexer rejects
# (vertical tab, form feed, a non-ASCII letter) and symbol characters.
MUTATION_ALPHABET = "() ;\n\t\r\v\f\u00e9azx0s-=>.!"


def parse_error_inputs():
    """Seeded inputs for the parse-error golden: 800 mutations of each
    problems/*.smt2 (1-4 characters inserted or deleted at one place),
    then 1,000 short texts over MUTATION_ALPHABET, parentheses weighted."""
    rng = random.Random(1)
    for path in sorted(PROBLEMS.glob("*.smt2")):
        base = path.read_text()
        for _ in range(800):
            at = rng.randrange(len(base) + 1)
            n = rng.randint(1, 4)
            if rng.random() < 0.5:
                yield base[:at] + "".join(rng.choice(MUTATION_ALPHABET) for _ in range(n)) + base[at:]
            else:
                yield base[:at] + base[at + n:]
    weighted = MUTATION_ALPHABET + "(((())))"
    for _ in range(1000):
        yield "".join(rng.choice(weighted) for _ in range(rng.randint(0, 30)))


def parse_outcome(text):
    try:
        parse_problem(text)
    except ParseError as e:
        return [e.message, e.span.start, e.span.end, e.span.line, e.span.column]
    return ["ok"]


def inputs_digest(texts):
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def test_parse_errors_match_golden():
    texts = list(parse_error_inputs())
    golden = json.loads(GOLDEN_PARSE_ERRORS.read_text())
    assert golden["inputs_sha256"] == inputs_digest(texts), "the inputs changed: capture again"
    assert [parse_outcome(t) for t in texts] == golden["outcomes"]


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_frontend writes the golden anew.
    texts = list(parse_error_inputs())
    lines = [json.dumps(parse_outcome(t)) for t in texts]
    GOLDEN_PARSE_ERRORS.write_text(
        '{"inputs_sha256": "%s",\n "outcomes": [\n%s\n]}\n' % (inputs_digest(texts), ",\n".join(lines))
    )
