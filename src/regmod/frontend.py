"""SMT-LIB-style textual format for Horn problems over datatypes.

Accepted forms, one s-expression per top-level item:

    (declare-datatypes ((S 0) ...) (((c (sel S') ...) ...) ...))
    (declare-fun p (S1 ... Sn) Bool)
    (assert CLAUSE)
    (check-sat)

where CLAUSE is an optionally forall-wrapped implication
`(=> (and L1 ... Lk) H)` with atoms, `(= t1 t2)`, `(not (= t1 t2))` or
`(distinct t1 t2)` literals and an atom or `false` head.  A bare atom is a
fact; the `and` may be empty or replaced by a single literal; the `forall`
is mandatory exactly when the clause has variables, which are never free.
Selectors are parsed and discarded: the solver never uses them.  `;` starts
a line comment.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    MAX_NESTING,
    App,
    Atom,
    Clause,
    Constructor,
    Diseq,
    Eq,
    Literal,
    PredicateDecl,
    Problem,
    SortDecl,
    Term,
    Var,
    clause_vars,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return "line %d, column %d" % (self.line, self.column)


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__("%s: %s" % (span, message))
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Sym:
    text: str
    span: SourceSpan


@dataclass(frozen=True)
class _SList:
    items: Tuple[Union["_SList", _Sym], ...]
    span: SourceSpan


_SExpr = Union[_SList, _Sym]

_SYMBOL_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@$%^&*_-+=<>.?/"
)


def _tokenize(text: str) -> List[Tuple[str, str, SourceSpan]]:
    tokens: List[Tuple[str, str, SourceSpan]] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in "()":
            span = SourceSpan(i, i + 1, line, col)
            tokens.append(("(" if c == "(" else ")", c, span))
            i += 1
            col += 1
            continue
        if c in _SYMBOL_CHARS:
            start, start_col = i, col
            while i < n and text[i] in _SYMBOL_CHARS:
                i += 1
                col += 1
            span = SourceSpan(start, i, line, start_col)
            tokens.append(("sym", text[start:i], span))
            continue
        raise ParseError(
            "unexpected character %r" % c, SourceSpan(i, i + 1, line, col)
        )
    tokens.append(("eof", "", SourceSpan(n, n, line, col)))
    return tokens


def _read_forms(text: str) -> List[_SExpr]:
    tokens = _tokenize(text)
    pos = 0

    def read(depth: int) -> _SExpr:
        nonlocal pos
        kind, value, span = tokens[pos]
        if kind == "sym":
            pos += 1
            return _Sym(value, span)
        if kind == "(":
            if depth == MAX_NESTING:
                raise ParseError("nesting deeper than %d levels" % MAX_NESTING, span)
            pos += 1
            items: List[_SExpr] = []
            while tokens[pos][0] not in (")", "eof"):
                items.append(read(depth + 1))
            if tokens[pos][0] == "eof":
                raise ParseError("unclosed parenthesis", span)
            close = tokens[pos][2]
            pos += 1
            return _SList(
                tuple(items),
                SourceSpan(span.start, close.end, span.line, span.column),
            )
        raise ParseError("unexpected %r" % (value or kind), span)

    forms: List[_SExpr] = []
    while tokens[pos][0] != "eof":
        if tokens[pos][0] == ")":
            raise ParseError("unmatched closing parenthesis", tokens[pos][2])
        forms.append(read(0))
    return forms


def _expect_sym(e: _SExpr, what: str) -> _Sym:
    if not isinstance(e, _Sym):
        raise ParseError("expected %s" % what, e.span)
    return e


def _expect_list(e: _SExpr, what: str) -> _SList:
    if not isinstance(e, _SList):
        raise ParseError("expected %s" % what, e.span)
    return e


def parse_problem(text: str) -> Problem:
    """Parses the subset above; every rejection carries a source span.
    Structural sort checking beyond name resolution is left to validate."""
    forms = _read_forms(text)

    sorts: List[SortDecl] = []
    predicates: List[PredicateDecl] = []
    ctor_sorts: Dict[str, str] = {}

    # First pass: declarations, so clauses can tell constructors from
    # variables regardless of form order.
    for form in forms:
        if not isinstance(form, _SList) or not form.items:
            raise ParseError("expected a top-level form", form.span)
        head = _expect_sym(form.items[0], "a form name")
        if head.text == "declare-datatypes":
            _parse_datatypes(form, sorts, ctor_sorts)
        elif head.text == "declare-fun":
            predicates.append(_parse_declare_fun(form))
        elif head.text in ("assert", "check-sat"):
            continue
        else:
            raise ParseError(
                "unsupported form %s" % head.text, head.span
            )

    clauses: List[Clause] = []
    for form in forms:
        assert isinstance(form, _SList)
        head = _expect_sym(form.items[0], "a form name")
        if head.text == "assert":
            if len(form.items) != 2:
                raise ParseError("assert takes exactly one clause", form.span)
            clauses.append(_parse_clause(form.items[1], ctor_sorts))
        elif head.text == "check-sat":
            if len(form.items) != 1:
                raise ParseError("check-sat takes no arguments", form.span)

    return Problem(tuple(sorts), tuple(predicates), tuple(clauses))


def _parse_datatypes(
    form: _SList, sorts: List[SortDecl], ctor_sorts: Dict[str, str]
) -> None:
    if len(form.items) != 3:
        raise ParseError(
            "declare-datatypes takes a sort list and a constructor list",
            form.span,
        )
    names = _expect_list(form.items[1], "a sort declaration list")
    bodies = _expect_list(form.items[2], "a constructor list per sort")
    if len(names.items) != len(bodies.items):
        raise ParseError(
            "declared %d sorts but %d constructor lists"
            % (len(names.items), len(bodies.items)),
            form.span,
        )
    for name_entry, body in zip(names.items, bodies.items):
        entry = _expect_list(name_entry, "a (name arity) pair")
        if len(entry.items) != 2:
            raise ParseError("expected (name arity)", entry.span)
        sort_name = _expect_sym(entry.items[0], "a sort name")
        arity = _expect_sym(entry.items[1], "an arity")
        if arity.text != "0":
            raise ParseError(
                "parametric datatypes are not supported", arity.span
            )
        ctors: List[Constructor] = []
        for centry in _expect_list(body, "a constructor list").items:
            if isinstance(centry, _Sym):
                # Bare symbol allowed for constant constructors.
                ctors.append(Constructor(centry.text))
                ctor_sorts[centry.text] = sort_name.text
                continue
            if not centry.items:
                raise ParseError("empty constructor declaration", centry.span)
            cname = _expect_sym(centry.items[0], "a constructor name")
            args: List[str] = []
            for sel in centry.items[1:]:
                sel_list = _expect_list(sel, "a (selector sort) pair")
                if len(sel_list.items) != 2:
                    raise ParseError("expected (selector sort)", sel_list.span)
                _expect_sym(sel_list.items[0], "a selector name")
                args.append(_expect_sym(sel_list.items[1], "a sort name").text)
            ctors.append(Constructor(cname.text, tuple(args)))
            ctor_sorts[cname.text] = sort_name.text
        sorts.append(SortDecl(sort_name.text, tuple(ctors)))


def _parse_declare_fun(form: _SList) -> PredicateDecl:
    if len(form.items) != 4:
        raise ParseError(
            "declare-fun takes a name, an argument list and a result sort",
            form.span,
        )
    name = _expect_sym(form.items[1], "a predicate name")
    args = _expect_list(form.items[2], "an argument sort list")
    result = _expect_sym(form.items[3], "the result sort")
    if result.text != "Bool":
        raise ParseError(
            "predicates must return Bool, got %s" % result.text, result.span
        )
    arg_sorts = tuple(
        _expect_sym(a, "a sort name").text for a in args.items
    )
    return PredicateDecl(name.text, arg_sorts)


def _parse_clause(e: _SExpr, ctor_sorts: Dict[str, str]) -> Clause:
    binders: Dict[str, str] = {}
    body = e
    if isinstance(e, _SList) and e.items and _is_sym(e.items[0], "forall"):
        if len(e.items) != 3:
            raise ParseError("forall takes binders and a body", e.span)
        for b in _expect_list(e.items[1], "a binder list").items:
            pair = _expect_list(b, "a (variable sort) binder")
            if len(pair.items) != 2:
                raise ParseError("expected (variable sort)", pair.span)
            vname = _expect_sym(pair.items[0], "a variable name")
            vsort = _expect_sym(pair.items[1], "a sort name")
            if vname.text in binders:
                raise ParseError("duplicate binder %s" % vname.text, vname.span)
            binders[vname.text] = vsort.text
        body = e.items[2]

    if isinstance(body, _SList) and body.items and _is_sym(body.items[0], "=>"):
        if len(body.items) != 3:
            raise ParseError("=> takes a body and a head", body.span)
        literals = _parse_body(body.items[1], binders, ctor_sorts)
        head = _parse_head(body.items[2], binders, ctor_sorts)
        return Clause(head, tuple(literals))

    # A bare atom is a fact.
    atom = _parse_atom(body, binders, ctor_sorts)
    return Clause(atom, ())


def _parse_body(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> List[Literal]:
    if isinstance(e, _SList) and e.items and _is_sym(e.items[0], "and"):
        return [
            _parse_literal(item, binders, ctor_sorts) for item in e.items[1:]
        ]
    return [_parse_literal(e, binders, ctor_sorts)]


def _parse_head(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> Optional[Atom]:
    if isinstance(e, _Sym) and e.text == "false":
        return None
    return _parse_atom(e, binders, ctor_sorts)


def _parse_literal(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> Literal:
    if isinstance(e, _SList) and e.items:
        if _is_sym(e.items[0], "="):
            if len(e.items) != 3:
                raise ParseError("= takes two terms", e.span)
            return Eq(
                _parse_term(e.items[1], binders, ctor_sorts),
                _parse_term(e.items[2], binders, ctor_sorts),
            )
        if _is_sym(e.items[0], "distinct"):
            if len(e.items) != 3:
                raise ParseError("distinct takes two terms", e.span)
            return Diseq(
                _parse_term(e.items[1], binders, ctor_sorts),
                _parse_term(e.items[2], binders, ctor_sorts),
            )
        if _is_sym(e.items[0], "not"):
            if len(e.items) != 2:
                raise ParseError("not takes one equation", e.span)
            inner = e.items[1]
            if (
                isinstance(inner, _SList)
                and inner.items
                and _is_sym(inner.items[0], "=")
                and len(inner.items) == 3
            ):
                return Diseq(
                    _parse_term(inner.items[1], binders, ctor_sorts),
                    _parse_term(inner.items[2], binders, ctor_sorts),
                )
            raise ParseError("only (not (= t1 t2)) is supported", e.span)
    return _parse_atom(e, binders, ctor_sorts)


def _parse_atom(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> Atom:
    if isinstance(e, _Sym):
        raise ParseError(
            "expected a predicate application, got %s" % e.text, e.span
        )
    if not e.items:
        raise ParseError("expected a predicate application", e.span)
    name = _expect_sym(e.items[0], "a predicate name")
    if name.text in ("=", "distinct", "not", "and", "or", "=>", "forall"):
        raise ParseError("%s is not allowed here" % name.text, name.span)
    args = tuple(_parse_term(t, binders, ctor_sorts) for t in e.items[1:])
    return Atom(name.text, args)


def _parse_term(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> Term:
    if isinstance(e, _Sym):
        if e.text in binders:
            return Var(e.text, binders[e.text])
        if e.text in ctor_sorts:
            return App(e.text)
        raise ParseError(
            "unbound symbol %s (variables must be bound by forall)" % e.text,
            e.span,
        )
    if not e.items:
        raise ParseError("expected a term", e.span)
    name = _expect_sym(e.items[0], "a constructor name")
    if name.text in binders:
        raise ParseError("variable %s cannot take arguments" % name.text, name.span)
    if name.text not in ctor_sorts:
        raise ParseError("unknown constructor %s" % name.text, name.span)
    args = tuple(_parse_term(t, binders, ctor_sorts) for t in e.items[1:])
    return App(name.text, args)


def _is_sym(e: _SExpr, text: str) -> bool:
    return isinstance(e, _Sym) and e.text == text


# ---------------------------------------------------------------------------
# Printing


def print_problem(problem: Problem) -> str:
    """Inverse of parse_problem up to whitespace: parsing the output yields
    a structurally equal Problem, names included."""
    lines: List[str] = []
    if problem.sorts:
        names = " ".join("(%s 0)" % s.name for s in problem.sorts)
        bodies = []
        for s in problem.sorts:
            ctors = []
            for c in s.constructors:
                if not c.arg_sorts:
                    ctors.append("(%s)" % c.name)
                else:
                    sels = " ".join(
                        "(%s_%d %s)" % (c.name, i, a)
                        for i, a in enumerate(c.arg_sorts)
                    )
                    ctors.append("(%s %s)" % (c.name, sels))
            bodies.append("(%s)" % " ".join(ctors))
        lines.append(
            "(declare-datatypes (%s) (%s))" % (names, " ".join(bodies))
        )
    for p in problem.predicates:
        lines.append(
            "(declare-fun %s (%s) Bool)" % (p.name, " ".join(p.arg_sorts))
        )
    for clause in problem.clauses:
        lines.append("(assert %s)" % _print_clause(clause))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.ctor
    return "(%s %s)" % (t.ctor, " ".join(_print_term(a) for a in t.args))


def _print_literal(lit: Literal) -> str:
    if isinstance(lit, Atom):
        if not lit.args:
            return "(%s)" % lit.pred
        return "(%s %s)" % (lit.pred, " ".join(_print_term(a) for a in lit.args))
    if isinstance(lit, Eq):
        return "(= %s %s)" % (_print_term(lit.lhs), _print_term(lit.rhs))
    return "(distinct %s %s)" % (_print_term(lit.lhs), _print_term(lit.rhs))


def _print_clause(clause: Clause) -> str:
    variables = clause_vars(clause)
    head = "false" if clause.head is None else _print_literal(clause.head)
    if not clause.body and clause.head is not None and not variables:
        return _print_literal(clause.head)
    body = "(and %s)" % " ".join(_print_literal(l) for l in clause.body)
    if not clause.body:
        body = "(and)"
    inner = "(=> %s %s)" % (body, head)
    if not variables:
        return inner
    binders = " ".join("(%s %s)" % (v.name, v.sort) for v in variables)
    return "(forall (%s) %s)" % (binders, inner)
