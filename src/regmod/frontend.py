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
Selectors are parsed and discarded: the solver never uses them.

A symbol is a run of ASCII letters, digits and ``~!@$%^&*_-+=<>.?/``;
whitespace is space, tab, CR and LF; `;` starts a comment that runs to the
end of the line.  The first unexpected character is reported before any
parenthesis or nesting error.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

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
    record,
)


@record
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


def _span(text: str, start: int, end: int) -> SourceSpan:
    """Only "\n" ends a line; every other character is one column."""
    return SourceSpan(
        start, end, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    )


class _Sym:
    __slots__ = ("text", "start", "end")

    def __init__(self, text: str, start: int, end: int):
        self.text, self.start, self.end = text, start, end


class _SList:
    __slots__ = ("items", "start", "end")

    def __init__(self, items: List["_SExpr"], start: int, end: int):
        self.items, self.start, self.end = items, start, end


_SExpr = Union[_SList, _Sym]


class _FormError(Exception):
    """A rejected form, placed in the text by parse_problem."""

    def __init__(self, message: str, at: _SExpr):
        super().__init__(message)
        self.message = message
        self.at = at


# One match per token, with the whitespace and comments before it.  Every
# alternative after the skipped prefix can match, so no match backtracks.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|;[^\n]*)*(?:(\()|(\))|([a-zA-Z0-9~!@$%^&*_\-+=<>.?/]+)|(.)|\Z)"
)


def _read_forms(text: str) -> List[_SExpr]:
    """The top-level s-expressions of text.  The first unexpected character
    is reported before any parenthesis or nesting error."""
    forms: List[_SExpr] = []
    items = forms
    stack: List[Tuple[List[_SExpr], int]] = []
    tokens = _TOKEN.finditer(text)
    for m in tokens:
        kind = m.lastindex
        if kind == 3:
            end = m.end()
            sym = m[3]
            items.append(_Sym(sym, end - len(sym), end))
        elif kind == 1:
            if len(stack) == MAX_NESTING:
                error = "nesting deeper than %d levels" % MAX_NESTING, m.start(1)
                break
            stack.append((items, m.start(1)))
            items = []
        elif kind == 2:
            if not stack:
                error = "unmatched closing parenthesis", m.start(2)
                break
            parent, start = stack.pop()
            parent.append(_SList(items, start, m.end()))
            items = parent
        elif kind == 4:
            raise _unexpected(text, m)
        elif not stack:
            return forms
        else:
            error = "unclosed parenthesis", stack[-1][1]
            break
    for m in tokens:
        if m.lastindex == 4:
            raise _unexpected(text, m)
    message, at = error
    raise ParseError(message, _span(text, at, at + 1))


def _unexpected(text: str, m: "re.Match[str]") -> ParseError:
    at = m.start(4)
    return ParseError("unexpected character %r" % m[4], _span(text, at, at + 1))


def _expect_sym(e: _SExpr, what: str) -> _Sym:
    if not isinstance(e, _Sym):
        raise _FormError("expected %s" % what, e)
    return e


def _expect_list(e: _SExpr, what: str) -> _SList:
    if not isinstance(e, _SList):
        raise _FormError("expected %s" % what, e)
    return e


def parse_problem(text: str) -> Problem:
    """Parses the subset above; every rejection carries a source span.
    Structural sort checking beyond name resolution is left to validate."""
    forms = _read_forms(text)
    try:
        return _problem(forms)
    except _FormError as e:
        raise ParseError(e.message, _span(text, e.at.start, e.at.end)) from None


def _problem(forms: List[_SExpr]) -> Problem:
    sorts: List[SortDecl] = []
    predicates: List[PredicateDecl] = []
    ctor_sorts: Dict[str, str] = {}

    # First pass: declarations, so clauses can tell constructors from
    # variables regardless of form order.
    for form in forms:
        if not isinstance(form, _SList) or not form.items:
            raise _FormError("expected a top-level form", form)
        head = _expect_sym(form.items[0], "a form name")
        if head.text == "declare-datatypes":
            _parse_datatypes(form, sorts, ctor_sorts)
        elif head.text == "declare-fun":
            predicates.append(_parse_declare_fun(form))
        elif head.text in ("assert", "check-sat"):
            continue
        else:
            raise _FormError("unsupported form %s" % head.text, head)

    clauses: List[Clause] = []
    for form in forms:
        assert isinstance(form, _SList)
        head = _expect_sym(form.items[0], "a form name")
        if head.text == "assert":
            if len(form.items) != 2:
                raise _FormError("assert takes exactly one clause", form)
            clauses.append(_parse_clause(form.items[1], ctor_sorts))
        elif head.text == "check-sat":
            if len(form.items) != 1:
                raise _FormError("check-sat takes no arguments", form)

    return Problem(tuple(sorts), tuple(predicates), tuple(clauses))


def _parse_datatypes(
    form: _SList, sorts: List[SortDecl], ctor_sorts: Dict[str, str]
) -> None:
    if len(form.items) != 3:
        raise _FormError(
            "declare-datatypes takes a sort list and a constructor list",
            form,
        )
    names = _expect_list(form.items[1], "a sort declaration list")
    bodies = _expect_list(form.items[2], "a constructor list per sort")
    if len(names.items) != len(bodies.items):
        raise _FormError(
            "declared %d sorts but %d constructor lists"
            % (len(names.items), len(bodies.items)),
            form,
        )
    for name_entry, body in zip(names.items, bodies.items):
        entry = _expect_list(name_entry, "a (name arity) pair")
        if len(entry.items) != 2:
            raise _FormError("expected (name arity)", entry)
        sort_name = _expect_sym(entry.items[0], "a sort name")
        arity = _expect_sym(entry.items[1], "an arity")
        if arity.text != "0":
            raise _FormError("parametric datatypes are not supported", arity)
        ctors: List[Constructor] = []
        for centry in _expect_list(body, "a constructor list").items:
            if isinstance(centry, _Sym):
                # Bare symbol allowed for constant constructors.
                ctors.append(Constructor(centry.text))
                ctor_sorts[centry.text] = sort_name.text
                continue
            if not centry.items:
                raise _FormError("empty constructor declaration", centry)
            cname = _expect_sym(centry.items[0], "a constructor name")
            args: List[str] = []
            for sel in centry.items[1:]:
                sel_list = _expect_list(sel, "a (selector sort) pair")
                if len(sel_list.items) != 2:
                    raise _FormError("expected (selector sort)", sel_list)
                _expect_sym(sel_list.items[0], "a selector name")
                args.append(_expect_sym(sel_list.items[1], "a sort name").text)
            ctors.append(Constructor(cname.text, tuple(args)))
            ctor_sorts[cname.text] = sort_name.text
        sorts.append(SortDecl(sort_name.text, tuple(ctors)))


def _parse_declare_fun(form: _SList) -> PredicateDecl:
    if len(form.items) != 4:
        raise _FormError(
            "declare-fun takes a name, an argument list and a result sort",
            form,
        )
    name = _expect_sym(form.items[1], "a predicate name")
    args = _expect_list(form.items[2], "an argument sort list")
    result = _expect_sym(form.items[3], "the result sort")
    if result.text != "Bool":
        raise _FormError("predicates must return Bool, got %s" % result.text, result)
    arg_sorts = tuple(
        _expect_sym(a, "a sort name").text for a in args.items
    )
    return PredicateDecl(name.text, arg_sorts)


def _parse_clause(e: _SExpr, ctor_sorts: Dict[str, str]) -> Clause:
    binders: Dict[str, str] = {}
    body = e
    if isinstance(e, _SList) and e.items and _is_sym(e.items[0], "forall"):
        if len(e.items) != 3:
            raise _FormError("forall takes binders and a body", e)
        for b in _expect_list(e.items[1], "a binder list").items:
            pair = _expect_list(b, "a (variable sort) binder")
            if len(pair.items) != 2:
                raise _FormError("expected (variable sort)", pair)
            vname = _expect_sym(pair.items[0], "a variable name")
            vsort = _expect_sym(pair.items[1], "a sort name")
            if vname.text in binders:
                raise _FormError("duplicate binder %s" % vname.text, vname)
            binders[vname.text] = vsort.text
        body = e.items[2]

    if isinstance(body, _SList) and body.items and _is_sym(body.items[0], "=>"):
        if len(body.items) != 3:
            raise _FormError("=> takes a body and a head", body)
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
                raise _FormError("= takes two terms", e)
            return Eq(
                _parse_term(e.items[1], binders, ctor_sorts),
                _parse_term(e.items[2], binders, ctor_sorts),
            )
        if _is_sym(e.items[0], "distinct"):
            if len(e.items) != 3:
                raise _FormError("distinct takes two terms", e)
            return Diseq(
                _parse_term(e.items[1], binders, ctor_sorts),
                _parse_term(e.items[2], binders, ctor_sorts),
            )
        if _is_sym(e.items[0], "not"):
            if len(e.items) != 2:
                raise _FormError("not takes one equation", e)
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
            raise _FormError("only (not (= t1 t2)) is supported", e)
    return _parse_atom(e, binders, ctor_sorts)


def _parse_atom(
    e: _SExpr, binders: Dict[str, str], ctor_sorts: Dict[str, str]
) -> Atom:
    if isinstance(e, _Sym):
        raise _FormError(
            "expected a predicate application, got %s" % e.text, e
        )
    if not e.items:
        raise _FormError("expected a predicate application", e)
    name = _expect_sym(e.items[0], "a predicate name")
    if name.text in ("=", "distinct", "not", "and", "or", "=>", "forall"):
        raise _FormError("%s is not allowed here" % name.text, name)
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
        raise _FormError(
            "unbound symbol %s (variables must be bound by forall)" % e.text,
            e,
        )
    if not e.items:
        raise _FormError("expected a term", e)
    name = _expect_sym(e.items[0], "a constructor name")
    if name.text in binders:
        raise _FormError("variable %s cannot take arguments" % name.text, name)
    if name.text not in ctor_sorts:
        raise _FormError("unknown constructor %s" % name.text, name)
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
