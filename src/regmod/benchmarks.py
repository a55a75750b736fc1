"""Generated problem families for scaling experiments.

The member/rev family: lists over k element constants with membership,
non-membership (via syntactic disequality) and accumulator-based reversal,
plus two goals stating that member and notMember exclude each other, both
directly and across a reversal.  Satisfiable for every k; the natural
model tracks the set of elements occurring in a list, so the expected
state demand grows as 2^k on the list sort.
"""

from __future__ import annotations

from .core import (
    App,
    Atom,
    Clause,
    Constructor,
    Diseq,
    PredicateDecl,
    Problem,
    SortDecl,
    Var,
)


def gen_member_rev(k: int) -> Problem:
    """Membership and reversal over lists of k distinct constants."""
    if k < 1:
        raise ValueError("need at least one element constant, got %d" % k)
    x = Var("x", "elt")
    y = Var("y", "elt")
    l = Var("l", "list")
    a = Var("a", "list")
    r = Var("r", "list")

    def cons(h, t):
        return App("cons", (h, t))

    nil = App("nil")
    sorts = (
        SortDecl("elt", tuple(Constructor("e%d" % i) for i in range(1, k + 1))),
        SortDecl("list", (Constructor("nil"), Constructor("cons", ("elt", "list")))),
    )
    preds = (
        PredicateDecl("member", ("elt", "list")),
        PredicateDecl("notMember", ("elt", "list")),
        PredicateDecl("revAcc", ("list", "list", "list")),
        PredicateDecl("rev", ("list", "list")),
    )
    clauses = (
        Clause(Atom("member", (x, cons(x, l))), ()),
        Clause(Atom("member", (x, cons(y, l))), (Atom("member", (x, l)),)),
        Clause(Atom("notMember", (x, nil)), ()),
        Clause(
            Atom("notMember", (x, cons(y, l))),
            (Diseq(x, y), Atom("notMember", (x, l))),
        ),
        Clause(Atom("revAcc", (nil, a, a)), ()),
        Clause(
            Atom("revAcc", (cons(x, l), a, r)),
            (Atom("revAcc", (l, cons(x, a), r)),),
        ),
        Clause(Atom("rev", (l, r)), (Atom("revAcc", (l, nil, r)),)),
        Clause(None, (Atom("member", (x, l)), Atom("notMember", (x, l)))),
        Clause(
            None,
            (
                Atom("member", (x, l)),
                Atom("rev", (l, r)),
                Atom("notMember", (x, r)),
            ),
        ),
    )
    return Problem(sorts, preds, clauses)


GENERATORS = {"member-rev": gen_member_rev}
