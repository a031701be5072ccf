"""Parser for the concrete one-step syntax, over the shared `syntax.Cursor`.

Grammar: `E x. f`, `A x. f`, `Einf x. f`, `Ainf x. f`, `W x.(f, g)`,
`a(x)`, `!a(x)`, `x=y`, `x!=y`, `f & f`, `f | f`, `true`, `false`,
parentheses.  Quantifiers scope as far right as possible.
"""
from __future__ import annotations

from ..syntax import Cursor
from .ast import (And, Eq, Exists, ExistsInf, Forall, ForallInf, Formula, Neq,
                  NegPred, Or, Pred, W, OneStepFormula, sentence)

_QUANTIFIERS = {"E": Exists, "A": Forall, "Einf": ExistsInf, "Ainf": ForallInf}


def formula(c: Cursor) -> Formula:
    """The longest one-step formula at the cursor."""
    return c.infix(_atom, Or, And)


def _atom(c: Cursor) -> Formula:
    tok = c.peek()
    if tok == "(":
        c.enter()
        f = c.infix(_atom, Or, And)
        c.expect(")")
        return c.leave(f)
    if tok == "!":
        c.take()
        return NegPred(c.name(), *c.args(1))
    if tok == "true" or tok == "false":
        c.take()
        return And(()) if tok == "true" else Or(())
    if tok in _QUANTIFIERS:
        c.enter()
        var = c.name()
        c.expect(".")
        return c.leave(_QUANTIFIERS[tok](var, c.infix(_atom, Or, And)))
    if tok == "W":
        c.enter()
        var = c.name()
        c.expect(".")
        c.expect("(")
        fin = c.infix(_atom, Or, And)
        c.expect(",")
        cof = c.infix(_atom, Or, And)
        c.expect(")")
        return c.leave(W(var, fin, cof))
    # identifier: predicate application or (in)equality
    name = c.name()
    nxt = c.peek()
    if nxt == "(":
        return Pred(name, *c.args(1))
    if nxt == "=" or nxt == "!=":
        c.take()
        return (Eq if nxt == "=" else Neq)(name, c.name())
    raise c.error("dangling identifier %r" % name, back=1)


def parse_formula(text: str) -> Formula:
    c = Cursor(text)
    return c.end(formula(c))


def parse(text: str, dialect: str | None = None, preds=None) -> OneStepFormula:
    return sentence(parse_formula(text), dialect, preds)
