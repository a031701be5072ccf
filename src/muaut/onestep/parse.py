"""Parser for the concrete one-step syntax.

Grammar: `E x. f`, `A x. f`, `Einf x. f`, `Ainf x. f`, `W x.(f, g)`,
`a(x)`, `!a(x)`, `x=y`, `x!=y`, `f & f`, `f | f`, `true`, `false`,
parentheses.  Quantifiers scope as far right as possible.
"""
from __future__ import annotations

import re

from .ast import (And, Eq, Exists, ExistsInf, Forall, ForallInf, Formula, Neq,
                  NegPred, Or, Pred, W, OneStepFormula, sentence)


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__("%s (at column %d)" % (msg, pos + 1))
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>!=|[()!=&|.,]))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        out.append((m.group("name") or m.group("op"), m.start("name") if m.group("name") else m.start("op")))
        pos = m.end()
    return out


class _P:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else -1

    def take(self, expected=None):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", -1)
        tok, p = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r" % (expected, tok), p)
        self.i += 1
        return tok

    def formula(self) -> Formula:
        return self.disjunction()

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.atom()]
        while self.peek() == "&":
            self.take()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", -1)
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "!":
            self.take()
            name = self.take()
            self.take("(")
            var = self.take()
            self.take(")")
            return NegPred(name, var)
        if tok == "true":
            self.take()
            return And(())
        if tok == "false":
            self.take()
            return Or(())
        if tok in ("E", "A", "Einf", "Ainf"):
            self.take()
            var = self.take()
            self.take(".")
            body = self.formula()
            cls = {"E": Exists, "A": Forall, "Einf": ExistsInf, "Ainf": ForallInf}[tok]
            return cls(var, body)
        if tok == "W":
            self.take()
            var = self.take()
            self.take(".")
            self.take("(")
            fin = self.formula()
            self.take(",")
            cof = self.formula()
            self.take(")")
            return W(var, fin, cof)
        # identifier: predicate application or (in)equality
        name = self.take()
        nxt = self.peek()
        if nxt == "(":
            self.take()
            var = self.take()
            self.take(")")
            return Pred(name, var)
        if nxt == "=":
            self.take()
            return Eq(name, self.take())
        if nxt == "!=":
            self.take()
            return Neq(name, self.take())
        raise ParseError("dangling identifier %r" % name, self.pos())


def parse_formula(text: str) -> Formula:
    """Parse a formula; nesting beyond the interpreter's recursion limit is a
    ParseError, not a RecursionError."""
    p = _P(text)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("formula nesting too deep", p.pos()) from None
    if p.i != len(p.toks):
        raise ParseError("trailing input %r" % p.peek(), p.pos())
    return f


def parse(text: str, dialect: str | None = None, preds=None) -> OneStepFormula:
    return sentence(parse_formula(text), dialect, preds)
