"""Syntax of the monadic one-step languages.

Three dialects: plain monadic first-order logic (FO1), with equality (FOE1),
and with the infinity quantifiers (FOE1INF).  Only sentences are admitted at
the API surface; subformulas may have free variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

FO1 = "FO1"
FOE1 = "FOE1"
FOE1INF = "FOE1INF"
DIALECTS = (FO1, FOE1, FOE1INF)


class DialectError(ValueError):
    pass


@dataclass(frozen=True)
class Pred:
    name: str
    var: str


@dataclass(frozen=True)
class NegPred:
    name: str
    var: str


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Neq:
    left: str
    right: str


@dataclass(frozen=True)
class And:
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsInf:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ForallInf:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class W:
    """Sugar: W x.(f, g) abbreviates Ax.(f | g) & Ainf x. g."""

    var: str
    finite: "Formula"
    cofinite: "Formula"


Formula = Union[Pred, NegPred, Eq, Neq, And, Or, Exists, Forall, ExistsInf, ForallInf, W]

TOP = And(())
BOT = Or(())


def conj(args: Iterable[Formula]) -> Formula:
    args = tuple(args)
    flat = []
    for a in args:
        if isinstance(a, And):
            flat.extend(a.args)
        elif a == BOT:
            return BOT
        else:
            flat.append(a)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(args: Iterable[Formula]) -> Formula:
    args = tuple(args)
    flat = []
    for a in args:
        if isinstance(a, Or):
            flat.extend(a.args)
        elif a == TOP:
            return TOP
        else:
            flat.append(a)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def expand_sugar(f: Formula) -> Formula:
    """Rewrite every W node into its quantifier definition."""
    match f:
        case W(x, fin, cof):
            fin, cof = expand_sugar(fin), expand_sugar(cof)
            return And((Forall(x, Or((fin, cof))), ForallInf(x, cof)))
        case And(args):
            return And(tuple(expand_sugar(a) for a in args))
        case Or(args):
            return Or(tuple(expand_sugar(a) for a in args))
        case Exists(x, b):
            return Exists(x, expand_sugar(b))
        case Forall(x, b):
            return Forall(x, expand_sugar(b))
        case ExistsInf(x, b):
            return ExistsInf(x, expand_sugar(b))
        case ForallInf(x, b):
            return ForallInf(x, expand_sugar(b))
        case _:
            return f


def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case Pred(_, x) | NegPred(_, x):
            return frozenset({x})
        case Eq(x, y) | Neq(x, y):
            return frozenset({x, y})
        case And(args) | Or(args):
            return frozenset().union(*[free_vars(a) for a in args]) if args else frozenset()
        case Exists(x, b) | Forall(x, b) | ExistsInf(x, b) | ForallInf(x, b):
            return free_vars(b) - {x}
        case W(x, fin, cof):
            return (free_vars(fin) | free_vars(cof)) - {x}
    raise TypeError(f)


def predicates(f: Formula) -> frozenset[str]:
    match f:
        case Pred(a, _) | NegPred(a, _):
            return frozenset({a})
        case Eq() | Neq():
            return frozenset()
        case And(args) | Or(args):
            return frozenset().union(*[predicates(a) for a in args]) if args else frozenset()
        case Exists(_, b) | Forall(_, b) | ExistsInf(_, b) | ForallInf(_, b):
            return predicates(b)
        case W(_, fin, cof):
            return predicates(fin) | predicates(cof)
    raise TypeError(f)


def rank(f: Formula) -> int:
    """Quantifier nesting depth (W counts as one quantifier level)."""
    match f:
        case Pred() | NegPred() | Eq() | Neq():
            return 0
        case And(args) | Or(args):
            return max((rank(a) for a in args), default=0)
        case Exists(_, b) | Forall(_, b) | ExistsInf(_, b) | ForallInf(_, b):
            return 1 + rank(b)
        case W(_, fin, cof):
            return 1 + max(rank(fin), rank(cof))
    raise TypeError(f)


def min_dialect(f: Formula) -> str:
    """Smallest dialect containing f."""
    match f:
        case Pred() | NegPred():
            return FO1
        case Eq() | Neq():
            return FOE1
        case And(args) | Or(args):
            best = FO1
            for a in args:
                d = min_dialect(a)
                if DIALECTS.index(d) > DIALECTS.index(best):
                    best = d
            return best
        case Exists(_, b) | Forall(_, b):
            return min_dialect(b)
        case ExistsInf() | ForallInf() | W():
            return FOE1INF
    raise TypeError(f)


def is_positive(f: Formula) -> bool:
    """No negated predicates anywhere (inequalities are allowed)."""
    match f:
        case NegPred():
            return False
        case Pred() | Eq() | Neq():
            return True
        case And(args) | Or(args):
            return all(is_positive(a) for a in args)
        case Exists(_, b) | Forall(_, b) | ExistsInf(_, b) | ForallInf(_, b):
            return is_positive(b)
        case W(_, fin, cof):
            return is_positive(fin) and is_positive(cof)
    raise TypeError(f)


def dual(f: Formula) -> Formula:
    """Boolean dual: atoms fixed, the rest swapped pairwise.

    W nodes are expanded first, so dual(dual(f)) == f holds structurally
    for sugar-free formulas only.
    """
    match f:
        case Pred() | NegPred():
            return f
        case Eq(x, y):
            return Neq(x, y)
        case Neq(x, y):
            return Eq(x, y)
        case And(args):
            return Or(tuple(dual(a) for a in args))
        case Or(args):
            return And(tuple(dual(a) for a in args))
        case Exists(x, b):
            return Forall(x, dual(b))
        case Forall(x, b):
            return Exists(x, dual(b))
        case ExistsInf(x, b):
            return ForallInf(x, dual(b))
        case ForallInf(x, b):
            return ExistsInf(x, dual(b))
        case W():
            return dual(expand_sugar(f))
    raise TypeError(f)


@dataclass(frozen=True)
class OneStepFormula:
    """A sentence of one of the three dialects over a fixed predicate set."""

    dialect: str
    ast: Formula
    preds: tuple[str, ...]

    def __post_init__(self):
        if self.dialect not in DIALECTS:
            raise DialectError("unknown dialect %r" % self.dialect)
        need = min_dialect(self.ast)
        if DIALECTS.index(need) > DIALECTS.index(self.dialect):
            raise DialectError("%s syntax not allowed in %s" % (need, self.dialect))
        if free_vars(self.ast):
            raise ValueError("free variables at top level: %r" % sorted(free_vars(self.ast)))
        missing = predicates(self.ast) - set(self.preds)
        if missing:
            raise ValueError("undeclared predicates: %r" % sorted(missing))


def sentence(ast: Formula, dialect: str | None = None, preds: Iterable[str] | None = None) -> OneStepFormula:
    """Wrap an AST as a sentence, inferring dialect and predicate set."""
    d = dialect or min_dialect(ast)
    ps = tuple(preds) if preds is not None else tuple(sorted(predicates(ast)))
    return OneStepFormula(d, ast, ps)


def type_atom(tp: Iterable[str], var: str) -> Formula:
    """Positive description of a type: the conjunction of its predicates."""
    return conj(Pred(a, var) for a in sorted(tp))


_PREC = {"or": 0, "and": 1}


def pretty(f: Formula, _level: int = 0) -> str:
    """Concrete syntax accepted back by the parser."""
    match f:
        case Pred(a, x):
            return "%s(%s)" % (a, x)
        case NegPred(a, x):
            return "!%s(%s)" % (a, x)
        case Eq(x, y):
            return "%s=%s" % (x, y)
        case Neq(x, y):
            return "%s!=%s" % (x, y)
        case And(args):
            if not args:
                return "true"
            s = " & ".join(pretty(a, 2) for a in args)
            return "(" + s + ")" if _level > 1 else s
        case Or(args):
            if not args:
                return "false"
            s = " | ".join(pretty(a, 1) for a in args)
            return "(" + s + ")" if _level > 0 else s
        case Exists(x, b):
            s = "E %s. %s" % (x, pretty(b))
            return "(" + s + ")" if _level > 0 else s
        case Forall(x, b):
            s = "A %s. %s" % (x, pretty(b))
            return "(" + s + ")" if _level > 0 else s
        case ExistsInf(x, b):
            s = "Einf %s. %s" % (x, pretty(b))
            return "(" + s + ")" if _level > 0 else s
        case ForallInf(x, b):
            s = "Ainf %s. %s" % (x, pretty(b))
            return "(" + s + ")" if _level > 0 else s
        case W(x, fin, cof):
            return "W %s.(%s, %s)" % (x, pretty(fin), pretty(cof))
    raise TypeError(f)


def rename_pred(f: Formula, mapping: dict[str, str]) -> Formula:
    match f:
        case Pred(a, x):
            return Pred(mapping.get(a, a), x)
        case NegPred(a, x):
            return NegPred(mapping.get(a, a), x)
        case Eq() | Neq():
            return f
        case And(args):
            return And(tuple(rename_pred(a, mapping) for a in args))
        case Or(args):
            return Or(tuple(rename_pred(a, mapping) for a in args))
        case Exists(x, b):
            return Exists(x, rename_pred(b, mapping))
        case Forall(x, b):
            return Forall(x, rename_pred(b, mapping))
        case ExistsInf(x, b):
            return ExistsInf(x, rename_pred(b, mapping))
        case ForallInf(x, b):
            return ForallInf(x, rename_pred(b, mapping))
        case W(x, fin, cof):
            return W(x, rename_pred(fin, mapping), rename_pred(cof, mapping))
    raise TypeError(f)
