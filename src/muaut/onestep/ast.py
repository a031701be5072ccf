"""Syntax of the monadic one-step languages.

Three dialects: plain monadic first-order logic (FO1), with equality (FOE1),
and with the infinity quantifiers (FOE1INF).  Only sentences are admitted at
the API surface; subformulas may have free variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple, Union

from ..syntax import Grammar, Node, infix, junction, stored, union

FO1 = "FO1"
FOE1 = "FOE1"
FOE1INF = "FOE1INF"
DIALECTS = (FO1, FOE1, FOE1INF)


class DialectError(ValueError):
    pass


class Facts(NamedTuple):
    """What a one-step formula node stores as its `facts`."""

    preds: frozenset[str]  # predicates occurring
    free: frozenset[str]  # free variables
    rank: int  # quantifier nesting depth, W counting as one level
    dialect: str  # smallest dialect containing the formula
    positive: bool  # no negated predicate (inequalities are allowed)
    sugar_free: bool  # no W
    # predicates B must miss for the formula, if positive, to be B-continuous:
    # those under A, Ainf or Einf and in the second component of a W (the
    # quantifiers of W and of its expansion do not count)
    discontinuous: frozenset[str]


class _OneStep(Node):
    def derive(self, kids: list[Facts]) -> Facts:
        match self:
            case Pred(a, x) | NegPred(a, x):
                return Facts(frozenset({a}), frozenset({x}), 0, FO1, type(self) is Pred, True, frozenset())
            case Eq(x, y) | Neq(x, y):
                return Facts(frozenset(), frozenset({x, y}), 0, FOE1, True, True, frozenset())
        preds, free, ranks, dialects, positive, sugar_free, discontinuous = zip(*kids) if kids else [()] * 7
        quantifier = isinstance(self, QUANTIFIERS)
        free = union(free)
        if quantifier and self.var in free:
            free -= {self.var}
        if isinstance(self, (Forall, ForallInf, ExistsInf)):
            discontinuous = preds
        elif isinstance(self, W):
            discontinuous = discontinuous[0], preds[1]
        elif type(self) is And and len(self.args) == 2 and (w := _match_expanded_w(self.args)):
            discontinuous = w[0].facts.discontinuous, w[1].facts.preds
        return Facts(union(preds), free, quantifier + max(ranks, default=0),
                     FOE1INF if isinstance(self, (ExistsInf, ForallInf, W))
                     else max(dialects, key=DIALECTS.index, default=FO1),
                     all(positive), all(sugar_free) and not isinstance(self, W), union(discontinuous))


def _match_expanded_w(args: tuple[Formula, ...]):
    """(f, g) when args are those of the expansion of W x.(f, g), that is
    Ax.(f | g) and Ainf x. g, up to the order of args and of f | g; else None."""
    for first, second in (args, args[::-1]):
        match (first, second):
            case (Forall(x1, Or(parts)), ForallInf(x2, cof)) if x1 == x2 and len(parts) == 2:
                if parts[1] == cof:
                    return parts[0], cof
                if parts[0] == cof:
                    return parts[1], cof
    return None


class Pred(_OneStep):
    name: str
    var: str
    notation = (None, "{name}({var})")


class NegPred(_OneStep):
    name: str
    var: str
    notation = (None, "!{name}({var})")


class Eq(_OneStep):
    left: str
    right: str
    notation = (None, "{left}={right}")


class Neq(_OneStep):
    left: str
    right: str
    notation = (None, "{left}!={right}")


class And(_OneStep):
    args: tuple["Formula", ...]
    subs = ("args",)
    notation = infix(" & ", 2, 1, "true")


class Or(_OneStep):
    args: tuple["Formula", ...]
    subs = ("args",)
    notation = infix(" | ", 1, 0, "false")


class Exists(_OneStep):
    var: str
    body: "Formula"
    subs = ("body",)
    notation = (0, "E {var}. ", ("body", 0))


class Forall(_OneStep):
    var: str
    body: "Formula"
    subs = ("body",)
    notation = (0, "A {var}. ", ("body", 0))


class ExistsInf(_OneStep):
    var: str
    body: "Formula"
    subs = ("body",)
    notation = (0, "Einf {var}. ", ("body", 0))


class ForallInf(_OneStep):
    var: str
    body: "Formula"
    subs = ("body",)
    notation = (0, "Ainf {var}. ", ("body", 0))


class W(_OneStep):
    """Sugar: W x.(f, g) abbreviates Ax.(f | g) & Ainf x. g."""

    var: str
    finite: "Formula"
    cofinite: "Formula"
    subs = ("finite", "cofinite")
    notation = (None, "W {var}.(", ("finite", 0), ", ", ("cofinite", 0), ")")


Formula = Union[Pred, NegPred, Eq, Neq, And, Or, Exists, Forall, ExistsInf, ForallInf, W]
QUANTIFIERS = (Exists, Forall, ExistsInf, ForallInf, W)

# quantifiers scope as far right as possible
GRAMMAR = Grammar(Formula.__args__)

TOP = And(())
BOT = Or(())


def conj(args: Iterable[Formula]) -> Formula:
    return junction(And, args, BOT)


def disj(args: Iterable[Formula]) -> Formula:
    return junction(Or, args, TOP)


def expand_sugar(f: Formula) -> Formula:
    """Rewrite every W node into its quantifier definition.  A formula with
    sugar keeps its expansion, so an interned formula is expanded once."""
    return f if f.facts.sugar_free else _expand(f)


@stored
def _expand(f: Formula) -> Formula:
    out = f.rebuild(expand_sugar)
    if isinstance(out, W):
        out = And((Forall(out.var, Or((out.finite, out.cofinite))), ForallInf(out.var, out.cofinite)))
    return out


# the stored facts of a formula (see Facts), read as functions
free_vars = attrgetter("facts.free")
predicates = attrgetter("facts.preds")
rank = attrgetter("facts.rank")
min_dialect = attrgetter("facts.dialect")
is_positive = attrgetter("facts.positive")


# each node class and the class of its boolean dual; Pred and NegPred are fixed
_DUAL = {Eq: Neq, Neq: Eq, And: Or, Or: And, Exists: Forall, Forall: Exists,
         ExistsInf: ForallInf, ForallInf: ExistsInf}


@stored
def dual(f: Formula) -> Formula:
    """Boolean dual: atoms fixed, the rest swapped pairwise; kept on f.

    W nodes are expanded first, so dual(dual(f)) is expand_sugar(f).
    """
    if isinstance(f, W):
        return dual(expand_sugar(f))
    return f.rebuild(dual, _DUAL.get(type(f)))


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


def parse_formula(text: str) -> Formula:
    return GRAMMAR.parse(text)


def parse(text: str, dialect: str | None = None, preds=None) -> OneStepFormula:
    return sentence(parse_formula(text), dialect, preds)


def sentence(ast: Formula, dialect: str | None = None, preds: Iterable[str] | None = None) -> OneStepFormula:
    """Wrap an AST as a sentence, inferring dialect and predicate set."""
    d = dialect or min_dialect(ast)
    ps = tuple(preds) if preds is not None else tuple(sorted(predicates(ast)))
    return OneStepFormula(d, ast, ps)


def type_atom(tp: Iterable[str], var: str) -> Formula:
    """Positive description of a type: the conjunction of its predicates."""
    return conj(Pred(a, var) for a in sorted(tp))


def rename_pred(f: Formula, mapping: dict[str, str]) -> Formula:
    """f with each predicate p in mapping renamed to mapping[p]."""
    return _renamed(f, tuple(sorted((p, mapping[p]) for p in predicates(f) if p in mapping)))


# memoized per (interned formula, renaming of its predicates): automata are
# renumbered entry by entry, and a stream of small automata repeats entries
@lru_cache(maxsize=512)
def _renamed(f: Formula, pairs: tuple[tuple[str, str], ...]) -> Formula:
    mapping = dict(pairs)

    def go(g: Formula) -> Formula:
        if mapping.keys().isdisjoint(predicates(g)):
            return g
        if isinstance(g, (Pred, NegPred)):
            return type(g)(mapping[g.name], g.var)
        return g.rebuild(go)

    return go(f)
