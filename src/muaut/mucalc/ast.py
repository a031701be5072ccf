"""Fixpoint formulas with one-step modalities.

The modality node carries a positive one-step sentence over the positional
predicate names a1..an, one per argument formula.  The plain modal diamond
and box are the one-argument instances with `E x. a1(x)` and `A x. a1(x)`.

Conventions enforced on the API surface: no letter is both free and bound,
each bound letter names one binder node, which may occur many times in the
formula's DAG, and bound letters occur only positively under their binder.
"""
from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import Iterable, Union

from .. import onestep as o
from ..syntax import Grammar, Node, choice, each, infix, junction, rebuilt, scoped, stored


class Prop(Node):
    name: str
    notation = (None, "{name}")


class NegProp(Node):
    name: str
    notation = (None, "~{name}")


class MAnd(Node):
    args: tuple["MuFormula", ...]
    subs = ("args",)
    notation = infix(" & ", 2, 1, "true")


class MOr(Node):
    args: tuple["MuFormula", ...]
    subs = ("args",)
    notation = infix(" | ", 1, 0, "false")


class Modal(Node):
    """The one-step sentence alpha is of another syntax, so only the
    arguments are subformulas."""

    alpha: o.Formula
    args: tuple["MuFormula", ...]
    subs = ("args",)
    notation = choice((None, "<", ("alpha", 0), ">(", ("args", 0, ", "), ")"),
                      (lambda f: is_dia(f), (None, "dia ", ("args", 3)), lambda cls, f: dia(f)),
                      (lambda f: is_box(f), (None, "box ", ("args", 3)), lambda cls, f: box(f)))

    def pred_names(self) -> tuple[str, ...]:
        return arg_names(len(self.args))


def arg_names(n: int) -> tuple[str, ...]:
    """a1, ..., an: the predicates by which a modality's one-step sentence
    names its n arguments, in order."""
    return tuple("a%d" % (i + 1) for i in range(n))


class Mu(Node):
    var: str
    body: "MuFormula"
    subs = ("body",)
    notation = (0, "mu {var}. ", ("body", 0))


class Nu(Node):
    var: str
    body: "MuFormula"
    subs = ("body",)
    notation = (0, "nu {var}. ", ("body", 0))


MuFormula = Union[Prop, NegProp, MAnd, MOr, Modal, Mu, Nu]

MTOP = MAnd(())
MBOT = MOr(())


_DIA = o.Exists("x", o.Pred(arg_names(1)[0], "x"))
_BOX = o.Forall("x", o.Pred(arg_names(1)[0], "x"))


def dia(f: MuFormula) -> Modal:
    return Modal(_DIA, (f,))


def box(f: MuFormula) -> Modal:
    return Modal(_BOX, (f,))


def is_dia(f: MuFormula) -> bool:
    return isinstance(f, Modal) and len(f.args) == 1 and f.alpha is _DIA


def is_box(f: MuFormula) -> bool:
    return isinstance(f, Modal) and len(f.args) == 1 and f.alpha is _BOX


def mand(args: Iterable[MuFormula]) -> MuFormula:
    return junction(MAnd, args, MBOT)


def mor(args: Iterable[MuFormula]) -> MuFormula:
    return junction(MOr, args, MTOP)


free_letters = attrgetter("facts")  # stored on each node (see Node.derive)


def subformulas(f: MuFormula) -> list[MuFormula]:
    """f and its distinct subformulas, each once, in pre-order of first
    occurrence: a shared subformula is entered once."""
    seen, stack = {}, [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen[g] = None
            stack += reversed(g.children())
    return list(seen)


@stored
def has_binder(f: MuFormula) -> bool:
    """Does f contain a binder, f itself included?"""
    return isinstance(f, (Mu, Nu)) or any(map(has_binder, f.children()))


def binders(f: MuFormula) -> list[tuple[MuFormula, int]]:
    """Each binder node of f once, in pre-order of first occurrence, with the
    largest number of binders above any of its occurrences (the README shows
    why priorities read off it stay sound).  A node is entered again only
    when it is met deeper, and a binder-free one not at all."""
    depth, stack = {}, [(f, 0)]
    while stack:
        g, d = stack.pop()
        if depth.get(g, -1) < d:
            depth[g] = d
            d += isinstance(g, (Mu, Nu))
            stack += [(c, d) for c in reversed(g.children()) if has_binder(c)]
    return [(g, d) for g, d in depth.items() if isinstance(g, (Mu, Nu))]


class IllFormedError(ValueError):
    pass


def check_wf(f: MuFormula) -> None:
    """Raise unless each bound letter names one binder node, is never free and occurs positively."""
    subs = subformulas(f)
    bound = [g.var for g, _ in binders(f)]
    scoped = set(bound)
    if len(bound) != len(scoped):
        raise IllFormedError("bound letters not pairwise distinct: %r" % bound)
    clash = free_letters(f) & scoped
    if clash:
        raise IllFormedError("letters both free and bound: %r" % sorted(clash))
    # a bound letter has one binder node and is never free: it occurs under that node only
    negated = [g.name for g in subs if isinstance(g, NegProp) and g.name in scoped]
    if negated:
        raise IllFormedError("bound letter %r occurs negated" % negated[0])
    for g in subs:
        if isinstance(g, Modal):
            if not o.is_positive(g.alpha):
                raise IllFormedError("modality formula must be positive: %s" % o.pretty(g.alpha))
            if not o.predicates(g.alpha) <= set(g.pred_names()):
                raise IllFormedError("modality mentions undeclared argument predicates")
            if o.free_vars(g.alpha):
                raise IllFormedError("modality formula must be a sentence")


def modal_dialect(f: MuFormula) -> str:
    """Smallest one-step dialect containing every modality."""
    return max((o.min_dialect(g.alpha) for g in subformulas(f) if isinstance(g, Modal)),
               key=o.DIALECTS.index, default=o.FO1)


def refresh(f: MuFormula, reserved: Iterable[str] = (), sigma: dict | None = None) -> MuFormula:
    """Give each binder a fresh name and replace each free letter p in sigma
    by sigma[p], in one pre-order pass.  A binder node takes the next name
    x<i> outside `reserved` and the free letters of f not in sigma once per
    tuple of new names or images of its free letters, so a repeated binder
    keeps one name; an image has only its binders renamed.  A subformula with
    no binder and no renamed or replaced letter is kept as it is.
    """
    sigma = sigma or {}
    used = (free_letters(f) - sigma.keys()) | set(reserved)
    names = (q for q in map("x%d".__mod__, count(1)) if q not in used)

    def want(g: MuFormula, env: dict) -> tuple:  # g under the values of its own free letters
        return g, tuple((p, env[p]) for p in free_letters(g) if p in env)

    @scoped
    def go(g: MuFormula, scope: tuple) -> MuFormula:
        env = dict(scope)  # a bound letter's new name, a replaced letter's image
        if not env and not has_binder(g):
            return g
        match g:
            case Prop(p) | NegProp(p) if type(env[p]) is str:
                return type(g)(env[p])
            case Prop(p):
                return (yield env[p], ())
            case NegProp(p):
                raise IllFormedError("cannot substitute under negation of %r" % p)
            case Mu(p, b) | Nu(p, b):
                q = next(names)
                return type(g)(q, (yield want(b, {**env, p: q})))
        kids = iter((yield from each(want(c, env) for c in g.children())))
        return g.rebuild(lambda _: next(kids))

    return go(*want(f, sigma))


def substitute(f: MuFormula, sigma: dict[str, MuFormula]) -> MuFormula:
    """Simultaneous substitution for free letters, capture-avoiding.

    The result is refreshed, so binder names are not preserved.
    """
    if not sigma:
        return f
    return refresh(f, frozenset().union(*[free_letters(v) for v in sigma.values()]), sigma)


# each compound node class and how its negation is built from its fields, negated
_NEGATE = {MAnd: MOr, MOr: MAnd, Mu: Nu, Nu: Mu,
           Modal: lambda alpha, args: Modal(o.dual(alpha), args)}


@scoped
def negate(f: MuFormula, flipped: frozenset[str]) -> MuFormula:
    """Negation normal form of the complement.

    Letters in `flipped` are being replaced by their own negation while
    negating, so they stay positive; used for the dual fixpoint identity
    nu p.f == ~mu p.~f[~p/p].
    """
    match f:
        case Prop(p):
            return Prop(p) if p in flipped else NegProp(p)
        case NegProp(p):
            if p in flipped:
                raise IllFormedError("flipped letter %r occurs negated" % p)
            return Prop(p)
        case Mu(p, _) | Nu(p, _):
            flipped = flipped | {p}
    return (yield from rebuilt(f, flipped, _NEGATE[type(f)]))


@stored
def simplify(f: MuFormula) -> MuFormula:
    """Boolean absorption plus removal of vacuous binders."""
    match f:
        case MAnd(args):
            return mand(map(simplify, args))
        case MOr(args):
            return mor(map(simplify, args))
        case Mu(p, b) | Nu(p, b):
            b = simplify(b)
            return f.rebuild(lambda _: b) if p in free_letters(b) else b
    return f.rebuild(simplify)


# a modality's one-step sentence is read by the one-step grammar on the same cursor
GRAMMAR = Grammar(MuFormula.__args__, inner={"alpha": o.GRAMMAR})


def parse(text: str) -> MuFormula:
    """Parse and check a formula."""
    f = GRAMMAR.parse(text)
    check_wf(f)
    return f
