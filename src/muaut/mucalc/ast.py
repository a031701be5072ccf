"""Fixpoint formulas with one-step modalities.

The modality node carries a positive one-step sentence over the positional
predicate names a1..an, one per argument formula.  The plain modal diamond
and box are the one-argument instances with `E x. a1(x)` and `A x. a1(x)`.

Conventions enforced on the API surface: no letter is both free and bound,
bound letters are pairwise distinct, and bound letters occur only
positively under their binder.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .. import onestep as o


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class NegProp:
    name: str


@dataclass(frozen=True)
class MAnd:
    args: tuple["MuFormula", ...]


@dataclass(frozen=True)
class MOr:
    args: tuple["MuFormula", ...]


@dataclass(frozen=True)
class Modal:
    alpha: o.Formula
    args: tuple["MuFormula", ...]

    def pred_names(self) -> tuple[str, ...]:
        return tuple("a%d" % (i + 1) for i in range(len(self.args)))


@dataclass(frozen=True)
class Mu:
    var: str
    body: "MuFormula"


@dataclass(frozen=True)
class Nu:
    var: str
    body: "MuFormula"


MuFormula = Union[Prop, NegProp, MAnd, MOr, Modal, Mu, Nu]

MTOP = MAnd(())
MBOT = MOr(())


def dia(f: MuFormula) -> Modal:
    return Modal(o.Exists("x", o.Pred("a1", "x")), (f,))


def box(f: MuFormula) -> Modal:
    return Modal(o.Forall("x", o.Pred("a1", "x")), (f,))


def is_dia(f: MuFormula) -> bool:
    return isinstance(f, Modal) and len(f.args) == 1 and f.alpha == o.Exists("x", o.Pred("a1", "x"))


def is_box(f: MuFormula) -> bool:
    return isinstance(f, Modal) and len(f.args) == 1 and f.alpha == o.Forall("x", o.Pred("a1", "x"))


def mand(args: Iterable[MuFormula]) -> MuFormula:
    flat = []
    for a in args:
        if isinstance(a, MAnd):
            flat.extend(a.args)
        elif a == MBOT:
            return MBOT
        else:
            flat.append(a)
    return flat[0] if len(flat) == 1 else MAnd(tuple(flat))


def mor(args: Iterable[MuFormula]) -> MuFormula:
    flat = []
    for a in args:
        if isinstance(a, MOr):
            flat.extend(a.args)
        elif a == MTOP:
            return MTOP
        else:
            flat.append(a)
    return flat[0] if len(flat) == 1 else MOr(tuple(flat))


def free_letters(f: MuFormula) -> frozenset[str]:
    match f:
        case Prop(p) | NegProp(p):
            return frozenset({p})
        case MAnd(args) | MOr(args) | Modal(_, args):
            return frozenset().union(*[free_letters(a) for a in args]) if args else frozenset()
        case Mu(p, b) | Nu(p, b):
            return free_letters(b) - {p}
    raise TypeError(f)


def bound_letters(f: MuFormula) -> list[str]:
    match f:
        case Prop() | NegProp():
            return []
        case MAnd(args) | MOr(args) | Modal(_, args):
            out = []
            for a in args:
                out.extend(bound_letters(a))
            return out
        case Mu(p, b) | Nu(p, b):
            return [p] + bound_letters(b)
    raise TypeError(f)


def subformulas(f: MuFormula) -> list[MuFormula]:
    out = [f]
    match f:
        case MAnd(args) | MOr(args) | Modal(_, args):
            for a in args:
                out.extend(subformulas(a))
        case Mu(_, b) | Nu(_, b):
            out.extend(subformulas(b))
    return out


class IllFormedError(ValueError):
    pass


def check_wf(f: MuFormula) -> None:
    """Raise unless binder freshness and bound-positivity hold."""
    bound = bound_letters(f)
    if len(bound) != len(set(bound)):
        raise IllFormedError("bound letters not pairwise distinct: %r" % bound)
    free = free_letters(f)
    clash = free & set(bound)
    if clash:
        raise IllFormedError("letters both free and bound: %r" % sorted(clash))

    def neg_check(g: MuFormula, scoped: frozenset[str]):
        match g:
            case NegProp(p) if p in scoped:
                raise IllFormedError("bound letter %r occurs negated" % p)
            case MAnd(args) | MOr(args) | Modal(_, args):
                for a in args:
                    neg_check(a, scoped)
            case Mu(p, b) | Nu(p, b):
                neg_check(b, scoped | {p})
            case _:
                pass

    neg_check(f, frozenset())
    for g in subformulas(f):
        if isinstance(g, Modal):
            if not o.is_positive(g.alpha):
                raise IllFormedError("modality formula must be positive: %s" % o.pretty(g.alpha))
            names = set(g.pred_names())
            if not o.predicates(g.alpha) <= names:
                raise IllFormedError("modality mentions undeclared argument predicates")
            if o.free_vars(g.alpha):
                raise IllFormedError("modality formula must be a sentence")


def modal_dialect(f: MuFormula) -> str:
    """Smallest one-step dialect containing every modality."""
    best = o.FO1
    for g in subformulas(f):
        if isinstance(g, Modal):
            d = o.min_dialect(g.alpha)
            if o.DIALECTS.index(d) > o.DIALECTS.index(best):
                best = d
    return best


def _fresh_supply(used: set[str]):
    i = 0
    while True:
        i += 1
        name = "x%d" % i
        if name not in used:
            used.add(name)
            yield name


def refresh(f: MuFormula, reserved: Iterable[str] = ()) -> MuFormula:
    """Rename all bound letters to fresh pairwise-distinct names.

    Restores the binder conventions after substitution has duplicated
    subformulas.
    """
    used = set(free_letters(f)) | set(reserved)
    supply = _fresh_supply(used)

    def go(g: MuFormula, ren: dict[str, str]) -> MuFormula:
        match g:
            case Prop(p):
                return Prop(ren.get(p, p))
            case NegProp(p):
                return NegProp(ren.get(p, p))
            case MAnd(args):
                return MAnd(tuple(go(a, ren) for a in args))
            case MOr(args):
                return MOr(tuple(go(a, ren) for a in args))
            case Modal(alpha, args):
                return Modal(alpha, tuple(go(a, ren) for a in args))
            case Mu(p, b):
                q = next(supply)
                return Mu(q, go(b, {**ren, p: q}))
            case Nu(p, b):
                q = next(supply)
                return Nu(q, go(b, {**ren, p: q}))
        raise TypeError(g)

    return go(f, {})


def substitute(f: MuFormula, sigma: dict[str, MuFormula]) -> MuFormula:
    """Simultaneous substitution for free letters, capture-avoiding.

    The result is refreshed, so binder names are not preserved.
    """
    if not sigma:
        return f
    img_free = frozenset().union(*[free_letters(v) for v in sigma.values()])
    base = refresh(f, reserved=img_free | set(sigma))

    def go(g: MuFormula) -> MuFormula:
        match g:
            case Prop(p):
                return sigma.get(p, g)
            case NegProp(p):
                if p in sigma:
                    raise IllFormedError("cannot substitute under negation of %r" % p)
                return g
            case MAnd(args):
                return MAnd(tuple(go(a) for a in args))
            case MOr(args):
                return MOr(tuple(go(a) for a in args))
            case Modal(alpha, args):
                return Modal(alpha, tuple(go(a) for a in args))
            case Mu(p, b):
                return Mu(p, go(b))
            case Nu(p, b):
                return Nu(p, go(b))
        raise TypeError(g)

    return refresh(go(base), reserved=img_free)


def negate(f: MuFormula, flipped: frozenset[str] = frozenset()) -> MuFormula:
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
        case MAnd(args):
            return MOr(tuple(negate(a, flipped) for a in args))
        case MOr(args):
            return MAnd(tuple(negate(a, flipped) for a in args))
        case Modal(alpha, args):
            return Modal(o.dual(alpha), tuple(negate(a, flipped) for a in args))
        case Mu(p, b):
            return Nu(p, negate(b, flipped | {p}))
        case Nu(p, b):
            return Mu(p, negate(b, flipped | {p}))
    raise TypeError(f)


def simplify(f: MuFormula) -> MuFormula:
    """Boolean absorption plus removal of vacuous binders."""
    match f:
        case MAnd(args):
            return mand(simplify(a) for a in args)
        case MOr(args):
            return mor(simplify(a) for a in args)
        case Modal(alpha, args):
            return Modal(alpha, tuple(simplify(a) for a in args))
        case Mu(p, b):
            b = simplify(b)
            if p not in free_letters(b):
                return b
            return Mu(p, b)
        case Nu(p, b):
            b = simplify(b)
            if p not in free_letters(b):
                return b
            return Nu(p, b)
        case _:
            return f


def pretty(f: MuFormula, _level: int = 0) -> str:
    match f:
        case Prop(p):
            return p
        case NegProp(p):
            return "~" + p
        case MAnd(args):
            if not args:
                return "true"
            s = " & ".join(pretty(a, 2) for a in args)
            return "(" + s + ")" if _level > 1 else s
        case MOr(args):
            if not args:
                return "false"
            s = " | ".join(pretty(a, 1) for a in args)
            return "(" + s + ")" if _level > 0 else s
        case Modal(alpha, args):
            if is_dia(f):
                return "dia " + pretty(args[0], 3)
            if is_box(f):
                return "box " + pretty(args[0], 3)
            return "<%s>(%s)" % (o.pretty(alpha), ", ".join(pretty(a) for a in args))
        case Mu(p, b):
            s = "mu %s. %s" % (p, pretty(b))
            return "(" + s + ")" if _level > 0 else s
        case Nu(p, b):
            s = "nu %s. %s" % (p, pretty(b))
            return "(" + s + ")" if _level > 0 else s
    raise TypeError(f)


class MuParseError(ValueError):
    pass


_MU_TOKEN = re.compile(r"\s*(?:(?P<modal><[^>]*>)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()~&|.,]))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _MU_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise MuParseError("unexpected character %r at column %d" % (text[pos], pos + 1))
            break
        out.append(m.group("modal") or m.group("name") or m.group("op"))
        pos = m.end()
    return out


class _MuP:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        if self.i >= len(self.toks):
            raise MuParseError("unexpected end of input")
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise MuParseError("expected %r, found %r" % (expected, tok))
        self.i += 1
        return tok

    def formula(self):
        parts = [self.conjunct()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunct())
        return parts[0] if len(parts) == 1 else MOr(tuple(parts))

    def conjunct(self):
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else MAnd(tuple(parts))

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise MuParseError("unexpected end of input")
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "~":
            self.take()
            return NegProp(self.take())
        if tok in ("mu", "nu"):
            self.take()
            var = self.take()
            self.take(".")
            body = self.formula()
            return Mu(var, body) if tok == "mu" else Nu(var, body)
        if tok == "dia":
            self.take()
            return dia(self.unary())
        if tok == "box":
            self.take()
            return box(self.unary())
        if tok == "true":
            self.take()
            return MTOP
        if tok == "false":
            self.take()
            return MBOT
        if tok.startswith("<"):
            self.take()
            try:
                alpha = o.parse_formula(tok[1:-1])
            except o.ParseError as e:
                raise MuParseError("in modality: %s" % e) from None
            self.take("(")
            args = [self.formula()]
            while self.peek() == ",":
                self.take()
                args.append(self.formula())
            self.take(")")
            return Modal(alpha, tuple(args))
        return Prop(self.take())


def parse(text: str) -> MuFormula:
    """Parse and check a formula; nesting beyond the interpreter's recursion
    limit is a MuParseError, not a RecursionError."""
    p = _MuP(text)
    try:
        f = p.formula()
        if p.i != len(p.toks):
            raise MuParseError("trailing input %r" % p.peek())
        check_wf(f)
    except RecursionError:
        raise MuParseError("formula nesting too deep") from None
    return f
