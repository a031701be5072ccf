"""Monadic second-order syntax, one-sorted and two-sorted.

Second-order quantifiers carry a mode: standard (all subsets), finite, or
noetherian; a logic instance uses one mode uniformly.  The minimal
connective set matches the grammars (negation, disjunction, existentials);
conjunction, implication and universals are provided as derived builders.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Union

from ..syntax import Cursor, ParseError

STANDARD = "standard"
FINITE = "finite"
NOETHERIAN = "noetherian"
MODES = (STANDARD, FINITE, NOETHERIAN)

LOGIC_MODE = {"smso": STANDARD, "wmso": FINITE, "nmso": NOETHERIAN}


# --- one-sorted -----------------------------------------------------------

@dataclass(frozen=True)
class Down:
    """The letter holds exactly at the distinguished state."""
    p: str


@dataclass(frozen=True)
class SubsetOf:
    left: str
    right: str


@dataclass(frozen=True)
class RelStep:
    """Every left-state has an edge to some right-state."""
    left: str
    right: str


@dataclass(frozen=True)
class Not1:
    body: "Mso1"


@dataclass(frozen=True)
class Or1:
    left: "Mso1"
    right: "Mso1"


@dataclass(frozen=True)
class Exists1:
    var: str
    body: "Mso1"
    mode: str


Mso1 = Union[Down, SubsetOf, RelStep, Not1, Or1, Exists1]


def free_letters1(f: Mso1) -> frozenset[str]:
    match f:
        case Down(p):
            return frozenset({p})
        case SubsetOf(a, b) | RelStep(a, b):
            return frozenset({a, b})
        case Not1(b):
            return free_letters1(b)
        case Or1(a, b):
            return free_letters1(a) | free_letters1(b)
        case Exists1(v, b, _):
            return free_letters1(b) - {v}
    raise TypeError(f)


def pretty1(f: Mso1, _level: int = 0) -> str:
    match f:
        case Down(p):
            return "down %s" % p
        case SubsetOf(a, b):
            return "%s sub %s" % (a, b)
        case RelStep(a, b):
            return "Rel(%s,%s)" % (a, b)
        case Not1(b):
            return "~" + pretty1(b, 2)
        case Or1(a, b):
            s = "%s | %s" % (pretty1(a, 1), pretty1(b, 0))
            return "(" + s + ")" if _level > 0 else s
        case Exists1(v, b, _):
            s = "ex %s. %s" % (v, pretty1(b, 0))
            return "(" + s + ")" if _level > 0 else s
    raise TypeError(f)


# --- two-sorted -----------------------------------------------------------

@dataclass(frozen=True)
class PredApp:
    p: str
    x: str


@dataclass(frozen=True)
class RelApp:
    x: str
    y: str


@dataclass(frozen=True)
class EqVar:
    x: str
    y: str


@dataclass(frozen=True)
class Not2:
    body: "Mso2"


@dataclass(frozen=True)
class Or2:
    left: "Mso2"
    right: "Mso2"


@dataclass(frozen=True)
class ExistsVar:
    var: str
    body: "Mso2"


@dataclass(frozen=True)
class ExistsSet:
    var: str
    body: "Mso2"
    mode: str


Mso2 = Union[PredApp, RelApp, EqVar, Not2, Or2, ExistsVar, ExistsSet]


def and2(a: Mso2, b: Mso2) -> Mso2:
    return Not2(Or2(Not2(a), Not2(b)))


def implies2(a: Mso2, b: Mso2) -> Mso2:
    return Or2(Not2(a), b)


def forall_var(x: str, body: Mso2) -> Mso2:
    return Not2(ExistsVar(x, Not2(body)))


def forall_set(p: str, body: Mso2, mode: str) -> Mso2:
    return Not2(ExistsSet(p, Not2(body), mode))


def conj2(parts) -> Mso2:
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = and2(out, p)
    return out


def free_ivars(f: Mso2) -> frozenset[str]:
    match f:
        case PredApp(_, x):
            return frozenset({x})
        case RelApp(x, y) | EqVar(x, y):
            return frozenset({x, y})
        case Not2(b):
            return free_ivars(b)
        case Or2(a, b):
            return free_ivars(a) | free_ivars(b)
        case ExistsVar(v, b):
            return free_ivars(b) - {v}
        case ExistsSet(_, b, _):
            return free_ivars(b)
    raise TypeError(f)


def free_setvars(f: Mso2) -> frozenset[str]:
    match f:
        case PredApp(p, _):
            return frozenset({p})
        case RelApp() | EqVar():
            return frozenset()
        case Not2(b):
            return free_setvars(b)
        case Or2(a, b):
            return free_setvars(a) | free_setvars(b)
        case ExistsVar(_, b):
            return free_setvars(b)
        case ExistsSet(p, b, _):
            return free_setvars(b) - {p}
    raise TypeError(f)


def rename_ivar(f: Mso2, old: str, new: str) -> Mso2:
    match f:
        case PredApp(p, x):
            return PredApp(p, new if x == old else x)
        case RelApp(x, y):
            return RelApp(new if x == old else x, new if y == old else y)
        case EqVar(x, y):
            return EqVar(new if x == old else x, new if y == old else y)
        case Not2(b):
            return Not2(rename_ivar(b, old, new))
        case Or2(a, b):
            return Or2(rename_ivar(a, old, new), rename_ivar(b, old, new))
        case ExistsVar(v, b):
            if v == old:
                return f
            return ExistsVar(v, rename_ivar(b, old, new))
        case ExistsSet(p, b, m):
            return ExistsSet(p, rename_ivar(b, old, new), m)
    raise TypeError(f)


def substitute_atom(f: Mso2, name: str, maker) -> Mso2:
    """Replace every atom name(x) by maker(x); maker returns a formula."""
    match f:
        case PredApp(p, x):
            return maker(x) if p == name else f
        case RelApp() | EqVar():
            return f
        case Not2(b):
            return Not2(substitute_atom(b, name, maker))
        case Or2(a, b):
            return Or2(substitute_atom(a, name, maker), substitute_atom(b, name, maker))
        case ExistsVar(v, b):
            return ExistsVar(v, substitute_atom(b, name, maker))
        case ExistsSet(p, b, m):
            if p == name:
                return f
            return ExistsSet(p, substitute_atom(b, name, maker), m)
    raise TypeError(f)


def pretty2(f: Mso2, _level: int = 0) -> str:
    match f:
        case PredApp(p, x):
            return "%s(%s)" % (p, x)
        case RelApp(x, y):
            return "R(%s,%s)" % (x, y)
        case EqVar(x, y):
            return "%s=%s" % (x, y)
        case Not2(b):
            return "~" + pretty2(b, 2)
        case Or2(a, b):
            s = "%s | %s" % (pretty2(a, 1), pretty2(b, 0))
            return "(" + s + ")" if _level > 0 else s
        case ExistsVar(v, b):
            s = "ex %s. %s" % (v, pretty2(b, 0))
            return "(" + s + ")" if _level > 0 else s
        case ExistsSet(p, b, _):
            s = "ex %s. %s" % (p, pretty2(b, 0))
            return "(" + s + ")" if _level > 0 else s
    raise TypeError(f)


# --- parsing --------------------------------------------------------------

INDIVIDUAL_VARS = re.compile(r"^[v-z][0-9]*$")
# convention: v,w,x,y,z (optionally indexed) are individual variables,
# anything else is a proposition letter / set variable


MsoParseError = ParseError


def _parse(text: str, logic: str, sorted2: bool):
    mode = LOGIC_MODE[logic]
    Not, Or = (Not2, Or2) if sorted2 else (Not1, Or1)
    make_or = partial(reduce, Or)  # left-nested binary disjunctions

    def unary(c: Cursor):
        t = c.peek()
        if t == "(":
            c.enter()
            f = c.infix(unary, make_or)
            c.expect(")")
            return c.leave(f)
        if t == "~":
            c.enter()
            return c.leave(Not(unary(c)))
        if t == "ex":
            c.enter()
            v = c.name()
            c.expect(".")
            b = c.infix(unary, make_or)
            if not sorted2:
                return c.leave(Exists1(v, b, mode))
            return c.leave(ExistsVar(v, b) if INDIVIDUAL_VARS.match(v) else ExistsSet(v, b, mode))
        if t == "down":
            if sorted2:
                raise c.error("one-sorted atom 'down' in a two-sorted formula")
            c.take()
            return Down(c.name())
        if t == "Rel" or t == "R":
            c.take()
            return (RelApp if sorted2 else RelStep)(*c.args(2))
        name = c.name()
        t = c.peek()
        if t == "sub":
            if sorted2:
                raise c.error("one-sorted atom 'sub' in a two-sorted formula")
            c.take()
            return SubsetOf(name, c.name())
        if sorted2 and t == "(":
            return PredApp(name, *c.args(1))
        if sorted2 and t == "=":
            c.take()
            return EqVar(name, c.name())
        msg = "dangling identifier %r" if sorted2 else "unknown one-sorted atom starting at %r"
        raise c.error(msg % name, back=1)

    c = Cursor(text)
    return c.end(c.infix(unary, make_or))


def parse1(text: str, logic: str = "wmso") -> Mso1:
    return _parse(text, logic, sorted2=False)


def parse2(text: str, logic: str = "wmso") -> Mso2:
    return _parse(text, logic, sorted2=True)
