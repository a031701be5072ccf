"""Monadic second-order syntax, one-sorted and two-sorted.

The two sorts are one logic: they share negation, disjunction and the set
quantifier, whose classes belong to both `Mso1` and `Mso2`, and differ only
in their atoms and in the two-sorted individual quantifier.  Second-order
quantifiers carry a mode: standard (all subsets), finite, or noetherian; a
logic instance uses one mode uniformly.  Conjunction, implication and
universals are provided as derived builders.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from operator import attrgetter
from typing import Iterable, Union

from ..syntax import Cursor, Node

STANDARD = "standard"
FINITE = "finite"
NOETHERIAN = "noetherian"

LOGIC_MODE = {"smso": STANDARD, "wmso": FINITE, "nmso": NOETHERIAN}


# --- shared connectives ---------------------------------------------------
# `|` parses left-nested and `ex` scopes as far right as it can, so a right
# operand of `|` is parenthesized when it is a `|`, a left one when it is an `ex`

@dataclass(frozen=True, eq=False)
class Not(Node):
    body: "Mso"
    subs = ("body",)
    notation = (None, "~", ("body", 2))


@dataclass(frozen=True, eq=False)
class Or(Node):
    left: "Mso"
    right: "Mso"
    subs = ("left", "right")
    notation = (0, ("left", 2), " | ", ("right", 1))


@dataclass(frozen=True, eq=False)
class ExistsSet(Node):
    var: str
    body: "Mso"
    mode: str
    subs = ("body",)
    notation = (1, "ex {var}. ", ("body", 0))


# --- one-sorted -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Down(Node):
    """The letter holds exactly at the distinguished state."""
    p: str
    notation = (None, "down {p}")


@dataclass(frozen=True, eq=False)
class SubsetOf(Node):
    left: str
    right: str
    notation = (None, "{left} sub {right}")


@dataclass(frozen=True, eq=False)
class RelStep(Node):
    """Every left-state has an edge to some right-state."""
    left: str
    right: str
    notation = (None, "Rel({left},{right})")


Mso1 = Union[Down, SubsetOf, RelStep, Not, Or, ExistsSet]


free_names = attrgetter("facts")  # stored on each node (see Node.derive)


# --- two-sorted -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PredApp(Node):
    p: str
    x: str
    notation = (None, "{p}({x})")


@dataclass(frozen=True, eq=False)
class RelApp(Node):
    x: str
    y: str
    notation = (None, "R({x},{y})")


@dataclass(frozen=True, eq=False)
class EqVar(Node):
    x: str
    y: str
    notation = (None, "{x}={y}")


@dataclass(frozen=True, eq=False)
class ExistsVar(Node):
    var: str
    body: "Mso"
    subs = ("body",)
    notation = ExistsSet.notation


Mso2 = Union[PredApp, RelApp, EqVar, Not, Or, ExistsVar, ExistsSet]
Mso = Union[Mso1, Mso2]


def implies(a: Mso, b: Mso) -> Mso:
    return Or(Not(a), b)


def forall_var(x: str, body: Mso2) -> Mso2:
    return Not(ExistsVar(x, Not(body)))


def forall_set(p: str, body: Mso2, mode: str) -> Mso2:
    return Not(ExistsSet(p, Not(body), mode))


def conj(parts: Iterable[Mso]) -> Mso:
    """The left-nested conjunction of the parts, as Not/Or nodes."""
    return reduce(lambda a, b: Not(Or(Not(a), Not(b))), parts)


# --- parsing --------------------------------------------------------------

INDIVIDUAL_VARS = re.compile(r"^[v-z][0-9]*$")
# convention: v,w,x,y,z (optionally indexed) are individual variables,
# anything else is a proposition letter / set variable
KEYWORDS = frozenset({"ex", "down", "Rel", "R"})  # names that cannot open an atom


def _parse(text: str, logic: str, sorted2: bool):
    mode = LOGIC_MODE[logic]
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
            if sorted2 and INDIVIDUAL_VARS.match(v):
                return c.leave(ExistsVar(v, b))
            return c.leave(ExistsSet(v, b, mode))
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
