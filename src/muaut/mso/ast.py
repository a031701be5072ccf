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
from functools import reduce
from operator import attrgetter
from typing import Iterable, Union

from ..syntax import Grammar, Node

STANDARD = "standard"
FINITE = "finite"
NOETHERIAN = "noetherian"

LOGIC_MODE = {"smso": STANDARD, "wmso": FINITE, "nmso": NOETHERIAN}


# --- shared connectives ---------------------------------------------------
# `|` parses left-nested and `ex` scopes as far right as it can, so a right
# operand of `|` is parenthesized when it is a `|`, a left one when it is an `ex`

class Not(Node):
    body: "Mso"
    subs = ("body",)
    notation = (None, "~", ("body", 2))


class Or(Node):
    left: "Mso"
    right: "Mso"
    subs = ("left", "right")
    notation = (0, ("left", 2), " | ", ("right", 1))


class ExistsSet(Node):
    var: str
    body: "Mso"
    mode: str
    subs = ("body",)
    notation = (1, "ex {var}. ", ("body", 0))


# --- one-sorted -----------------------------------------------------------

class Down(Node):
    """The letter holds exactly at the distinguished state."""
    p: str
    notation = (None, "down {p}")


class SubsetOf(Node):
    left: str
    right: str
    notation = (None, "{left} sub {right}")


class RelStep(Node):
    """Every left-state has an edge to some right-state."""
    left: str
    right: str
    notation = (None, "Rel({left},{right})")


Mso1 = Union[Down, SubsetOf, RelStep, Not, Or, ExistsSet]


free_names = attrgetter("facts")  # stored on each node (see Node.derive)


# --- two-sorted -----------------------------------------------------------

class PredApp(Node):
    p: str
    x: str
    notation = (None, "{p}({x})")


class RelApp(Node):
    x: str
    y: str
    notation = (None, "R({x},{y})")


class EqVar(Node):
    x: str
    y: str
    notation = (None, "{x}={y}")


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


def _grammars(mode: str) -> tuple[Grammar, Grammar]:
    """The one- and two-sorted grammars whose set quantifier has the mode.
    Both sorts spell the relation atom `R` and `Rel`; two-sorted `ex` over an
    individual name quantifies an individual, and `down` and `sub` are refused."""
    def ex1(var, body):
        return ExistsSet(var, body, mode)

    def ex2(var, body):
        return ExistsVar(var, body) if INDIVIDUAL_VARS.match(var) else ExistsSet(var, body, mode)

    refused = "one-sorted atom %r in a two-sorted formula"
    return (Grammar((Not, Or, Down, SubsetOf, RelStep, (ExistsSet.notation, ex1), (RelApp.notation, RelStep)),
                    dangling="unknown one-sorted atom starting at %r"),
            Grammar((Not, Or, PredApp, RelApp, EqVar, (ExistsSet.notation, ex2), (RelStep.notation, RelApp),
                     (Down.notation, refused), (SubsetOf.notation, refused))))


GRAMMARS = {logic: _grammars(mode) for logic, mode in LOGIC_MODE.items()}
KEYWORDS = GRAMMARS["wmso"][1].keywords  # the names that open a two-sorted atom


def _grammar(logic: str, sort: int) -> Grammar:
    grammars = GRAMMARS.get(logic.lower())
    if grammars is None:
        raise ValueError("unknown logic %r (expected smso, wmso or nmso)" % logic)
    return grammars[sort]


def parse1(text: str, logic: str = "wmso") -> Mso1:
    return _grammar(logic, 0).parse(text)


def parse2(text: str, logic: str = "wmso") -> Mso2:
    return _grammar(logic, 1).parse(text)
