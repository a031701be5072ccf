"""Compiling one-sorted second-order sentences to parity automata.

Sound on trees: the projection step characterizes variant-guessing only
against tree models.  Atoms get the explicit two-state (or one-state) base
automata; disjunction is automaton union, negation complementation, and
the set quantifier is projection over the matching simulation construct
(finitary for the weak logic, noetherian for the noetherian one code).
"""
from __future__ import annotations

from .. import onestep as o
from ..automata import (ParityAutomaton, collapse_priorities, complement,
                        finitary_construct, noetherian_construct, project,
                        union_automaton)
from ..lts import PropSet
from .ast import (Down, ExistsSet, Mso1, Not, Or, RelStep, SubsetOf, LOGIC_MODE,
                  free_names)


class CompileError(ValueError):
    pass


def base_down(props: PropSet, p: str, dialect: str) -> ParityAutomaton:
    """Accepts systems where p holds exactly at the distinguished state."""
    delta = {}
    for c in props.colours():
        delta[(0, c)] = o.Forall("x", o.Pred("q1", "x")) if p in c else o.BOT
        delta[(1, c)] = o.Forall("x", o.Pred("q1", "x")) if p not in c else o.BOT
    return ParityAutomaton(dialect, props, 2, 0, (0, 0), delta)


def base_subset(props: PropSet, p: str, q: str, dialect: str) -> ParityAutomaton:
    delta = {}
    for c in props.colours():
        ok = p not in c or q in c
        delta[(0, c)] = o.Forall("x", o.Pred("q0", "x")) if ok else o.BOT
    return ParityAutomaton(dialect, props, 1, 0, (0,), delta)


def base_rel(props: PropSet, p: str, q: str, dialect: str) -> ParityAutomaton:
    """Every p-state must have a q-successor; priority 1 keeps the pending
    obligation from being postponed forever."""
    delta = {}
    for c in props.colours():
        if p in c:
            delta[(0, c)] = o.And((
                o.Exists("x", o.Pred("q1", "x")),
                o.Forall("y", o.Pred("q0", "y")),
            ))
        else:
            delta[(0, c)] = o.Forall("x", o.Pred("q0", "x"))
        delta[(1, c)] = o.TOP if q in c else o.BOT
    return ParityAutomaton(dialect, props, 2, 0, (0, 1), delta)


def compile_mso(f: Mso1, logic: str, props: PropSet) -> ParityAutomaton:
    """Tree-equivalent automaton for a WMSO or NMSO sentence."""
    logic = logic.lower()
    if logic not in ("wmso", "nmso"):
        raise CompileError("compilation targets the wmso and nmso logics")
    mode = LOGIC_MODE[logic]
    dialect = o.FOE1INF if logic == "wmso" else o.FOE1
    props.require(free_names(f))

    def go(g: Mso1, ps: PropSet) -> ParityAutomaton:
        match g:
            case Down(p):
                return base_down(ps, p, dialect)
            case SubsetOf(p, q):
                return base_subset(ps, p, q, dialect)
            case RelStep(p, q):
                return base_rel(ps, p, q, dialect)
            case Or(a, b):
                return union_automaton(go(a, ps), go(b, ps))
            case Not(b):
                return complement(go(b, ps))
            case ExistsSet(p, b, m):
                if m != mode:
                    raise CompileError("quantifier mode %r inside a %s compilation" % (m, logic))
                sub = go(b, ps.with_letter(p))
                construct = finitary_construct if logic == "wmso" else noetherian_construct
                return project(construct(collapse_priorities(sub)), p)
        raise TypeError(g)

    return go(f, props)
