"""Brute-force second-order evaluation on finite systems.

Set quantifiers range over all subsets, filtered by the quantifier mode:
no filter for standard, none for finite either (every subset of a finite
system is finite; the coincidence is asserted by tests, not assumed
silently elsewhere), and the common-ancestor criterion for noetherian.
"""
from __future__ import annotations

from ..lts import LTS, noetherian_subset
from ..onestep.models import _subsets_by_size
from .ast import (Down, EqVar, Exists1, ExistsSet, ExistsVar, Mso1, Mso2,
                  Not1, Not2, Or1, Or2, PredApp, RelApp, RelStep, SubsetOf,
                  NOETHERIAN)


class UnboundError(ValueError):
    pass


def _candidates(lts: LTS, mode: str) -> list[frozenset[int]]:
    subs = [frozenset(c) for c in _subsets_by_size(lts.states())]
    if mode == NOETHERIAN:
        return [x for x in subs if noetherian_subset(lts, x)]
    return subs


def eval_mso(f: Mso1, lts: LTS, env: dict[str, frozenset[int]] | None = None) -> bool:
    def ext(p: str, env: dict[str, frozenset[int]]) -> frozenset[int]:
        if p in env:
            return env[p]
        if p in lts.props:
            return lts.holds(p)
        raise UnboundError("letter %r neither bound nor in the alphabet" % p)

    def go(g: Mso1, env: dict[str, frozenset[int]]) -> bool:
        match g:
            case Down(p):
                return ext(p, env) == frozenset({lts.init})
            case SubsetOf(a, b):
                return ext(a, env) <= ext(b, env)
            case RelStep(a, b):
                right = ext(b, env)
                return all(any((s, t) in lts.edges for t in right) for s in ext(a, env))
            case Not1(b):
                return not go(b, env)
            case Or1(a, b):
                return go(a, env) or go(b, env)
            case Exists1(v, b, mode):
                return any(go(b, {**env, v: x}) for x in _candidates(lts, mode))
        raise TypeError(g)

    return go(f, env or {})


def eval_mso2(f: Mso2, lts: LTS, assignment: dict[str, int],
              env: dict[str, frozenset[int]] | None = None) -> bool:
    env = env or {}

    def go(g: Mso2, asg: dict[str, int], env: dict[str, frozenset[int]]) -> bool:
        match g:
            case PredApp(p, x):
                if x not in asg:
                    raise UnboundError("unassigned variable %r" % x)
                if p in env:
                    return asg[x] in env[p]
                if p in lts.props:
                    return p in lts.colours[asg[x]]
                raise UnboundError("letter %r neither bound nor in the alphabet" % p)
            case RelApp(x, y):
                return (asg[x], asg[y]) in lts.edges
            case EqVar(x, y):
                return asg[x] == asg[y]
            case Not2(b):
                return not go(b, asg, env)
            case Or2(a, b):
                return go(a, asg, env) or go(b, asg, env)
            case ExistsVar(v, b):
                return any(go(b, {**asg, v: s}, env) for s in lts.states())
            case ExistsSet(p, b, mode):
                return any(go(b, asg, {**env, p: x}) for x in _candidates(lts, mode))
        raise TypeError(g)

    return go(f, assignment, env)


def holds_at_init2(f: Mso2, lts: LTS, v: str = "v") -> bool:
    """The designated-variable convention: evaluate with v at the root."""
    return eval_mso2(f, lts, {v: lts.init})
