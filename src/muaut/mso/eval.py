"""Brute-force second-order evaluation on finite systems.

Set quantifiers range over all subsets, filtered by the quantifier mode:
no filter for standard, none for finite either (every subset of a finite
system is finite; the coincidence is asserted by tests, not assumed
silently elsewhere), and the common-ancestor criterion for noetherian.
Candidates are produced smallest first, as quantifiers ask for them; a
quantifier's truth is memoized on the values of its free names.
"""
from __future__ import annotations

from itertools import count
from typing import Iterator

from ..lts import LTS, noetherian_subset
from ..onestep.models import _subsets_by_size
from .ast import (Down, EqVar, ExistsSet, ExistsVar, Mso, Mso2, Not, Or, PredApp,
                  RelApp, RelStep, SubsetOf, NOETHERIAN)


class UnboundError(ValueError):
    pass


def _candidates(lts: LTS, mode: str) -> Iterator[frozenset[int]]:
    """The subsets a quantifier of the mode ranges over, smallest first."""
    subs = map(frozenset, _subsets_by_size(lts.states()))
    if mode == NOETHERIAN:
        return (x for x in subs if noetherian_subset(lts, x))
    return subs


def eval_mso(f: Mso, lts: LTS, assignment: dict[str, int] | None = None) -> bool:
    """Truth of a formula of either sort, its free individual variables
    read from the assignment.  A letter is a set: bound, or the extension
    of a proposition of the system."""
    held = {p: lts.holds(p) for p in lts.props}
    succ = lts.successor_table()
    made: dict[str, tuple[list, Iterator]] = {}  # per mode: candidates kept so far, the rest

    def candidates(mode: str) -> Iterator[frozenset[int]]:
        """The mode's candidates in order, each produced once and kept."""
        if mode not in made:
            made[mode] = [], _candidates(lts, mode)
        kept, rest = made[mode]
        for i in count():
            if i == len(kept):
                kept.append(next(rest, None))  # None past the last
            if kept[i] is None:
                return
            yield kept[i]

    def ext(p: str, env: dict[str, frozenset[int]]) -> frozenset[int]:
        out = env[p] if p in env else held.get(p)
        if out is None:
            raise UnboundError("letter %r neither bound nor in the alphabet" % p)
        return out

    def at(x: str, asg: dict[str, int]) -> int:
        if x not in asg:
            raise UnboundError("unassigned variable %r" % x)
        return asg[x]

    memo: dict[tuple, bool] = {}  # (quantifier node, values of its free names) -> truth

    def go(g, asg: dict[str, int], env: dict[str, frozenset[int]]) -> bool:
        match g:
            case Down(p):
                return ext(p, env) == frozenset({lts.init})
            case SubsetOf(a, b):
                return ext(a, env) <= ext(b, env)
            case RelStep(a, b):
                right = ext(b, env)
                return all(any(t in right for t in succ[s]) for s in ext(a, env))
            case PredApp(p, x):
                return at(x, asg) in ext(p, env)
            case RelApp(x, y):
                return at(y, asg) in succ[at(x, asg)]
            case EqVar(x, y):
                return at(x, asg) == at(y, asg)
            case Not(b):
                return not go(b, asg, env)
            case Or(a, b):
                return go(a, asg, env) or go(b, asg, env)
        # a quantifier's truth depends only on the values of its free names
        key = (g, *[(asg.get(n), env.get(n)) for n in g.facts])
        if key not in memo:
            match g:
                case ExistsVar(v, b):
                    memo[key] = any(go(b, {**asg, v: s}, env) for s in lts.states())
                case ExistsSet(v, b, mode):
                    memo[key] = any(go(b, asg, {**env, v: x}) for x in candidates(mode))
                case _:
                    raise TypeError(g)
        return memo[key]

    return go(f, assignment or {}, {})


def holds_at_init(f: Mso2, lts: LTS) -> bool:
    """The designated-variable convention: evaluate with v at the root."""
    return eval_mso(f, lts, {"v": lts.init})
