"""Fixpoint semantics on finite transition systems."""
from __future__ import annotations

from .. import onestep as o
from ..lts import LTS
from ..syntax import each, scoped
from .ast import (MAnd, Modal, MOr, Mu, MuFormula, NegProp, Nu, Prop,
                  check_wf, free_letters)


def open_eval(f: MuFormula, lts: LTS, env: dict[str, frozenset[int]]) -> frozenset[int]:
    """Meaning of a formula whose extra letters are interpreted by env.

    Least fixpoints iterate upward from the empty set, greatest downward
    from the full state set; both stabilize within |states| rounds.
    Modalities evaluate pointwise on the one-step model of the successors,
    read from its capped type counts.  A subformula is evaluated again only
    when its free letters change value, not in each round of a fixpoint.
    """
    lts.props.require(free_letters(f) - set(env))
    full = frozenset(lts.states())
    succ = lts.successor_table()

    @scoped
    def sem(g: MuFormula, env: dict[str, frozenset[int]]) -> frozenset[int]:
        match g:
            case Prop(p):
                return env[p] if p in env else lts.holds(p)
            case NegProp(p):
                return full - (env[p] if p in env else lts.holds(p))
            case MAnd(args):
                return full.intersection(*(yield from each((a, env) for a in args)))
            case MOr(args):
                return frozenset().union(*(yield from each((a, env) for a in args)))
            case Modal(alpha, args):
                val = dict(zip(g.pred_names(), (yield from each((a, env) for a in args))))
                return frozenset(s for s, ok in enumerate(o.eval_capped(alpha, val, succ)) if ok)
            case Mu(p, b) | Nu(p, b):
                x = frozenset() if type(g) is Mu else full
                while True:
                    nxt = yield b, {**env, p: x}
                    if nxt == x:
                        return x
                    x = nxt
        raise TypeError(g)

    return sem(f, env)


def semantics_eval(f: MuFormula, lts: LTS) -> frozenset[int]:
    """The set of states where the (well-formed, closed-over-the-alphabet)
    formula holds."""
    check_wf(f)
    return open_eval(f, lts, {})
